"""Environment pinning, percentiles, output digests and result files."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS_PATH = BENCH_DIR / "digests.json"
RESULTS_DIR = BENCH_DIR / "results"


class NotACheckout(SystemExit):
    """Raised when the working directory holds no ``src/repro`` to measure."""


def repo_root() -> Path:
    """The checkout the benchmark measures: the working directory."""
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise NotACheckout(
            f"no src/repro under {root}: run from the root of a checkout"
        )
    return root


def add_src_to_path(root: Path) -> None:
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


# -- environment pinning ----------------------------------------------------------

def pinned_env(cache_dir: Path, root: Path, base: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """``base`` (default ``os.environ``) with every ``REPRO_*`` removed, then
    only what a workload needs: its own result-cache dir and memtrace
    capture off.  ``PYTHONPATH`` points children at the checkout's source."""
    env = {k: v for k, v in (base if base is not None else os.environ).items()
           if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["REPRO_MEMTRACE"] = "0"
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def pin_own_env(cache_dir: Path, root: Path) -> Dict[str, str]:
    """Apply :func:`pinned_env` to this process; returns the REPRO_* in effect."""
    env = pinned_env(cache_dir, root)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update({k: v for k, v in env.items() if k.startswith("REPRO_")})
    return {k: v for k, v in env.items() if k.startswith("REPRO_")}


# -- statistics -----------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float, min_beyond: int = 10) -> float:
    """Nearest-rank percentile, refused unless ``min_beyond`` samples lie above it.

    With ``n`` samples the p-th percentile is the ``ceil(p/100 * n)``-th
    smallest; the samples beyond it number ``n - rank``.
    """
    n = len(values)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * n))
    beyond = n - rank
    if beyond < min_beyond:
        raise ValueError(
            f"p{pct:g} of {n} samples has {beyond} beyond it; need {min_beyond}"
        )
    return float(sorted(values)[rank - 1])


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)`` gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


# -- output digests ---------------------------------------------------------------

def digest(metrics: Dict) -> str:
    return hashlib.sha256(json.dumps(metrics, sort_keys=True).encode()).hexdigest()


def load_digests(path: Path = DIGESTS_PATH) -> Dict[str, str]:
    with open(path) as handle:
        return dict(json.load(handle)["digests"])


class DigestCheck:
    """Counts operations whose result differs from the committed table."""

    def __init__(self, table: Dict[str, str]):
        self.table = table
        self.wrong: List[str] = []

    def check(self, case_id: str, metrics_digest: Optional[str]) -> bool:
        expected = self.table.get(case_id)
        if expected is None or metrics_digest != expected:
            self.wrong.append(case_id)
            return False
        return True


# -- result files -----------------------------------------------------------------

def _git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():  # never report an enclosing repository
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root: Path) -> str:
    """SHA-256 over ``src/`` (paths and bytes), for checkouts that are not git repos."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, repro_env: Dict[str, str]) -> Dict:
    import numpy

    from repro.gpusim.config import default_setup
    from dataclasses import asdict

    setup = default_setup()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
        "repro_env": dict(sorted(repro_env.items())),
        "setup": {
            "image": [setup.image_width, setup.image_height],
            "scene_scale": setup.scene_scale,
            "num_sms": setup.gpu.num_sms,
            "max_bounces": setup.max_bounces,
            "samples_per_pixel": setup.samples_per_pixel,
        },
        "gpu": asdict(setup.gpu),
    }


def write_result(workload: str, seed: int, trace: bool, payload: Dict) -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = RESULTS_DIR / f"{workload}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    return path
