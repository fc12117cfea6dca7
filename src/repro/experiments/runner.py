"""Case runner with scene caching and hardened on-disk result caching.

A *case* is (scene, policy, VTQ overrides) under an
:class:`ExperimentContext` (image size, GPU config, scene scale).  Results
are JSON dicts of scalar metrics plus small series, cached under
``.cache/experiments/`` keyed by a hash of everything that affects the
outcome — so re-running a benchmark that shares cases with an earlier one
(the baseline run feeds half the figures) is free.

Robustness:

* Cache entries are versioned, keyed and checksummed
  (``{"version", "key", "checksum", "metrics"}``); a truncated,
  corrupted, stale or mismatched entry is logged, deleted and recomputed
  — never trusted, never fatal.
* Each case runs under an optional :class:`CaseBudget` (wall-clock +
  simulated-cycle watchdogs, see :mod:`repro.gpusim.budget`).
* :func:`run_case_quarantined` converts a failing case into a recorded
  :class:`CaseFailure` so a multi-case sweep completes with the failure
  marked instead of aborting; :func:`failures` lists what went wrong.
* The per-process scene/BVH cache is LRU-bounded
  (``REPRO_SCENE_CACHE_ENTRIES``, default 8) so long sweeps over many
  scene/scale combinations don't grow memory without limit.
* The disk cache is safe under concurrent sweep workers: a per-case
  ``flock`` claim file serializes compute-and-write per key, so two
  processes racing on the same case produce one simulation and one valid
  entry (the loser reads the winner's result).  ``REPRO_CACHE_DIR``
  overrides the cache location; ``REPRO_CACHE_TRACE`` appends
  ``HIT <key>`` / ``COMPUTE <key>`` lines to a log for auditing.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

import time

from repro import faults, settings
from repro.bvh import build_scene_bvh
from repro.bvh.layout import LayoutConfig
from repro.core.config import VTQConfig
from repro.errors import BudgetExceeded, CacheError, ReproError, SimulationError
from repro.gpusim.budget import CaseBudget, budget_from_env, wall_clock_watchdog
from repro.gpusim.config import GPUConfig, ScaledSetup, default_setup
from repro.gpusim.energy import EnergyModel
from repro.gpusim.stats import TraversalMode
from repro.obs import registry as obs_registry
from repro.scenes import load_scene, scene_names
from repro.tracing import render_scene

logger = logging.getLogger("repro.experiments")

# Bump when simulator semantics change, to invalidate stale cached results.
RESULTS_VERSION = "7"

_CACHE_DIR = Path(__file__).resolve().parents[3] / ".cache" / "experiments"


def cache_dir() -> Path:
    """The experiment result cache directory.

    ``REPRO_CACHE_DIR`` overrides the repo-relative default — parallel
    sweep workers and CI jobs point it at scratch space.  Read on every
    call so tests and workers can retarget it at runtime.
    """
    return settings.get("REPRO_CACHE_DIR") or _CACHE_DIR


@dataclass(frozen=True)
class ExperimentContext:
    """Everything shared across the cases of one reproduction run."""

    setup: ScaledSetup
    scene_list: Tuple[str, ...]
    use_disk_cache: bool = True
    budget: Optional[CaseBudget] = None
    sanitize: Optional[bool] = None

    def scenes(self) -> List[str]:
        return list(self.scene_list)

    def case_budget(self) -> Optional[CaseBudget]:
        """The context's budget, falling back to the environment's."""
        return self.budget if self.budget is not None else budget_from_env()


def default_context(fast: bool = False) -> ExperimentContext:
    """The context benchmarks run under.

    ``REPRO_SCENES`` (comma-separated names) restricts the scene list;
    ``REPRO_SCALE`` grows the workload (see ``default_setup``).  ``fast``
    is used by unit tests: two scenes at tiny scale.
    """
    setup = default_setup(fast=fast)
    env = settings.get("REPRO_SCENES")
    if env:
        names = tuple(n.strip().upper() for n in env.split(",") if n.strip())
    elif fast:
        names = ("BUNNY", "SPNZA")
    else:
        names = tuple(scene_names())
    return ExperimentContext(setup=setup, scene_list=names)


# -- scene/BVH construction is cached per process (LRU-bounded) --------------------

_scene_cache: "OrderedDict[Tuple, Tuple]" = OrderedDict()


def scene_and_bvh(name: str, setup: ScaledSetup):
    """The (Scene, SceneBVH) pair for a case, built once per process.

    The cache holds at most ``REPRO_SCENE_CACHE_ENTRIES`` (default 8)
    pairs, evicting least-recently-used, so sweeps over many scene/scale
    combinations stay memory-bounded.
    """
    key = (name, setup.scene_scale, setup.gpu.treelet_bytes, setup.gpu.line_bytes)
    if key in _scene_cache:
        _scene_cache.move_to_end(key)
        return _scene_cache[key]
    scene = load_scene(name, scale=setup.scene_scale)
    bvh = build_scene_bvh(
        scene.mesh,
        layout_config=LayoutConfig(line_bytes=setup.gpu.line_bytes),
        treelet_budget_bytes=setup.gpu.treelet_bytes,
    )
    _scene_cache[key] = (scene, bvh)
    limit = settings.get("REPRO_SCENE_CACHE_ENTRIES")
    while len(_scene_cache) > limit:
        _scene_cache.popitem(last=False)
    return _scene_cache[key]


# -- result cache ------------------------------------------------------------------


def _case_key(scene: str, policy: str, setup: ScaledSetup, vtq: Optional[VTQConfig]) -> str:
    payload = {
        "v": RESULTS_VERSION,
        "scene": scene,
        "policy": policy,
        "setup": {
            "gpu": asdict(setup.gpu),
            "w": setup.image_width,
            "h": setup.image_height,
            "scale": setup.scene_scale,
            "bounces": setup.max_bounces,
        },
        "vtq": asdict(vtq) if vtq is not None else None,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:24]


def case_key_for(
    scene: str,
    policy: str,
    context: ExperimentContext,
    vtq: Optional[VTQConfig] = None,
    gpu_overrides=None,
) -> str:
    """The disk-cache key :func:`run_case` would use for this case.

    Public so the sweep journal (:mod:`repro.resilience.journal`) can
    identify completed cases by exactly the identity the cache uses —
    any input change that would invalidate the cache also invalidates
    the journal entry.
    """
    point = _point_context(context, gpu_overrides)
    return _case_key(scene, policy, point.setup, vtq)


def _metrics_checksum(metrics: Dict) -> str:
    blob = json.dumps(metrics, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _read_cache_entry(cache_path: Path, key: str) -> Dict:
    """Load and verify one cache file; :class:`CacheError` on any defect."""
    try:
        with open(cache_path) as f:
            entry = json.load(f)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CacheError(f"unreadable cache entry {cache_path.name}: {exc}") from exc
    if not isinstance(entry, dict) or "metrics" not in entry:
        raise CacheError(f"cache entry {cache_path.name} has unexpected schema")
    if entry.get("version") != RESULTS_VERSION:
        raise CacheError(
            f"cache entry {cache_path.name} is version {entry.get('version')!r}, "
            f"expected {RESULTS_VERSION!r}"
        )
    if entry.get("key") != key:
        raise CacheError(f"cache entry {cache_path.name} keyed for a different case")
    metrics = entry["metrics"]
    if not isinstance(metrics, dict):
        raise CacheError(f"cache entry {cache_path.name} metrics are not a dict")
    if entry.get("checksum") != _metrics_checksum(metrics):
        raise CacheError(f"cache entry {cache_path.name} failed its checksum")
    return metrics


def _write_cache_entry(cache_path: Path, key: str, metrics: Dict) -> None:
    """Atomically write a versioned, checksummed cache entry."""
    cache_path.parent.mkdir(parents=True, exist_ok=True)
    entry = {
        "version": RESULTS_VERSION,
        "key": key,
        "checksum": _metrics_checksum(metrics),
        "metrics": metrics,
    }
    tmp = cache_path.with_suffix(".tmp")
    with open(tmp, "w") as f:
        json.dump(entry, f)
    tmp.replace(cache_path)


def _observe_case(scene: str, policy: str, source: str, seconds: float) -> None:
    """Record one resolved case in the metrics registry (repro.obs)."""
    reg = obs_registry()
    labels = {"scene": scene, "policy": policy, "source": source}
    reg.counter(
        "repro_case_total",
        "Cases resolved, by how (hit/compute/nocache)",
        ("scene", "policy", "source"),
    ).labels(**labels).inc()
    reg.histogram(
        "repro_case_seconds",
        "Per-case wall time by resolution path",
        ("scene", "policy", "source"),
    ).labels(**labels).observe(seconds)


def _trace_cache(event: str, key: str) -> None:
    """Append one ``EVENT <key>`` line to the ``REPRO_CACHE_TRACE`` log.

    ``O_APPEND`` keeps concurrent writers' lines intact, so the log is a
    faithful record of which process hit and which computed.  The same
    events also feed the ``repro_cache_events_total`` metric, which works
    without any trace log configured.
    """
    obs_registry().counter(
        "repro_cache_events_total",
        "Disk result-cache events (HIT = replayed, COMPUTE = simulated)",
        ("event",),
    ).labels(event=event.lower()).inc()
    path = settings.get("REPRO_CACHE_TRACE")
    if path is None:
        return
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, f"{event} {key}\n".encode())
    finally:
        os.close(fd)


@contextmanager
def _case_claim(key: str):
    """Cross-process mutex for one cache key.

    An ``flock`` over ``<key>.lock`` in the cache directory, managed by
    the shared retry policy (:func:`repro.resilience.flock_claim`), so
    two sweep workers never simulate the same case concurrently: the
    loser of the race waits, then finds the winner's entry on disk.  On
    platforms without ``fcntl`` the claim degrades to a no-op (the cache
    write is still atomic; at worst a case is computed twice).
    """
    from repro.resilience import flock_claim

    directory = cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    with flock_claim(directory / f"{key}.lock", describe=f"case:{key}"):
        yield


def clear_cache() -> None:
    """Delete all cached experiment results."""
    directory = cache_dir()
    if directory.exists():
        shutil.rmtree(directory)


# -- failure quarantine -------------------------------------------------------------


@dataclass
class CaseFailure:
    """One quarantined case: what failed and why."""

    scene: str
    policy: str
    error_type: str
    message: str
    partial: Dict = field(default_factory=dict)

    def label(self) -> str:
        return f"{self.scene}/{self.policy}"


_FAILURES: List[CaseFailure] = []


def record_failure(failure: CaseFailure) -> CaseFailure:
    _FAILURES.append(failure)
    return failure


def failures() -> List[CaseFailure]:
    """Quarantined cases recorded since the last :func:`clear_failures`."""
    return list(_FAILURES)


def clear_failures() -> None:
    _FAILURES.clear()


# -- case execution -----------------------------------------------------------------


def _try_read_cache(cache_path: Path, key: str, case_label: str) -> Optional[Dict]:
    """Read a cache entry if present and valid; drop defective entries."""
    if not cache_path.exists():
        return None
    try:
        metrics = _read_cache_entry(cache_path, key)
    except CacheError as exc:
        logger.warning("recomputing %s: %s", case_label, exc)
        try:
            cache_path.unlink()
        except OSError:  # pragma: no cover - racing unlink is fine
            pass
        return None
    _trace_cache("HIT", key)
    return metrics


def normalize_overrides(overrides) -> Tuple[Tuple[str, object], ...]:
    """Canonical hashable form: a name-sorted tuple of (field, value) pairs.

    Accepts a mapping, an iterable of pairs, or ``None``.
    """
    if not overrides:
        return ()
    if isinstance(overrides, Mapping):
        items = overrides.items()
    else:
        items = list(overrides)
    return tuple(sorted((str(name), value) for name, value in items))


def _point_context(context: ExperimentContext, gpu_overrides) -> ExperimentContext:
    """The context with GPU overrides folded into its setup."""
    overrides = dict(normalize_overrides(gpu_overrides))
    if not overrides:
        return context
    setup = context.setup
    return replace(
        context, setup=replace(setup, gpu=replace(setup.gpu, **overrides))
    )


def run_case(
    scene_name: str,
    policy: str,
    context: ExperimentContext,
    vtq: Optional[VTQConfig] = None,
    gpu_overrides=None,
) -> Dict:
    """Run one case (or fetch it from cache) and return its metric dict.

    A corrupt, truncated or stale cache entry is logged, deleted and
    recomputed.  When the context carries a :class:`CaseBudget` the case
    runs under wall-clock and simulated-cycle watchdogs and raises
    :class:`BudgetExceeded` past either.  Concurrent callers (parallel
    sweep workers) computing the same key serialize on a per-case
    ``flock`` claim: exactly one simulates, the rest read its entry.

    ``gpu_overrides`` (a mapping or ``(field, value)`` pairs) applies
    :class:`~repro.gpusim.config.GPUConfig` deltas on top of the context
    for this point.  The overridden setup drives everything — cache
    key, scene/BVH (``l1_bytes`` sets the treelet budget) and the live
    render — so the result is the one a run whose context carried those
    values directly produces.
    """
    point = _point_context(context, gpu_overrides)
    key = _case_key(scene_name, policy, point.setup, vtq)
    case_label = f"{scene_name}:{policy}"
    start = time.perf_counter()
    if not point.use_disk_cache:
        metrics = _compute_case(scene_name, policy, point, vtq, case_label)
        _observe_case(scene_name, policy, "nocache", time.perf_counter() - start)
        return metrics
    cache_path = cache_dir() / f"{key}.json"
    metrics = _try_read_cache(cache_path, key, case_label)
    if metrics is not None:
        _observe_case(scene_name, policy, "hit", time.perf_counter() - start)
        return metrics
    with _case_claim(key):
        # Another worker may have written the entry while we waited.
        metrics = _try_read_cache(cache_path, key, case_label)
        if metrics is not None:
            _observe_case(scene_name, policy, "hit", time.perf_counter() - start)
            return metrics
        metrics = _compute_case(scene_name, policy, point, vtq, case_label)
        _trace_cache("COMPUTE", key)
        _write_cache_entry(cache_path, key, metrics)
        spec = faults.should_fire(faults.CACHE_CORRUPT, case_label)
        if spec is not None:
            faults.corrupt_file(
                cache_path,
                faults.rng(spec, case_label),
                mode=spec.payload.get("mode", "truncate"),
            )
    _observe_case(scene_name, policy, "compute", time.perf_counter() - start)
    return metrics


def _compute_case(
    scene_name: str,
    policy: str,
    context: ExperimentContext,
    vtq: Optional[VTQConfig],
    case_label: str,
) -> Dict:
    """Render one case live under its budget; returns metrics."""
    setup = context.setup
    try:
        spec = faults.should_fire(faults.CASE_FAIL, case_label)
        if spec is not None:
            raise SimulationError(
                spec.payload.get("message", f"injected failure for case {case_label}")
            )
        budget = context.case_budget()
        wall = budget.wall_seconds if budget else None
        cycles = budget.max_cycles if budget else None
        with wall_clock_watchdog(wall, describe=case_label):
            scene, bvh = scene_and_bvh(scene_name, setup)
            result = render_scene(
                scene, bvh, setup, policy=policy, vtq_config=vtq,
                cycle_budget=cycles, sanitize=context.sanitize,
            )
    except ReproError as exc:
        # Annotate so quarantining callers know which case blew up.
        exc.scene = scene_name
        exc.policy = policy
        raise
    metrics = extract_metrics(result, setup)
    metrics["scene"] = scene_name
    metrics["policy"] = policy
    return metrics


def run_case_quarantined(
    scene_name: str,
    policy: str,
    context: ExperimentContext,
    vtq: Optional[VTQConfig] = None,
    gpu_overrides=None,
) -> Tuple[Optional[Dict], Optional[CaseFailure]]:
    """Run a case, converting failures into a recorded :class:`CaseFailure`.

    Returns ``(metrics, None)`` on success, ``(None, failure)`` when the
    case raised — the sweep marks the cell and keeps going.
    """
    try:
        return run_case(scene_name, policy, context, vtq, gpu_overrides), None
    except ReproError as exc:
        partial = exc.partial if isinstance(exc, BudgetExceeded) else {}
        failure = record_failure(
            CaseFailure(
                scene=scene_name,
                policy=policy,
                error_type=type(exc).__name__,
                message=str(exc),
                partial=dict(partial),
            )
        )
        obs_registry().counter(
            "repro_case_quarantined_total",
            "Cases quarantined instead of completing, by error type",
            ("scene", "policy", "error"),
        ).labels(
            scene=scene_name, policy=policy, error=type(exc).__name__
        ).inc()
        logger.warning("quarantined %s/%s: %s", scene_name, policy, exc)
        return None, failure


def extract_metrics(result, setup: ScaledSetup) -> Dict:
    """Flatten a RenderResult into the JSON-serializable metric dict."""
    stats = result.stats
    energy = EnergyModel().compute(
        stats, setup.gpu.line_bytes, sm_cycles=sum(result.per_sm_cycles)
    )
    return {
        "cycles": result.cycles,
        "per_sm_cycles": result.per_sm_cycles,
        "rays_traced": stats.rays_traced,
        "rays_completed": stats.rays_completed,
        "warps": stats.warps_processed,
        "simt_efficiency": stats.simt_efficiency(),
        "l1_bvh_miss_rate": stats.miss_rate("l1", "bvh"),
        "l2_bvh_miss_rate": stats.miss_rate("l2", "bvh"),
        "node_visits": stats.node_visits,
        "leaf_visits": stats.leaf_visits,
        "triangle_tests": stats.triangle_tests,
        "mode_cycles": {m.value: stats.mode_cycles[m] for m in TraversalMode},
        "mode_tests": {m.value: stats.mode_tests[m] for m in TraversalMode},
        "mode_cycle_fractions": {
            m.value: f for m, f in stats.mode_cycle_fractions().items()
        },
        "mode_test_fractions": {
            m.value: f for m, f in stats.mode_test_fractions().items()
        },
        # Lists (not tuples) so the dict round-trips through JSON unchanged.
        "l1_timeline": [list(point) for point in stats.l1_bvh_timeline.series()],
        "energy": energy.as_dict(),
        "warp_repacks": stats.warp_repacks,
        "prefetch_lines": stats.prefetch_lines,
        "prefetch_unused_fraction": stats.prefetch_unused_fraction(),
        "cta_saves": stats.cta_saves,
        "cta_restores": stats.cta_restores,
        "queue_table_overflows": stats.queue_table_overflows,
        "count_table_evictions": stats.count_table_evictions,
        "queue_table_peak_entries": stats.queue_table_peak_entries,
        "count_table_peak_entries": stats.count_table_peak_entries,
        "traffic_bytes": dict(stats.traffic_bytes),
        "mean_radiance": result.mean_radiance(),
    }
