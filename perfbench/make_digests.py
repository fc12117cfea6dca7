#!/usr/bin/env python3
"""Regenerate ``perfbench/digests.json``: the expected output of every case.

Run from the root of a checkout::

    python3 perfbench/make_digests.py

Each case of the three workload pools runs once through ``run_case``
(result cache off, memtrace capture off, cache-axis points served by
memtrace replay as in ``warm_sweep``), and its digest is the SHA-256 of
``json.dumps(metrics, sort_keys=True)``.  The table is computed in two
child processes under different ``PYTHONHASHSEED`` values and written
only if both agree.  Regenerate it only when a change is *meant* to
alter simulated results.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import pools  # noqa: E402
from perfbench.common import (  # noqa: E402
    DIGESTS_PATH,
    add_src_to_path,
    digest,
    pinned_env,
    repo_root,
    source_digest,
)

HASH_SEEDS = ("0", "4242")


def compute() -> dict:
    """Digest of every case, in this process."""
    root = repo_root()
    add_src_to_path(root)
    from repro.experiments.runner import ExperimentContext, run_case
    from repro.gpusim.config import default_setup

    context = ExperimentContext(setup=default_setup(), scene_list=pools.SCENES,
                                use_disk_cache=False)
    out = {}
    for case in sorted(pools.all_cases(), key=lambda c: c.id):
        metrics = run_case(case.scene, case.policy, context,
                           pools.vtq_config(case.vtq, context),
                           pools.gpu_overrides(case, context))
        out[case.id] = digest(metrics)
    return out


def main() -> int:
    root = repo_root()
    tables = []
    for seed in HASH_SEEDS:
        with tempfile.TemporaryDirectory(dir=root / "perfbench") as cache:
            env = pinned_env(Path(cache), root)
            env["PYTHONHASHSEED"] = seed
            proc = subprocess.run(
                [sys.executable, __file__, "--compute"], env=env, cwd=root,
                capture_output=True, text=True, check=True,
            )
        tables.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    if tables[0] != tables[1]:
        diff = sorted(k for k in tables[0] if tables[0][k] != tables[1].get(k))
        print(f"digests differ between PYTHONHASHSEED values: {diff}", file=sys.stderr)
        return 1
    DIGESTS_PATH.write_text(json.dumps({
        "hash_seeds": list(HASH_SEEDS),
        "source_sha256": source_digest(root),
        "digests": tables[0],
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(tables[0])} digests to {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--compute"]:
        print(json.dumps(compute(), sort_keys=True))
        sys.exit(0)
    sys.exit(main())
