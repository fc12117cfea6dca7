#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, over distinct seeds.

Run from the root of a checkout::

    python3 perfbench/steadiness.py --workloads cold_case warm_sweep --seeds 10

Runs ``perfbench/run.py`` once per (workload, seed), serially, and writes
``perfbench/steadiness.json``: every value, each metric's median and its
spread, the quartile distance ``Q3 - Q1`` over the median, with
quartiles as ``statistics.quantiles(values, n=4)`` gives them.  Each
metric's bound in ``BENCHMARK.json`` is set from these spreads.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.common import BENCH_DIR, median, quartile_spread, repo_root  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--out", default=str(BENCH_DIR / "steadiness.json"))
    args = parser.parse_args(argv)
    root = repo_root()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out_path = Path(args.out)
    report = json.loads(out_path.read_text()) if out_path.is_file() else {}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=root, capture_output=True, text=True,
            )
            wall = time.perf_counter() - t0
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "wall_s": wall, "exit": proc.returncode,
                         "correct": line["correct"], "failed": line["failed"],
                         "metrics": {k: v["value"] for k, v in line["metrics"].items()}})
            print(f"{workload} seed {seed}: {wall:.1f} s {runs[-1]['metrics']}", flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            spread = quartile_spread(values)
            summary[name] = {"median": median(values), "spread": spread,
                             "bound": bounds.get(name),
                             "within_third_of_bound": spread < bounds.get(name, 0) / 3}
        report[workload] = {"runs": runs, "summary": summary,
                            "median_wall_s": median([r["wall_s"] for r in runs])}
        out_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        for name, s in summary.items():
            print(f"  {name:<14} median {s['median']:.6g}  spread {s['spread']:.4f}  "
                  f"bound {s['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
