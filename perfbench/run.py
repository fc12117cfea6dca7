#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold_case --seed 1 --seconds 25 --trace 0

Prints every metric by name with its unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
from a run with layer wrappers installed.  Every operation's output is
checked against ``perfbench/digests.json``; any mismatch or failure is
counted, named, and makes the exit code non-zero.  A result file with
the environment (nproc, versions, commit, settings) lands in
``perfbench/results/``; a traced run also writes its spans and a
self-time table there.
"""

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import report, spans  # noqa: E402
from perfbench.hostspeed import Sampler  # noqa: E402
from perfbench.common import (  # noqa: E402
    RESULTS_DIR,
    DigestCheck,
    add_src_to_path,
    environment,
    load_digests,
    pin_own_env,
    repo_root,
    write_result,
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold_case", "warm_sweep", "served_jobs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run(workload, root, seed, seconds, table, tracer, tag):
    """One run of ``workload`` with the host-speed sampler beside it."""
    from perfbench.workloads import WORKLOADS, end_to_end

    workdir = RESULTS_DIR / f"work-{workload}-{os.getpid()}-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        sampler = Sampler(workdir / "hostspeed.txt")
        try:
            result = WORKLOADS[workload](root, workdir, seed, seconds, DigestCheck(table), tracer)
        finally:
            speed = sampler.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.e2e = end_to_end(result, speed)
    result.extra["raw_seconds"] = end_to_end(result, None)
    result.extra["host_speed"] = speed.summary()
    result.extra["op_times"] = [(case, t1 - t0) for case, t0, t1 in result.ops]
    return result


def _past_results(workload):
    out = []
    for path in sorted(RESULTS_DIR.glob(f"{workload}-seed*-trace0-*.json")):
        try:
            out.append(json.loads(path.read_text()))
        except (OSError, ValueError):
            continue
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    root = repo_root()
    with open(root / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    table = load_digests()
    add_src_to_path(root)
    repro_env = pin_own_env(RESULTS_DIR / f"cache-{os.getpid()}", root)
    trace = bool(args.trace)
    tracer = spans.Tracer() if trace else None
    started = time.time()
    try:
        result = _run(args.workload, root, args.seed, args.seconds, table, tracer, "main")
        env = environment(root, repro_env)
        if trace:
            reference = report.untraced_reference(_past_results(args.workload),
                                                  env["source_sha256"])
            if reference is None:
                untraced = _run(args.workload, root, args.seed, args.seconds, table,
                                None, "reference")
                reference = untraced.e2e["ops_per_s"]
            result.layers = report.layer_metrics(
                tracer, result.sim, result.extra, reference, result.e2e["ops_per_s"])
    finally:
        shutil.rmtree(RESULTS_DIR / f"cache-{os.getpid()}", ignore_errors=True)

    declared = bench["per_layer"] if trace else bench["end_to_end"]
    values = result.layers if trace else result.e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    error_rate = result.failed / result.attempted

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{result.attempted} ops ({result.extra.get('passes', 1)} pass(es))")
    for name, entry in metrics.items():
        print(report.format_metric(name, entry["value"], entry["unit"]))
    print(report.format_metric("error_rate", error_rate, "ratio"))
    if "op_s.p90" in result.e2e:
        print(report.format_metric(
            f"op_s.p90 (n={len(result.ops)}, poll {result.extra['poll_interval_s']} s)",
            result.e2e["op_s.p90"], "s"))
    for case_id in result.wrong:
        print(f"WRONG OR FAILED: {case_id}")

    payload = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": trace, "started": started, "correct": result.failed == 0,
        "attempted": result.attempted, "failed": result.failed,
        "wrong": result.wrong,
        "metrics": {**result.e2e, "error_rate": error_rate},
        "layers": result.layers, "extra": result.extra, "sim": result.sim,
        "environment": env,
    }
    path = write_result(args.workload, args.seed, trace, payload)
    if trace:
        spans.write(tracer, path.with_name(path.stem + "-spans.json"))
        table_lines = report.self_time_table(args.workload, tracer)
        path.with_name(path.stem + "-layers.txt").write_text("\n".join(table_lines) + "\n")
        print("\n".join(table_lines))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
