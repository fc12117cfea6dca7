#!/usr/bin/env python3
"""Benchmark harness: wall-clock performance of the reproduction itself.

Times a fixed sweep of fast-scene cases through these phases —

* ``bvh_build``      — cold scene + BVH construction per scene,
* ``kernel``         — render-plan intersection math, scalar loops vs
                       the vectorized batch kernels, at several batch sizes,
* ``plan_build``     — one cold ``build_plan`` per scene (the wave tracer
                       plus shading), best of ``--reps`` with min and max,
* ``policy_replay``  — per scene, with its plan built, one render per
                       policy (``baseline``, ``prefetch``, ``vtq`` and
                       ``vtq`` with Fig. 12's naive queues), best of
                       ``--reps`` with min and max, plus the
                       ``prefetch/baseline`` and ``vtq/baseline`` ratios,
* ``serial_sweep``   — the case list end-to-end in one process (plan
                       replay, render plans warm),
* ``parallel_sweep`` — the same list through the parallel executor
                       (``min(cpu_count, 4)`` workers by default) into a
                       fresh disk cache,
* ``surrogate_sweep`` — price a small cache x queue grid with the sweep
                       surrogate, then exhaustively, and report the
                       wall-clock ratio and the surrogate's true max
                       relative cycle error (docs/SURROGATE.md),
* ``gaussian_sweep``  — the splat workload (docs/GAUSSIAN.md): two
                       Gaussian scenes under all three policies, with
                       the per-scene VTQ speedup the policy table reports,

and writes ``BENCH_<date>.json`` with per-phase wall time, cases/sec and
speedups (batch kernels vs scalar loops, parallel vs serial).  Run from the repository root:

    PYTHONPATH=src python tools/bench.py --fast

Speedups on a single-core machine: the parallel phase degrades to ~1x
(workers time-slice one core) — the number to watch there is cases/sec
on multi-core CI runners.
"""

import argparse
import datetime
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.experiments import runner  # noqa: E402
from repro.experiments.parallel import CaseSpec, run_cases  # noqa: E402
from repro.experiments.runner import ExperimentContext, default_context  # noqa: E402
from repro.gpusim import soa  # noqa: E402
from repro.geometry.batch import (  # noqa: E402
    intersect_aabb_batch,
    intersect_tri_batch,
    safe_inverse,
)
from repro import settings  # noqa: E402


def _case_list(fast: bool):
    """The fixed sweep: every fast policy combination per scene."""
    scenes = ("BUNNY", "SPNZA") if fast else ("BUNNY", "SPNZA", "HAIR", "LANDS")
    from repro.core.config import VTQConfig

    specs = []
    for scene in scenes:
        specs.append(CaseSpec(scene, "baseline"))
        specs.append(CaseSpec(scene, "prefetch"))
        specs.append(CaseSpec(scene, "vtq"))
        specs.append(CaseSpec(scene, "vtq", VTQConfig().scaled_to(256)))
    return specs


def _nocache(context):
    return ExperimentContext(
        setup=context.setup, scene_list=context.scene_list,
        use_disk_cache=False, budget=context.budget, sanitize=context.sanitize,
    )


def bench_bvh_build(context, specs):
    """Cold scene + BVH construction, once per distinct scene."""
    scenes = list(dict.fromkeys(spec.scene for spec in specs))
    per_scene = {}
    for scene in scenes:
        runner._scene_cache.clear()
        start = time.perf_counter()
        runner.scene_and_bvh(scene, context.setup)
        per_scene[scene] = time.perf_counter() - start
    runner._scene_cache.clear()
    return {"per_scene_s": per_scene, "total_s": sum(per_scene.values())}


def _scalar_slab_loop(origins, invs, boxes, tmin, t_hit):
    hits = 0
    for i in range(len(boxes)):
        o = origins[i]
        inv = invs[i]
        b = boxes[i]
        t1 = (b[0] - o[0]) * inv[0]
        t2 = (b[3] - o[0]) * inv[0]
        if t1 > t2:
            t1, t2 = t2, t1
        near, far = t1, t2
        t1 = (b[1] - o[1]) * inv[1]
        t2 = (b[4] - o[1]) * inv[1]
        if t1 > t2:
            t1, t2 = t2, t1
        if t1 > near:
            near = t1
        if t2 < far:
            far = t2
        t1 = (b[2] - o[2]) * inv[2]
        t2 = (b[5] - o[2]) * inv[2]
        if t1 > t2:
            t1, t2 = t2, t1
        if t1 > near:
            near = t1
        if t2 < far:
            far = t2
        if near < tmin:
            near = tmin
        if far > t_hit:
            far = t_hit
        if near <= far:
            hits += 1
    return hits


def _scalar_mt_loop(origins, dirs, v0, e1, e2):
    hits = 0
    eps = 1e-12
    for i in range(len(v0)):
        o, d = origins[i], dirs[i]
        a, b, c = v0[i], e1[i], e2[i]
        px = d[1] * c[2] - d[2] * c[1]
        py = d[2] * c[0] - d[0] * c[2]
        pz = d[0] * c[1] - d[1] * c[0]
        det = b[0] * px + b[1] * py + b[2] * pz
        if -eps < det < eps:
            continue
        inv = 1.0 / det
        tx = o[0] - a[0]
        ty = o[1] - a[1]
        tz = o[2] - a[2]
        u = (tx * px + ty * py + tz * pz) * inv
        if u < 0.0 or u > 1.0:
            continue
        qx = ty * b[2] - tz * b[1]
        qy = tz * b[0] - tx * b[2]
        qz = tx * b[1] - ty * b[0]
        v = (d[0] * qx + d[1] * qy + d[2] * qz) * inv
        if v < 0.0 or u + v > 1.0:
            continue
        hits += 1
    return hits


def _best_of(fn, reps):
    best = None
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def bench_kernels(reps=5):
    """Scalar loops vs batch kernels on the render-plan intersection math.

    Sizes cover one warp popping 4-wide nodes (128 pairings) up to a
    node-table-sized gather: this is the speedup the SoA plan builder
    taps, isolated from the memory/timing model around it.
    """
    rng = np.random.default_rng(42)
    out = {}
    for m in (128, 1024, 8192):
        origins = rng.uniform(-5, 5, (m, 3))
        dirs = rng.normal(size=(m, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        invs = safe_inverse(dirs)
        lo = rng.uniform(-4, 3, (m, 3))
        boxes = np.concatenate([lo, lo + rng.uniform(0, 3, (m, 3))], axis=1)
        o_list = origins.tolist()
        inv_list = invs.tolist()
        box_list = boxes.tolist()
        scalar = _best_of(
            lambda: _scalar_slab_loop(o_list, inv_list, box_list, 1e-4, 1e30), reps
        )
        batch = _best_of(
            lambda: intersect_aabb_batch(origins, invs, boxes, 1e-4, 1e30), reps
        )
        out[f"aabb_{m}"] = {
            "scalar_s": scalar,
            "batch_s": batch,
            "speedup": scalar / batch if batch else 0.0,
        }

        v0 = rng.uniform(-3, 3, (m, 3))
        e1 = rng.normal(size=(m, 3))
        e2 = rng.normal(size=(m, 3))
        v0_l, e1_l, e2_l = v0.tolist(), e1.tolist(), e2.tolist()
        d_list = dirs.tolist()
        scalar = _best_of(
            lambda: _scalar_mt_loop(o_list, d_list, v0_l, e1_l, e2_l), reps
        )
        batch = _best_of(
            lambda: intersect_tri_batch(origins, dirs, v0, e1, e2), reps
        )
        out[f"tri_{m}"] = {
            "scalar_s": scalar,
            "batch_s": batch,
            "speedup": scalar / batch if batch else 0.0,
        }
    return out


def bench_plan_build(context, specs, reps):
    """One cold render-plan build per distinct scene, best of ``reps``.

    Scene and BVH come from the warm scene cache; the BVH's lazily built
    tracer tables are dropped before every rep, so each build pays what
    a fresh process pays after the BVH build.
    """
    scenes = list(dict.fromkeys(spec.scene for spec in specs))
    per_scene = {}
    for scene in scenes:
        mesh_scene, bvh = runner.scene_and_bvh(scene, context.setup)
        times = []
        for _ in range(reps):
            bvh.batch = None
            start = time.perf_counter()
            soa.build_plan(mesh_scene, bvh, context.setup)
            times.append(time.perf_counter() - start)
        per_scene[scene] = {"min_s": min(times), "max_s": max(times)}
    return {
        "per_scene": per_scene,
        "reps": reps,
        "total_s": sum(row["min_s"] for row in per_scene.values()),
    }


#: The replays ``policy_replay`` times: label -> (policy, naive queues?).
REPLAYS = {
    "baseline": ("baseline", False),
    "prefetch": ("prefetch", False),
    "vtq": ("vtq", False),
    "vtq_naive": ("vtq", True),
}


def bench_policy_replay(context, specs, reps):
    """Each policy's replay of a warm plan, per distinct scene.

    The plan is built (and every policy run once) before timing, so the
    reps measure the timing engines and memory pricing alone: the warm
    path a sweep over one scene's policies takes.  ``vtq`` uses the
    default queues, ``vtq_naive`` Fig. 12's naive ones.
    """
    from repro.experiments.figures import vtq_default
    from repro.tracing import render_scene

    naive = vtq_default(context).naive()
    scenes = list(dict.fromkeys(spec.scene for spec in specs))
    per_scene = {}
    for scene in scenes:
        mesh_scene, bvh = runner.scene_and_bvh(scene, context.setup)
        replay = {}
        for label, (policy, use_naive) in REPLAYS.items():
            vtq = naive if use_naive else None

            def run():
                render_scene(mesh_scene, bvh, context.setup, policy=policy,
                             vtq_config=vtq)

            run()  # builds the plan on the first policy; warms the rest
            times = []
            for _ in range(reps):
                start = time.perf_counter()
                run()
                times.append(time.perf_counter() - start)
            replay[label] = {"min_s": min(times), "max_s": max(times)}
        base = replay["baseline"]["min_s"]
        per_scene[scene] = {
            "replay": replay,
            "ratio": {
                "prefetch/baseline": replay["prefetch"]["min_s"] / base,
                "vtq/baseline": replay["vtq"]["min_s"] / base,
            },
        }
    return {"per_scene": per_scene, "reps": reps}


def bench_serial(context, specs, reps):
    """The sweep in-process, at the steady-state replay rate.

    The warm-up sweep builds the render plans, so best-of reps measures
    plan reuse, which is how sweeps amortize the plan cost in practice.
    """
    nocache = _nocache(context)

    def sweep():
        results = run_cases(specs, nocache, jobs=1, record_failures=False)
        assert all(m is not None for m, _ in results), "sweep case failed"

    sweep()  # warm the per-process scene cache (and the plan cache)
    elapsed = _best_of(sweep, reps)
    return {"wall_s": elapsed, "cases_per_s": len(specs) / elapsed}


def speedup_vs_serial(serial, parallel_wall_s, cpu_count):
    """The parallel sweep's speedup over the serial sweep.

    ``None`` on one CPU, where the workers only time-slice a core and the
    ratio would measure scheduler noise.
    """
    if cpu_count == 1:
        return None
    return serial["wall_s"] / parallel_wall_s


def profile_sweep(context, specs, top=20):
    """One sweep pass under cProfile; top-N cumulative hotspots."""
    import cProfile
    import pstats

    nocache = _nocache(context)
    profiler = cProfile.Profile()
    profiler.enable()
    results = run_cases(specs, nocache, jobs=1, record_failures=False)
    profiler.disable()
    assert all(m is not None for m, _ in results), "profiled sweep case failed"
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    rows = []
    for func in stats.fcn_list[:top]:
        cc, nc, tt, ct, _callers = stats.stats[func]
        filename, line, name = func
        rows.append({
            "function": f"{filename}:{line}({name})",
            "ncalls": nc,
            "tottime_s": round(tt, 6),
            "cumtime_s": round(ct, 6),
        })
    return {"sort": "cumulative", "top": rows}


def bench_parallel(context, specs, jobs):
    """The sweep through the process-pool executor into a fresh cache."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as scratch:
        os.environ["REPRO_CACHE_DIR"] = scratch
        try:
            start = time.perf_counter()
            results = run_cases(specs, context, jobs=jobs, record_failures=False)
            elapsed = time.perf_counter() - start
        finally:
            del os.environ["REPRO_CACHE_DIR"]
    assert all(m is not None for m, _ in results), "sweep case failed"
    return {
        "jobs": jobs,
        "wall_s": elapsed,
        "cases_per_s": len(specs) / elapsed,
    }


def bench_surrogate_sweep(context, seed=3):
    """The surrogate-priced pareto sweep vs pricing its grid exhaustively.

    Runs ``run_pareto`` on a small cache x queue grid, then prices every
    point of the same grid exactly through the same ``ExactRunner``
    machinery, and reports the wall-clock ratio plus the surrogate's
    true max relative cycle error against the exhaustive ground truth.
    Both passes share one fresh disk cache, so the sweep's exact points
    are warm for the exhaustive pass — the speedup is conservative.
    """
    from repro.experiments.figures import vtq_default
    from repro.surrogate import ExactLedger, ExactRunner, build_grid, run_pareto

    with tempfile.TemporaryDirectory(prefix="repro-bench-surrogate-") as scratch:
        os.environ["REPRO_CACHE_DIR"] = scratch
        try:
            start = time.perf_counter()
            result = run_pareto(
                "BUNNY", context, cache_count=8,
                queue_values=[float(v) for v in range(1, 64)],
                seed=seed, jobs=0,
            )
            sweep_s = time.perf_counter() - start
            payload = result.payload
            grid = payload["grid"]

            points = build_grid(
                grid["cache_axis"], grid["cache_values"],
                grid["queue_axis"], grid["queue_values"],
            )
            exhaustive = ExactRunner(
                "BUNNY", payload["policy"], context, vtq_default(context),
                ExactLedger(limit=None), jobs=0,
            )
            start = time.perf_counter()
            exact = exhaustive.run(points)
            exhaustive_s = time.perf_counter() - start
        finally:
            del os.environ["REPRO_CACHE_DIR"]

    # True error over every surrogate-priced point.  The max lands on
    # deep-dominated corners the acquisition deliberately starves of
    # exact runs (they can never reach the frontier); the contract's
    # bound applies to held-out and frontier errors, which the payload
    # reports separately.
    rel = [
        abs(row["cycles"] - exact[p]["cycles"]) / exact[p]["cycles"]
        for row, p in zip(payload["points"], points)
        if not row["exact"]
    ]
    return {
        "case": f"BUNNY/{payload['policy']}",
        "grid_points": grid["size"],
        "exact_runs": payload["exact_runs"]["total"],
        "exact_fraction": payload["exact_fraction"],
        "sweep_s": sweep_s,
        "exhaustive_s": exhaustive_s,
        "speedup_vs_exhaustive": exhaustive_s / sweep_s if sweep_s else 0.0,
        "max_rel_error": max(rel) if rel else 0.0,
        "mean_rel_error": sum(rel) / len(rel) if rel else 0.0,
        "frontier_rel_error": payload["surrogate_error"]
                                     ["frontier_verification"]["max"],
        "bound_met": payload["surrogate_error"]["bound_met"],
    }


def bench_gaussian_sweep(context, reps):
    """The splat workload end-to-end: two Gaussian scenes x three policies.

    Times the sweep and reports the per-scene policy cycles so CI can
    watch the VTQ margin on the non-triangle workload.
    """
    scenes = ("GSPL1", "GSPL2")
    policies = ("baseline", "prefetch", "vtq")
    specs = [CaseSpec(scene, policy) for scene in scenes for policy in policies]
    nocache = _nocache(context)

    def sweep():
        results = run_cases(specs, nocache, jobs=1, record_failures=False)
        assert all(m is not None for m, _ in results), "gaussian case failed"
        return [m for m, _ in results]

    metrics = sweep()  # warm scene cache; keep the cycles for the table
    out = {"scenes": list(scenes), "policy_cycles": {}, "vtq_speedup": {}}
    for spec, m in zip(specs, metrics):
        out["policy_cycles"].setdefault(spec.scene, {})[spec.policy] = m["cycles"]
    for scene, cycles in out["policy_cycles"].items():
        out["vtq_speedup"][scene] = (
            cycles["baseline"] / cycles["vtq"] if cycles["vtq"] else 0.0
        )
    elapsed = _best_of(sweep, reps)
    out["wall_s"] = elapsed
    out["cases_per_s"] = len(specs) / elapsed
    return out


def default_output_path(date_str, directory=Path(".")):
    """A non-clobbering default report path.

    ``BENCH_<date>.json`` if free, else ``BENCH_<date>.run2.json``,
    ``.run3.json``, ... — a second run on the same day never overwrites
    the first.
    """
    path = Path(directory) / f"BENCH_{date_str}.json"
    run = 2
    while path.exists():
        path = Path(directory) / f"BENCH_{date_str}.run{run}.json"
        run += 1
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="2 scenes / 8 cases (the CI smoke configuration)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel phase workers (default: REPRO_JOBS or "
                             "CPUs, clamped to 4 — beyond that the workers "
                             "fight over memory bandwidth, not compute)")
    parser.add_argument("--reps", type=int, default=2,
                        help="repetitions per timed phase (best-of)")
    parser.add_argument("--profile", action="store_true",
                        help="run one sweep pass under cProfile and embed "
                             "the top-20 cumulative hotspots in the report")
    parser.add_argument("-o", "--output", default=None,
                        help="output path (default: BENCH_<date>.json with a "
                             ".runN suffix if that exists; never clobbers)")
    parser.add_argument("--no-manifest", action="store_true",
                        help="skip the sibling <output>.manifest.json")
    args = parser.parse_args(argv)
    started = time.time()

    cpu_count = os.cpu_count() or 1
    jobs = args.jobs if args.jobs is not None else min(settings.get("REPRO_JOBS"), 4)
    context = default_context(fast=True)
    specs = _case_list(args.fast)

    print(f"bench: {len(specs)} cases, jobs={jobs}, reps={args.reps}")
    phases = {}
    phases["bvh_build"] = bench_bvh_build(context, specs)
    print(f"  bvh_build: {phases['bvh_build']['total_s']:.2f}s")
    phases["kernel"] = bench_kernels()
    for name, row in phases["kernel"].items():
        print(f"  kernel {name}: {row['speedup']:.1f}x batch over scalar")
    phases["plan_build"] = bench_plan_build(context, specs, args.reps)
    for scene, row in phases["plan_build"]["per_scene"].items():
        print(f"  plan_build {scene}: {row['min_s']:.3f}s "
              f"(max {row['max_s']:.3f}s of {args.reps})")
    phases["policy_replay"] = bench_policy_replay(context, specs, args.reps)
    for scene, row in phases["policy_replay"]["per_scene"].items():
        times = " ".join(
            f"{label} {t['min_s']:.3f}s" for label, t in row["replay"].items()
        )
        print(f"  policy_replay {scene}: {times}; prefetch/baseline "
              f"{row['ratio']['prefetch/baseline']:.2f}x, vtq/baseline "
              f"{row['ratio']['vtq/baseline']:.2f}x")
    phases["serial_sweep"] = bench_serial(context, specs, args.reps)
    serial = phases["serial_sweep"]
    print(f"  serial_sweep: {serial['wall_s']:.2f}s "
          f"({serial['cases_per_s']:.1f} cases/s)")
    phases["parallel_sweep"] = bench_parallel(context, specs, jobs)
    par = phases["parallel_sweep"]
    par["speedup_vs_serial"] = speedup_vs_serial(serial, par["wall_s"], cpu_count)
    if par["speedup_vs_serial"] is None:
        par["skipped_reason"] = "cpu_count == 1: workers time-slice one core"
        print(f"  parallel_sweep: {par['wall_s']:.2f}s with {jobs} jobs "
              "(speedup n/a on a single-cpu host)")
    else:
        print(f"  parallel_sweep: {par['wall_s']:.2f}s with {jobs} jobs "
              f"({par['speedup_vs_serial']:.2f}x vs serial)")
    phases["surrogate_sweep"] = bench_surrogate_sweep(context)
    surr = phases["surrogate_sweep"]
    print(f"  surrogate_sweep: {surr['grid_points']} grid points priced "
          f"with {surr['exact_runs']} exact runs in {surr['sweep_s']:.2f}s "
          f"({surr['speedup_vs_exhaustive']:.2f}x vs exhaustive; rel error "
          f"mean {surr['mean_rel_error']:.1%} / max {surr['max_rel_error']:.1%}, "
          f"frontier {surr['frontier_rel_error']:.1%})")
    phases["gaussian_sweep"] = bench_gaussian_sweep(context, args.reps)
    gauss = phases["gaussian_sweep"]
    speedups = " ".join(
        f"{scene} {s:.2f}x" for scene, s in gauss["vtq_speedup"].items()
    )
    print(f"  gaussian_sweep: {gauss['wall_s']:.2f}s; "
          f"VTQ over baseline: {speedups}")
    if args.profile:
        phases["profile"] = profile_sweep(context, specs)
        hottest = phases["profile"]["top"][:3]
        for row in hottest:
            print(f"  profile: {row['cumtime_s']:.2f}s cum  {row['function']}")

    report = {
        "date": datetime.date.today().isoformat(),
        "fast": args.fast,
        "cases": [spec.label() for spec in specs],
        "cpu_count": cpu_count,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "phases": phases,
    }
    output = args.output or default_output_path(report["date"])
    with open(output, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {output}")
    if not args.no_manifest:
        from repro.obs import write_manifest

        manifest = write_manifest(
            output=output,
            started=started,
            finished=time.time(),
            config={"fast": args.fast, "jobs": jobs, "reps": args.reps},
            outputs={"report": str(output)},
        )
        if manifest is not None:
            print(f"wrote run manifest {manifest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
