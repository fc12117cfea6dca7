"""Command line interface: ``python -m repro <command>``.

Commands:

* ``scenes``  — list the synthetic LumiBench suite.
* ``render``  — path trace one scene under a chosen policy, write a PPM.
* ``compare`` — render one scene under all policies and print the table.
* ``figure``  — regenerate one paper figure/table by name.
* ``report``  — regenerate every figure (what EXPERIMENTS.md is built from).
* ``serve``   — run the simulation-serving daemon (see docs/SERVICE.md).
* ``submit``  — submit one case (or a whole figure's cases) to the server.
* ``jobs``    — list the server's job records.
* ``cancel``  — cancel a queued job.
* ``stats``   — render a metrics snapshot: the live server's registry, or
  the run manifest of a finished run (see docs/OBSERVABILITY.md).
* ``trace``   — record / replay / inspect memory traces (docs/MEMTRACE.md).
* ``pareto``  — surrogate-price a cache x queue grid and emit a verified
  speedup-vs-cost Pareto frontier (JSON + SVG; docs/SURROGATE.md).
* ``chaos``   — run a seeded chaos schedule (worker kills/hangs, disk
  full, slow I/O) against a real sweep and assert the resilience
  invariants (docs/ROBUSTNESS.md).

Two distinct trace artifacts exist: ``--trace-out`` (on ``figure`` /
``report``) writes a **chrome activity timeline** for human viewing,
while ``--record-trace`` (on ``render``) and ``trace record`` write a
**memory trace** that ``trace replay`` can re-price through a different
cache hierarchy.  ``trace info`` tells you which kind a file is.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import settings
from repro.bvh import build_scene_bvh
from repro.errors import ConfigError
from repro.gpusim.config import default_setup
from repro.scenes import load_scene, scene_names, scene_spec
from repro.tracing import render_scene
from repro.tracing.image import tonemap, write_ppm

_FIGURES = {}


def _figures():
    """Figure registry, imported lazily to keep `scenes` snappy."""
    global _FIGURES
    if not _FIGURES:
        from repro.experiments.figures import figure_registry

        _FIGURES = figure_registry()
    return _FIGURES


def _warm(names, context, jobs) -> None:
    """Precompute the figures' cases in parallel before the serial replay."""
    from repro.experiments.parallel import cases_for_figures, warm_cases

    if jobs is None:
        jobs = settings.get("REPRO_JOBS")
    if jobs > 1:
        warm_cases(cases_for_figures(names, context), context, jobs=jobs)


def cmd_scenes(args) -> int:
    print(f"{'scene':6s} {'paper BVH MB':>12s} {'paper tris':>11s} "
          f"{'tris @ scale 1':>14s}")
    for name in scene_names(include_extra=args.all):
        spec = scene_spec(name)
        print(f"{name:6s} {spec.paper_bvh_mb:12.2f} {spec.paper_tris / 1e6:10.2f}M "
              f"{spec.target_triangles(1.0):14d}")
    return 0


def cmd_render(args) -> int:
    setup = default_setup()
    scene = load_scene(args.scene, scale=setup.scene_scale)
    bvh = build_scene_bvh(scene.mesh, treelet_budget_bytes=setup.gpu.treelet_bytes)
    if args.record_trace:
        from repro.errors import TraceError
        from repro.memtrace import RECORDABLE_POLICIES, save_trace
        from repro.memtrace.store import record_trace

        if args.policy not in RECORDABLE_POLICIES:
            print(f"--record-trace supports policies "
                  f"{', '.join(RECORDABLE_POLICIES)}; not {args.policy!r}",
                  file=sys.stderr)
            return 2
        try:
            trace, result = record_trace(
                scene, bvh, setup, args.policy, scene_name=args.scene,
                sanitize=True if args.sanitize else None,
            )
            nbytes = save_trace(trace, args.record_trace)
        except TraceError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        print(f"recorded memory trace {args.record_trace} "
              f"({nbytes:,d} bytes, {trace.num_warps()} warps, "
              f"{trace.num_tokens()} tokens)")
    else:
        result = render_scene(scene, bvh, setup, policy=args.policy,
                              sanitize=True if args.sanitize else None)
    print(f"{args.policy}: {result.cycles:,.0f} cycles, "
          f"SIMT {result.stats.simt_efficiency():.2f}, "
          f"L1 miss {result.stats.miss_rate('l1'):.2f}")
    out = args.output or f"{args.scene.lower()}_{args.policy}.ppm"
    write_ppm(out, tonemap(result.image))
    print(f"wrote {out}")
    return 0


def cmd_compare(args) -> int:
    setup = default_setup()
    scene = load_scene(args.scene, scale=setup.scene_scale)
    bvh = build_scene_bvh(scene.mesh, treelet_budget_bytes=setup.gpu.treelet_bytes)
    baseline = None
    print(f"{'policy':9s} {'cycles':>14s} {'speedup':>8s} {'SIMT':>6s} {'L1 miss':>8s}")
    for policy in ("baseline", "prefetch", "vtq"):
        result = render_scene(scene, bvh, setup, policy=policy)
        if baseline is None:
            baseline = result.cycles
        print(f"{policy:9s} {result.cycles:14,.0f} {baseline / result.cycles:7.2f}x "
              f"{result.stats.simt_efficiency():6.2f} "
              f"{result.stats.miss_rate('l1'):8.2f}")
    return 0


def _finish_run(strict: bool) -> int:
    """Print the quarantine summary; exit 3 under ``--strict`` if any."""
    from repro.experiments import failures, format_failures

    recorded = failures()
    if recorded:
        print("\n" + format_failures(recorded), file=sys.stderr)
        if strict:
            return 3
    return 0


def _write_trace(trace_out: str, names, context) -> None:
    """Chrome-trace one representative case of the named figures.

    Figures replay their cases as cache hits, so span recording needs a
    dedicated re-render; a VTQ case is preferred (its three-phase
    structure is what the timeline was built to show).  Purely
    observational: cached figure results are untouched.
    """
    from repro.experiments.parallel import cases_for_figures
    from repro.experiments.runner import scene_and_bvh
    from repro.gpusim.timeline import merge_timelines, write_chrome_trace
    from repro.tracing import render_scene as render

    cases = cases_for_figures(names, context)
    spec = next((c for c in cases if c.policy == "vtq"), None)
    if spec is None:
        spec = cases[0] if cases else None
    if spec is None:
        print("no simulator cases in this figure; nothing to trace",
              file=sys.stderr)
        return
    scene, bvh = scene_and_bvh(spec.scene, context.setup)
    result = render(
        scene, bvh, context.setup, policy=spec.policy, vtq_config=spec.vtq,
        record_timeline=True,
    )
    spans = merge_timelines(result.timelines)
    write_chrome_trace(spans, trace_out)
    print(f"wrote {trace_out} ({len(spans)} spans, {spec.scene}/{spec.policy}; "
          "open in chrome://tracing or Perfetto)")


def _write_run_manifest(manifest_path, started, config, **extra) -> None:
    """Write a run manifest (config + git rev + timings + metrics)."""
    import time

    from repro.experiments import failures
    from repro.obs import write_manifest

    path = write_manifest(
        path=manifest_path,
        started=started,
        finished=time.time(),
        config=config,
        failures=len(failures()),
        **extra,
    )
    if path is not None:
        print(f"wrote run manifest {path}")


def cmd_figure(args) -> int:
    import time

    from repro.experiments import clear_failures, default_context, format_table

    figures = _figures()
    if args.name not in figures:
        print(f"unknown figure {args.name!r}; choose from: "
              + ", ".join(sorted(figures)), file=sys.stderr)
        return 2
    clear_failures()
    started = time.time()
    context = default_context(fast=args.fast)
    _warm([args.name], context, args.jobs)
    print(format_table(figures[args.name](context)))
    if args.trace_out:
        _write_trace(args.trace_out, [args.name], context)
    status = _finish_run(args.strict)
    if args.manifest:
        _write_run_manifest(
            args.manifest, started,
            {"figure": args.name, "fast": args.fast, "jobs": args.jobs},
        )
    return status


def cmd_report(args) -> int:
    import time

    from repro.experiments import clear_failures, default_context, format_table

    clear_failures()
    started = time.time()
    context = default_context(fast=args.fast)
    figures = _figures()
    _warm(list(figures), context, args.jobs)
    for name, fig in figures.items():
        print(format_table(fig(context)))
        print("\n" + "=" * 72 + "\n")
    if args.trace_out:
        _write_trace(args.trace_out, list(figures), context)
    status = _finish_run(args.strict)
    if args.manifest:
        _write_run_manifest(
            args.manifest, started,
            {"figures": sorted(figures), "fast": args.fast, "jobs": args.jobs},
        )
    return status


def cmd_export(args) -> int:
    """Write one figure's table to CSV/JSON/text, suffix picks the format.

    A run manifest (``<output>.manifest.json``) always rides along so a
    figure artifact carries its own provenance; ``--no-manifest`` opts
    out.
    """
    import time

    from repro.experiments import default_context
    from repro.experiments.report import export

    figures = _figures()
    if args.name not in figures:
        print(f"unknown figure {args.name!r}; choose from: "
              + ", ".join(sorted(figures)), file=sys.stderr)
        return 2
    started = time.time()
    context = default_context(fast=args.fast)
    export(figures[args.name](context), args.output)
    print(f"wrote {args.output}")
    if not args.no_manifest:
        from repro.obs import manifest_path_for

        _write_run_manifest(
            manifest_path_for(args.output), started,
            {"figure": args.name, "fast": args.fast, "output": args.output},
        )
    return 0


def cmd_stats(args) -> int:
    """Render a metrics snapshot: live server, or a finished run's manifest."""
    import json

    from repro.errors import ReproError
    from repro.obs import MetricsRegistry, read_manifest, render_snapshot_text

    header = None
    if args.source:
        try:
            data = read_manifest(args.source)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read {args.source}: {exc}", file=sys.stderr)
            return 2
        if "metrics" in data:  # a run manifest wrapping a snapshot
            snap = data["metrics"]
            wall = data.get("wall_seconds")
            header = (
                f"run manifest: {data.get('command', '?')}\n"
                f"git {data.get('git_revision') or 'unknown'}"
                + (f"  wall {wall:.2f}s" if wall is not None else "")
                + f"  quarantined {data.get('quarantined_cases', 0)}"
            )
        else:  # a bare registry snapshot
            snap = data
    else:
        try:
            snap = _service_client(args).metrics(format="json")
        except ReproError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if args.format == "json":
        print(json.dumps(snap, indent=2, sort_keys=True))
    elif args.format == "prom":
        registry = MetricsRegistry()
        registry.merge_snapshot(snap)
        print(registry.render_prometheus(), end="")
    else:
        if header:
            print(header + "\n")
        print(render_snapshot_text(snap))
    return 0


def cmd_sweep(args) -> int:
    """Sweep one VTQConfig or GPUConfig field on one scene."""
    from repro.experiments import default_context, format_table
    from repro.experiments.sweeps import sweep_gpu_param, sweep_vtq_param

    context = default_context(fast=args.fast)
    values = []
    for token in args.values.split(","):
        token = token.strip()
        values.append(float(token) if "." in token else int(token))
    try:
        if args.target == "vtq":
            table = sweep_vtq_param(args.scene, context, args.param, values)
        else:
            table = sweep_gpu_param(args.scene, context, args.param, values)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(format_table(table))
    return 0


# -- memory-trace verbs (docs/MEMTRACE.md) ------------------------------------


def _parse_overrides(tokens) -> List:
    """``--set field=value`` pairs → [(field, value), ...]; numbers typed."""
    pairs = []
    for token in tokens or []:
        field, sep, raw = token.partition("=")
        if not sep or not field:
            raise ValueError(f"--set wants field=value, got {token!r}")
        raw = raw.strip()
        try:
            value = float(raw) if "." in raw or "e" in raw.lower() else int(raw)
        except ValueError:
            raise ValueError(f"--set {field}: {raw!r} is not a number")
        pairs.append((field, value))
    return pairs


def cmd_trace_record(args) -> int:
    """Record one case's memory trace to a file (live run with capture on)."""
    from repro.experiments import default_context
    from repro.experiments.runner import scene_and_bvh
    from repro.memtrace import save_trace
    from repro.memtrace.store import record_trace

    context = default_context(fast=args.fast)
    scene_name = args.scene.upper()
    scene, bvh = scene_and_bvh(scene_name, context.setup)
    budget = context.case_budget()
    trace, result = record_trace(
        scene, bvh, context.setup, args.policy,
        scene_name=scene_name,
        allow_partial=args.allow_partial,
        cycle_budget=budget.max_cycles if budget else None,
        sanitize=context.sanitize,
    )
    out = args.output or f"{scene_name.lower()}_{args.policy}.memtrace"
    nbytes = save_trace(trace, out)
    partial = " (partial — replay will refuse it)" if trace.partial else ""
    print(f"recorded {out}: {nbytes:,d} bytes, {trace.num_warps()} warps, "
          f"{trace.num_tokens()} tokens, {result.cycles:,.0f} cycles{partial}")
    return 0


def cmd_trace_replay(args) -> int:
    """Replay a memory trace, optionally at a changed memory hierarchy."""
    from repro.memtrace import load_trace, replay_trace

    overrides = _parse_overrides(args.set)
    trace = load_trace(args.path)
    result = replay_trace(trace, tuple(overrides) or None)
    changed = (" with " + ", ".join(f"{k}={v}" for k, v in overrides)
               if overrides else " at the recorded config")
    print(f"replayed {trace.scene}/{trace.policy}{changed}")
    print(f"{result.policy}: {result.cycles:,.0f} cycles, "
          f"SIMT {result.stats.simt_efficiency():.2f}, "
          f"L1 miss {result.stats.miss_rate('l1'):.2f}")
    record_wall = trace.meta.get("record_wall_s") or 0.0
    if result.replay_wall_s > 0.0 and record_wall > 0.0:
        print(f"replay {result.replay_wall_s:.3f}s vs recorded live run "
              f"{record_wall:.3f}s "
              f"({record_wall / result.replay_wall_s:.1f}x)")
    return 0


def cmd_trace_info(args) -> int:
    """Say which kind of trace a file is and summarize its contents."""
    import json

    from repro.memtrace import trace_file_info

    info = trace_file_info(args.path)
    if args.format == "json":
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0 if "error" not in info else 2
    kind = info["kind"]
    if kind == "memory-trace":
        print(f"{info['path']}: memory trace (replayable via `repro trace "
              f"replay`), {info['bytes']:,d} bytes")
        if "error" in info:
            print(f"  DEFECTIVE: {info['error']}", file=sys.stderr)
            return 2
        print(f"  scene {info['scene']}  policy {info['policy']}  "
              f"version {info['version']}  SMs {info['num_sms']}")
        print(f"  {info['warps']} warps, {info['tokens']} tokens, "
              f"{info['cycles']:,.0f} cycles"
              + ("  [partial]" if info["partial"] else ""))
        if info.get("record_wall_s"):
            print(f"  recorded in {info['record_wall_s']:.3f}s")
    elif kind == "chrome-timeline":
        print(f"{info['path']}: chrome activity timeline "
              f"({info['events']} events, {info['bytes']:,d} bytes; "
              "open in chrome://tracing or Perfetto — written by "
              "--trace-out, not replayable)")
    else:
        print(f"{info['path']}: not a trace this repo writes "
              f"({info['bytes']:,d} bytes)")
        return 2
    return 0


def cmd_trace(args) -> int:
    from repro.errors import TraceError

    try:
        return args.trace_func(args)
    except (TraceError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


# -- simulation service verbs (docs/SERVICE.md) -------------------------------


def cmd_serve(args) -> int:
    """Run the simulation-serving daemon until interrupted or drained."""
    import asyncio

    from repro.service.protocol import resolve_endpoint
    from repro.service.server import SimulationServer

    server = SimulationServer(
        endpoint=resolve_endpoint(args.socket),
        spool=args.spool,
        jobs=args.jobs,
        queue_max=args.queue_max,
        tenant_max=args.tenant_max,
        fast=args.fast,
        node_id=args.node_id,
        join=args.join,
    )

    async def _serve():
        await server.start()
        role = (f"worker {server.node_id} joined to {server.join}"
                if server.join else "head")
        print(f"serving on {server.endpoint} with {server.jobs} worker(s) "
              f"({role}); spool {server.spool}")
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("interrupted; server stopped", file=sys.stderr)
    return 0


def cmd_pareto(args) -> int:
    """Surrogate-price a cache x queue grid; emit the verified frontier."""
    import time

    from repro.errors import ReproError
    from repro.experiments import clear_failures, default_context
    from repro.surrogate import render_pareto_svg, run_pareto

    clear_failures()
    started = time.time()
    context = default_context(fast=args.fast)
    kwargs = dict(
        policy=args.policy,
        baseline_policy=args.baseline,
        cache_axis=args.cache_axis,
        queue_axis=args.queue_axis,
        cache_values=args.cache_values,
        queue_values=args.queue_values,
        cache_count=args.cache_count,
        queue_count=args.queue_count,
        error_bound=args.bound,
        exact_budget=args.exact_budget,
        frontier_epsilon=args.epsilon,
        seed=args.seed,
        jobs=args.jobs,
    )
    if args.exact_fraction is not None:
        kwargs["exact_fraction"] = args.exact_fraction
    try:
        result = run_pareto(args.scene, context, **kwargs)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    payload = result.payload
    out = args.output or f"{args.scene.lower()}_pareto.json"
    result.write(out)
    svg = args.svg
    if svg is None:
        svg = (out[:-len(".json")] if out.endswith(".json") else out) + ".svg"
    with open(svg, "w") as handle:
        handle.write(render_pareto_svg(result))

    err = payload["surrogate_error"]
    exact = payload["exact_runs"]
    print(f"{payload['scene']}/{payload['policy']}: priced "
          f"{payload['grid']['size']} grid points with {exact['total']} "
          f"exact runs ({payload['exact_fraction']:.1%})")
    heldout = err["policy_final_heldout"].get("cycles", 0.0)
    print(f"held-out cycle error {heldout:.1%}, frontier verification max "
          f"{err['frontier_verification']['max']:.1%} "
          f"(bound {err['bound']:.0%} "
          + ("met)" if err["bound_met"] else "NOT met)"))
    print(f"{'cache':>12s} {'queue':>7s} {'cycles':>14s} "
          f"{'speedup':>8s} {'vs ref':>7s}")
    for row in payload["frontier"]:
        print(f"{row['cache']:12,.0f} {row['queue']:7g} "
              f"{row['cycles']:14,.0f} {row['speedup']:7.2f}x "
              f"{row['speedup_vs_ref']:6.2f}x")
    print(f"wrote {out} and {svg}")
    if args.manifest:
        _write_run_manifest(
            args.manifest, started,
            {
                "scene": args.scene,
                "policy": args.policy,
                "baseline_policy": args.baseline,
                "cache_axis": args.cache_axis,
                "queue_axis": args.queue_axis,
                "error_bound": args.bound,
                "frontier_epsilon": args.epsilon,
                "seed": args.seed,
                "fast": args.fast,
            },
            outputs={"json": out, "svg": svg},
            surrogate_error=err,
        )
    if args.strict and not err["bound_met"]:
        return 3
    return 0


def _service_client(args):
    from repro.service.client import ServiceClient

    return ServiceClient(endpoint=args.socket)


def cmd_submit(args) -> int:
    """Submit one case — or a figure's whole case list — to the server."""
    from repro.errors import ReproError
    from repro.service.jobs import FAILED

    client = _service_client(args)
    try:
        if args.figure:
            from repro.experiments import default_context
            from repro.experiments.parallel import cases_for_figure

            if args.figure not in _figures():
                print(f"unknown figure {args.figure!r}; choose from: "
                      + ", ".join(sorted(_figures())), file=sys.stderr)
                return 2
            specs = cases_for_figure(
                args.figure, default_context(fast=args.fast)
            )
        else:
            if not args.scene:
                print("submit needs a SCENE or --figure NAME", file=sys.stderr)
                return 2
            from repro.experiments.parallel import CaseSpec
            from repro.experiments.runner import normalize_overrides

            overrides = normalize_overrides(_parse_overrides(args.set)) or None
            specs = [CaseSpec(args.scene.upper(), args.policy,
                              gpu_overrides=overrides)]
        params = None
        if args.params is not None:
            if not args.pareto:
                print("--params needs --pareto", file=sys.stderr)
                return 2
            import json as json_mod

            params = json_mod.loads(args.params)
        kind = "pareto" if args.pareto else "case"
        job_ids = []
        if args.batch:
            # One round trip for the whole list; admission is per item.
            from dataclasses import asdict as dc_asdict

            items = []
            for spec in specs:
                items.append({
                    "scene": spec.scene,
                    "policy": spec.policy,
                    "vtq": dc_asdict(spec.vtq) if spec.vtq is not None else None,
                    "gpu_overrides": (
                        [list(pair) for pair in spec.gpu_overrides]
                        if spec.gpu_overrides else None
                    ),
                    "params": params,
                })
            outcomes = client.submit_batch(
                items,
                client_id=args.client,
                tenant=args.tenant,
                priority=args.priority,
                deadline_s=args.deadline,
                kind=kind,
            )
            rejected = 0
            for spec, outcome in zip(specs, outcomes):
                if outcome.get("ok"):
                    job_ids.append(str(outcome["job_id"]))
                    dedup = "  (deduped)" if outcome.get("deduped") else ""
                    print(f"submitted {outcome['job_id']}  "
                          f"{spec.label()}{dedup}")
                else:
                    rejected += 1
                    print(f"rejected  {spec.label()}: "
                          f"{outcome.get('reason')}: {outcome.get('error')}",
                          file=sys.stderr)
            if rejected and not args.wait:
                return 1
        else:
            for spec in specs:
                kwargs = dict(
                    priority=args.priority,
                    deadline_s=args.deadline,
                    client_id=args.client,
                    kind=kind,
                    params=params,
                    tenant=args.tenant,
                )
                if args.admit_wait > 0:
                    # Wait out retryable rejections (queue-full/quota/
                    # circuit-open), honoring the server's retry_after_s
                    # hint.
                    job_id = client.submit_admitted(
                        spec, max_wait_s=args.admit_wait, **kwargs
                    )
                else:
                    job_id = client.submit_spec(spec, **kwargs)
                job_ids.append(job_id)
                print(f"submitted {job_id}  {spec.label()}")
        if args.wait:
            records = client.wait(job_ids, timeout=args.timeout)
            failed = [r for r in records if r["state"] != "done"]
            for record in records:
                state = record["state"]
                tail = ""
                if state == FAILED and record.get("error"):
                    tail = f"  [{record['error']['type']}]"
                elif state == "done":
                    cycles = (record.get("result") or {}).get("cycles")
                    if cycles is not None:
                        tail = f"  {cycles:,.0f} cycles"
                print(f"{record['job_id']}  {state}{tail}")
            return 1 if failed else 0
    except (ReproError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def cmd_jobs(args) -> int:
    """Show server health and the job listing (optionally one record)."""
    from repro.errors import ReproError

    client = _service_client(args)
    try:
        health = client.health()
        counts = " ".join(
            f"{state}={count}"
            for state, count in sorted(health["states"].items()) if count
        )
        print(f"queue depth {health['queue_depth']}, "
              f"running {health['running']}, "
              f"cache hit rate {health['cache']['hit_rate']:.2f}"
              + (f" ({counts})" if counts else " (no jobs)"))
        if args.job_id:
            record = client.result(args.job_id)
            print(f"\n{record['job_id']}: {record['state']}")
            for key in ("client_id", "priority", "deadline_s", "attempts",
                        "dispatch_index", "error"):
                if record.get(key) not in (None, 0):
                    print(f"  {key}: {record[key]}")
            if record.get("result"):
                cycles = record["result"].get("cycles")
                if cycles is not None:
                    print(f"  cycles: {cycles:,.0f}")
                elif record["result"].get("frontier") is not None:
                    # A pareto job's result is the whole sweep payload.
                    front = record["result"]["frontier"]
                    err = record["result"].get("surrogate_error", {})
                    print(f"  frontier: {len(front)} points, bound_met="
                          f"{err.get('bound_met')}")
            return 0
        summaries = client.jobs(state=args.state)
        if summaries:
            print(f"\n{'job':12s} {'state':10s} {'kind':6s} {'case':18s} "
                  f"{'client':10s} {'prio':>4s} {'try':>3s} {'order':>5s}")
            for row in summaries:
                order = row["dispatch_index"]
                print(f"{row['job_id']:12s} {row['state']:10s} "
                      f"{row.get('kind', 'case'):6s} "
                      f"{row['scene'] + '/' + row['policy']:18s} "
                      f"{row['client_id']:10s} {row['priority']:4d} "
                      f"{row['attempts']:3d} {'-' if order is None else order:>5} "
                      + (f" [{row['error']}]" if row["error"] else ""))
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def cmd_fleet(args) -> int:
    """Show the head server's worker-node registry and routing."""
    from repro.errors import ReproError

    client = _service_client(args)
    try:
        response = client.request({"op": "nodes"})
        nodes = response["nodes"]
        mode = "fleet" if response.get("fleet_mode") else "local"
        print(f"{len(nodes)} node(s) registered ({mode} execution), "
              f"shard hit rate {response.get('shard_hit_rate', 1.0):.2f}")
        if nodes:
            print(f"\n{'node':16s} {'endpoint':22s} {'live':5s} "
                  f"{'slots':>5s} {'sent':>6s} {'fail':>5s} {'age':>6s}")
            for node in nodes:
                print(f"{node['node_id']:16s} {node['endpoint']:22s} "
                      f"{'yes' if node['live'] else 'NO':5s} "
                      f"{node['slots']:5d} {node['dispatched']:6d} "
                      f"{node['failures']:5d} {node['age_s']:5.1f}s")
        if args.route:
            routed = client.route(args.route.upper())
            print(f"\n{routed['scene']} -> {routed['node_id']} "
                  f"({routed['endpoint']})")
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def cmd_cancel(args) -> int:
    from repro.errors import ReproError

    client = _service_client(args)
    try:
        response = client.cancel(args.job_id)
        print(f"{args.job_id}: {response['state']}")
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def cmd_chaos(args) -> int:
    """Run the deterministic chaos harness against a real sweep."""
    import json as json_mod

    from repro.errors import ReproError
    from repro.experiments import default_context
    from repro.experiments.parallel import CaseSpec, cases_for_figure
    from repro.resilience import run_chaos_sweep

    context = default_context(fast=args.fast)
    try:
        if args.figure:
            if args.figure not in _figures():
                print(f"unknown figure {args.figure!r}; choose from: "
                      + ", ".join(sorted(_figures())), file=sys.stderr)
                return 2
            specs = cases_for_figure(args.figure, context)
        else:
            specs = [
                CaseSpec(scene, policy)
                for scene in context.scenes()
                for policy in ("baseline", "prefetch")
            ]
        report = run_chaos_sweep(
            specs,
            context,
            seed=args.seed,
            jobs=args.jobs,
            hang_timeout_s=args.hang_timeout,
        )
    except (ReproError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        print(json_mod.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
        for line in report.schedule:
            print(f"  scheduled: {line}")
        for site, key in report.fired:
            print(f"  fired: {site} [{key}]")
        for problem in report.untyped_failures + report.mismatched:
            print(f"  INVARIANT VIOLATION: {problem}")
    return 0 if report.ok else 1


def _jobs_arg(value: str) -> int:
    """``--jobs`` values: any non-negative int; 0 = serial, no pool."""
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--jobs must be an integer, got {value!r}")
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"--jobs must be >= 0 (0 = serial, no pool), got {jobs}"
        )
    return jobs


def _values_arg(text: str) -> List[float]:
    """Comma-separated positive floats (``--cache-values``/``--queue-values``)."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        )
    if not values or any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError(
            f"expected a non-empty list of positive numbers, got {text!r}"
        )
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Treelet Accelerated Ray Tracing on GPUs'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenes", help="list the evaluation scenes")
    p.add_argument("--all", action="store_true", help="include WKND/SHIP")
    p.set_defaults(func=cmd_scenes)

    p = sub.add_parser("render", help="render one scene")
    p.add_argument("scene",
                   choices=scene_names(include_extra=True, include_gaussian=True))
    p.add_argument("--policy", default="vtq",
                   choices=("baseline", "prefetch", "vtq"))
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--sanitize", action="store_true",
                   help="run the simulation-state sanitizer on the result")
    p.add_argument("--record-trace", default=None, metavar="PATH",
                   help="also record the run's memory trace to PATH "
                        "(replayable with `repro trace replay`; distinct "
                        "from --trace-out's chrome timeline)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("compare", help="render one scene under every policy")
    p.add_argument("scene",
                   choices=scene_names(include_extra=True, include_gaussian=True))
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("figure", help="regenerate one paper figure")
    p.add_argument("name")
    p.add_argument("--fast", action="store_true")
    p.add_argument("--strict", action="store_true",
                   help="exit with status 3 if any case was quarantined")
    p.add_argument("--jobs", type=_jobs_arg, default=None,
                   help="parallel sweep workers (default: REPRO_JOBS or CPU "
                        "count; 0 = serial, no pool)")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="also write a chrome activity timeline of one "
                        "representative case to PATH (for chrome://tracing; "
                        "not a replayable memory trace — see `repro trace`)")
    p.add_argument("--manifest", default=None, metavar="PATH",
                   help="also write a run manifest (config + git rev + "
                        "timings + metrics) to PATH")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("report", help="regenerate every figure")
    p.add_argument("--fast", action="store_true")
    p.add_argument("--strict", action="store_true",
                   help="exit with status 3 if any case was quarantined")
    p.add_argument("--jobs", type=_jobs_arg, default=None,
                   help="parallel sweep workers (default: REPRO_JOBS or CPU "
                        "count; 0 = serial, no pool)")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="also write a chrome activity timeline of one "
                        "representative case to PATH (for chrome://tracing; "
                        "not a replayable memory trace — see `repro trace`)")
    p.add_argument("--manifest", default=None, metavar="PATH",
                   help="also write a run manifest (config + git rev + "
                        "timings + metrics) to PATH")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("export", help="write one figure to CSV/JSON/text")
    p.add_argument("name")
    p.add_argument("output", help="path; .csv / .json / anything-else=text")
    p.add_argument("--fast", action="store_true")
    p.add_argument("--no-manifest", action="store_true",
                   help="skip the sibling <output>.manifest.json")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("sweep", help="sweep a design parameter on one scene")
    p.add_argument("target", choices=("vtq", "gpu"))
    p.add_argument("param", help="e.g. queue_threshold or l1_bytes")
    p.add_argument("values", help="comma-separated, e.g. 8,32,128")
    p.add_argument("--scene", default="SPNZA",
                   choices=scene_names(include_extra=True))
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "pareto",
        help="surrogate-price a cache x queue grid; verified Pareto frontier",
    )
    p.add_argument("scene", choices=scene_names(include_extra=True))
    p.add_argument("--policy", default="vtq",
                   choices=("baseline", "prefetch", "sorted", "vtq"))
    p.add_argument("--baseline", default="baseline", metavar="POLICY",
                   choices=("baseline", "prefetch", "sorted", "vtq"),
                   help="denominator policy for the speedup axis")
    p.add_argument("--cache-axis", default="l2_bytes", metavar="FIELD",
                   help="GPUConfig cost axis (default l2_bytes)")
    p.add_argument("--queue-axis", default="queue_threshold", metavar="FIELD",
                   help="VTQ/GPU tuning axis (default queue_threshold)")
    p.add_argument("--cache-values", type=_values_arg, default=None,
                   metavar="V1,V2,...",
                   help="explicit cache-axis values (default: geometric "
                        "series around the stock config)")
    p.add_argument("--queue-values", type=_values_arg, default=None,
                   metavar="V1,V2,...",
                   help="explicit queue-axis values")
    p.add_argument("--cache-count", type=int, default=8,
                   help="generated cache-axis points when --cache-values "
                        "is not given")
    p.add_argument("--queue-count", type=int, default=6,
                   help="generated queue-axis points when --queue-values "
                        "is not given")
    p.add_argument("--bound", type=float, default=0.10, metavar="REL",
                   help="held-out relative cycle error bound of the "
                        "verification contract (default 0.10)")
    p.add_argument("--exact-fraction", type=float, default=None,
                   metavar="FRAC",
                   help="exact-run budget as a fraction of the grid "
                        "(default 0.05)")
    p.add_argument("--exact-budget", type=int, default=None, metavar="N",
                   help="absolute exact-run budget (overrides the fraction)")
    p.add_argument("--epsilon", type=float, default=0.02, metavar="REL",
                   help="frontier pruning: keep a costlier point only if "
                        "it gains at least this much (default 0.02)")
    p.add_argument("--seed", type=int, default=0,
                   help="sweep seed (same seed, byte-identical JSON)")
    p.add_argument("--fast", action="store_true",
                   help="run under the fast (tests/CI) context")
    p.add_argument("--jobs", type=_jobs_arg, default=None,
                   help="parallel workers for exact runs (default: "
                        "REPRO_JOBS or CPU count; 0 = serial)")
    p.add_argument("-o", "--output", default=None, metavar="PATH",
                   help="frontier JSON (default <scene>_pareto.json)")
    p.add_argument("--svg", default=None, metavar="PATH",
                   help="frontier figure (default: next to the JSON)")
    p.add_argument("--manifest", default=None, metavar="PATH",
                   help="also write a run manifest carrying the achieved "
                        "surrogate_error statistics")
    p.add_argument("--strict", action="store_true",
                   help="exit with status 3 if the error bound was not met")
    p.set_defaults(func=cmd_pareto)

    p = sub.add_parser(
        "trace", help="record, replay or inspect memory traces"
    )
    tsub = p.add_subparsers(dest="trace_command", required=True)

    tp = tsub.add_parser(
        "record",
        help="run one case live with memory-trace capture on",
    )
    tp.add_argument("scene",
                    choices=scene_names(include_extra=True, include_gaussian=True))
    tp.add_argument("--policy", default="baseline",
                    choices=("baseline", "prefetch", "vtq"))
    tp.add_argument("-o", "--output", default=None, metavar="PATH",
                    help="trace file (default <scene>_<policy>.memtrace)")
    tp.add_argument("--fast", action="store_true",
                    help="record under the fast (tests/CI) context")
    tp.add_argument("--allow-partial", action="store_true",
                    help="keep a budget-truncated trace instead of failing "
                         "(replay will refuse it; see "
                         "REPRO_TRACE_BUDGET_BYTES)")
    tp.set_defaults(trace_func=cmd_trace_record)

    tp = tsub.add_parser(
        "replay",
        help="re-price a recorded trace through the memory hierarchy",
    )
    tp.add_argument("path", help="a .memtrace file (see `trace record`)")
    tp.add_argument("--set", action="append", default=[], metavar="FIELD=VALUE",
                    help="override a replay-safe GPUConfig field (repeatable), "
                         "e.g. --set l2_bytes=4194304")
    tp.set_defaults(trace_func=cmd_trace_replay)

    tp = tsub.add_parser(
        "info",
        help="identify a trace file (memory trace vs chrome timeline)",
    )
    tp.add_argument("path")
    tp.add_argument("--format", choices=("text", "json"), default="text")
    tp.set_defaults(trace_func=cmd_trace_info)

    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("serve", help="run the simulation-serving daemon")
    p.add_argument("--socket", default=None, metavar="PATH|HOST:PORT",
                   help="endpoint (default: REPRO_SERVICE_* or spool socket)")
    p.add_argument("--spool", default=None, metavar="DIR",
                   help="job spool directory (default: REPRO_SERVICE_SPOOL)")
    p.add_argument("--jobs", type=_jobs_arg, default=None,
                   help="worker pool size (0 = serial, no pool)")
    p.add_argument("--queue-max", type=int, default=None,
                   help="queue depth bound (default REPRO_SERVICE_QUEUE_MAX)")
    p.add_argument("--tenant-max", type=int, default=None,
                   help="per-tenant queued-job quota "
                        "(default REPRO_SERVICE_TENANT_MAX; 0 = unlimited)")
    p.add_argument("--join", default=None, metavar="HOST:PORT",
                   help="run as a worker node: register with this head "
                        "server and heartbeat (needs a TCP --socket)")
    p.add_argument("--node-id", default=None, metavar="ID",
                   help="worker node id for --join (default node-<pid>)")
    p.add_argument("--fast", action="store_true",
                   help="serve the fast two-scene context (tests/CI)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit", help="submit work to a running server")
    p.add_argument("scene", nargs="?", default=None,
                   help="scene name (or use --figure)")
    p.add_argument("--figure", default=None, metavar="NAME",
                   help="submit every simulator case of one figure")
    p.add_argument("--policy", default="vtq",
                   choices=("baseline", "prefetch", "sorted", "vtq"))
    p.add_argument("--priority", type=int, default=0)
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="per-job wall-clock deadline from submission")
    p.add_argument("--client", default=None, metavar="ID",
                   help="client id for queue fairness accounting")
    p.add_argument("--tenant", default=None, metavar="NAME",
                   help="tenant bucket for quota accounting "
                        "(default public)")
    p.add_argument("--batch", action="store_true",
                   help="submit everything in one batch round trip with "
                        "per-item admission outcomes (best with --figure)")
    p.add_argument("--set", action="append", default=[], metavar="FIELD=VALUE",
                   help="GPUConfig override for this case (repeatable)")
    p.add_argument("--pareto", action="store_true",
                   help="submit as a pareto job: the server runs a whole "
                        "surrogate-priced frontier sweep for SCENE/--policy "
                        "(see `repro pareto` for the local equivalent)")
    p.add_argument("--params", default=None, metavar="JSON",
                   help="pareto sweep parameters as a JSON object, e.g. "
                        "'{\"queue_count\": 4, \"seed\": 7}' (with --pareto)")
    p.add_argument("--fast", action="store_true",
                   help="enumerate --figure cases under the fast context "
                        "(must match the server's)")
    p.add_argument("--wait", action="store_true",
                   help="poll until every submitted job is terminal")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="--wait timeout in seconds")
    p.add_argument("--admit-wait", type=float, default=0.0, metavar="SECONDS",
                   help="retry retryable rejections (queue-full/quota/"
                        "circuit-open) for up to this long, honoring the "
                        "server's retry_after_s hint (0 = single-shot)")
    p.add_argument("--socket", default=None, metavar="PATH|HOST:PORT")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "chaos",
        help="run a sweep under seeded process-level faults and check the "
             "resilience invariants",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="fault-schedule seed (same seed, same kills/hangs)")
    p.add_argument("--figure", default=None, metavar="NAME",
                   help="chaos-test one figure's case list (default: every "
                        "scene under baseline+prefetch)")
    p.add_argument("--jobs", type=_jobs_arg, default=2,
                   help="supervised worker count for the chaos run (min 2)")
    p.add_argument("--hang-timeout", type=float, default=2.0,
                   metavar="SECONDS",
                   help="supervisor hang-detection timeout for the chaos run")
    p.add_argument("--fast", action="store_true",
                   help="use the fast two-scene context (tests/CI)")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser("jobs", help="show server health and job records")
    p.add_argument("job_id", nargs="?", default=None,
                   help="show this one job's full record instead")
    p.add_argument("--state", default=None,
                   choices=("queued", "running", "done", "failed", "cancelled"),
                   help="filter the listing by lifecycle state")
    p.add_argument("--socket", default=None, metavar="PATH|HOST:PORT")
    p.set_defaults(func=cmd_jobs)

    p = sub.add_parser("cancel", help="cancel a queued job")
    p.add_argument("job_id")
    p.add_argument("--socket", default=None, metavar="PATH|HOST:PORT")
    p.set_defaults(func=cmd_cancel)

    p = sub.add_parser(
        "fleet", help="show the head server's worker-node registry"
    )
    p.add_argument("--route", default=None, metavar="SCENE",
                   help="also show which node this scene would route to")
    p.add_argument("--socket", default=None, metavar="PATH|HOST:PORT")
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser(
        "stats", help="render metrics: a live server, or a finished run"
    )
    p.add_argument("source", nargs="?", default=None,
                   help="run manifest or metrics-snapshot JSON file; omit "
                        "to scrape a running server")
    p.add_argument("--format", choices=("text", "json", "prom"),
                   default="text",
                   help="text summary, raw JSON snapshot, or Prometheus "
                        "exposition text (default: text)")
    p.add_argument("--socket", default=None, metavar="PATH|HOST:PORT")
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Refuse a malformed REPRO_* knob before any verb does work; a
    # daemon must not start on a configuration it would later trip on.
    try:
        settings.check_all()
    except ConfigError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
