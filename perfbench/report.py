"""Per-layer metrics from a traced run, and the self-time table."""

from __future__ import annotations

from typing import Dict, List, Optional

from perfbench import spans

POLICIES = ("baseline", "prefetch", "vtq", "sorted")
FALLBACKS = ("disabled", "policy-sorted", "trace-recorder-attached")
SERVICE_METRICS = ("service.queue_wait_s.p50", "service.exec_s.p50",
                   "service.overhead_s.p50", "service.dedupe_ratio")


def _plan_hit_ratio(tracer: spans.Tracer) -> float:
    """Share of render-time plan lookups that built no plan."""
    get_id = tracer._name_ids.get("soa.get_plan")
    build_id = tracer._name_ids.get("soa.build_plan")
    lookups = [i for i in range(len(tracer.start)) if tracer.name[i] == get_id]
    if not lookups:
        return 0.0
    built = {tracer.parent[i] for i in range(len(tracer.start)) if tracer.name[i] == build_id}
    return sum(1 for i in lookups if i not in built) / len(lookups)


def layer_metrics(tracer: spans.Tracer, sim: Dict[str, Dict], extra: Dict,
                  untraced_ops_per_s: float, traced_ops_per_s: float) -> Dict[str, float]:
    """Every per-layer metric; a layer that did not run reports 0."""
    own = spans.self_times(tracer)
    by_policy = spans.self_times_by_tag(tracer, "engine.render")
    counts = tracer.counts
    engine_s = own.get("engine.render", 0.0)
    visits = counts.get("engine.node_visits", 0.0)
    out: Dict[str, float] = {
        "process.start_s": own.get("process.start", 0.0),
        "scenes.load_s": own.get("scenes.load", 0.0),
        "bvh.build_s": own.get("bvh.build", 0.0),
        "soa.plan_build_s": own.get("soa.build_plan", 0.0) + own.get("soa.get_plan", 0.0),
        "soa.plan_builds": counts.get("soa.build_plan.calls", 0.0),
        "soa.plan_hit_ratio": _plan_hit_ratio(tracer),
    }
    for policy in POLICIES:
        out[f"engine.replay_s.{policy}"] = by_policy.get(policy, 0.0)
    for reason in FALLBACKS:
        out[f"engine.scalar_runs.{reason}"] = counts.get(f"engine.scalar_runs.{reason}", 0.0)
    out["engine.us_per_node_visit"] = 1e6 * engine_s / visits if visits else 0.0
    out.update({
        "memory.price_s": own.get("memory.price", 0.0),
        "memory.price_calls": counts.get("memory.price.calls", 0.0),
        "memtrace.record_s": own.get("memtrace.record", 0.0),
        "memtrace.replay_s": own.get("memtrace.replay", 0.0),
        "memtrace.load_s": own.get("memtrace.ensure", 0.0),
        "memtrace.replays": counts.get("memtrace.replay.calls", 0.0),
        "runner.self_s": own.get("runner.run_case", 0.0),
    })
    for name in SERVICE_METRICS:
        out[name] = float(extra.get(name, 0.0))
    cases = list(sim.values())
    prefetch = [sim[c]["prefetch_unused_fraction"] for c in sim if "/prefetch/" in c]
    out["sim.node_visits"] = float(sum(c["node_visits"] for c in cases))
    out["sim.cycles"] = float(sum(c["cycles"] for c in cases))
    out["sim.prefetch_unused_fraction"] = sum(prefetch) / len(prefetch) if prefetch else 0.0
    out["trace.coverage"] = spans.coverage(tracer)
    out["trace.overhead"] = traced_ops_per_s / untraced_ops_per_s
    return out


def self_time_table(workload: str, tracer: spans.Tracer) -> List[str]:
    """Self seconds by layer, largest first, with each layer's share."""
    by_layer: Dict[str, float] = {}
    for name, seconds in spans.self_times(tracer).items():
        layer = spans.LAYER_OF.get(name, name)
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    op_id = tracer._name_ids.get("op")
    op_total = sum(tracer.end[i] - tracer.start[i]
                   for i in range(len(tracer.start)) if tracer.name[i] == op_id)
    lines = [f"self time by layer, {workload} (traced; {len(tracer.ops)} ops, "
             f"{op_total:.3f} s op wall time)"]
    for layer, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        share = seconds / op_total if op_total else 0.0
        lines.append(f"  {layer:<10} {seconds:10.4f} s  {100 * share:5.1f}%")
    return lines


def format_metric(name: str, value: float, unit: str) -> str:
    return f"{name:<44} {value:14.6g} {unit}"


def untraced_reference(results: List[Dict], source: str) -> Optional[float]:
    """Median untraced ``ops_per_s`` among correct result files of this source."""
    from perfbench.common import median

    values = [r["metrics"]["ops_per_s"] for r in results
              if not r["trace"] and r["correct"] and r["environment"]["source_sha256"] == source]
    return median(values) if values else None
