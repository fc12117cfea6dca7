"""Timing driver for query workloads: run query rays through the engines.

Rendering has a shading/bounce loop; query workloads are simpler — a flat
batch of independent "rays" (each a prepared traversal state) traced once,
the RTNN / RTIndeX shape, which is one bounce of a render plan.  This
driver traces the whole batch in one :func:`~repro.gpusim.soa.trace_states`
call, packs the traced rays into warps, replays them through the chosen RT-unit
engine, and reports cycles plus the usual statistics, so RTIndeX-style
and point-in-mesh workloads can be compared across baseline / prefetch /
VTQ exactly like rendering is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.baselines.prefetch import PrefetchRTUnit
from repro.core.config import VTQConfig
from repro.core.rt_unit_vtq import VTQRTUnit
from repro.gpusim.config import GPUConfig, scaled_config
from repro.gpusim.memory import MemorySystem, make_shared_l2
from repro.gpusim.rt_unit import BaselineRTUnit
from repro.gpusim.soa import ReplayState, trace_states
from repro.gpusim.stats import SimStats
from repro.gpusim.warp import SimRay, TraceWarp


@dataclass
class QueryTimingResult:
    """Outcome of one timed query batch."""

    policy: str
    cycles: float
    stats: SimStats
    states: List  # finished traversal states, query order


def time_queries(
    bvh,
    state_factory: Callable[[int], object],
    num_queries: int,
    policy: str = "baseline",
    config: GPUConfig = None,
    vtq: VTQConfig = None,
) -> QueryTimingResult:
    """Trace ``num_queries`` query rays through one SM's engine.

    ``state_factory(i)`` builds the i-th query's traversal state (see
    ``RangeIndex.make_query_state`` / ``MeshClassifier.make_query_state``).
    Functional results land in the returned ``states`` regardless of
    policy — they are traced before any timing runs, as with rendering.
    """
    if num_queries < 1:
        raise ValueError("need at least one query")
    config = config or scaled_config()
    stats = SimStats()
    mem = MemorySystem(config, stats, make_shared_l2(config))
    if vtq is None:
        vtq = VTQConfig().scaled_to(min(config.max_virtual_rays_per_sm, num_queries))

    if policy == "baseline":
        engine = BaselineRTUnit(bvh, config, mem, stats)
    elif policy == "prefetch":
        engine = PrefetchRTUnit(bvh, config, mem, stats)
    elif policy == "vtq":
        engine = VTQRTUnit(bvh, config, vtq, mem, stats)
    else:
        raise ValueError(f"unknown policy {policy!r}")

    states = [state_factory(i) for i in range(num_queries)]
    batch = trace_states(bvh, states)
    rays = [SimRay(i, i, i // config.cta_threads, 0, ReplayState(batch, i))
            for i in range(num_queries)]
    for start in range(0, num_queries, config.warp_size):
        engine.submit(
            TraceWarp(rays[start : start + config.warp_size],
                      cta_id=start // config.cta_threads)
        )

    if isinstance(engine, VTQRTUnit):
        cycles = engine.run(lambda ray, cycle: None)
    else:
        cycles = engine.run()
    return QueryTimingResult(policy=policy, cycles=cycles, stats=stats, states=states)
