"""The baseline RT unit: ray-stationary traversal, one warp at a time.

This is the paper's baseline GPU (Section 2.2 / Figure 3): warps issued by
raygen shaders queue at the RT unit, which has a warp buffer of size one
(Table 1) and therefore traverses one warp to completion before taking the
next.  Rays use the treelet traversal *order* of Chou et al. (the paper's
baseline does too), but with no queues, no prefetching and no repacking —
each ray simply fetches the nodes it needs through the cache hierarchy.

The unit is a per-SM discrete-event engine.  Warps carry a ``ready_cycle``;
the scheduler is greedy-then-oldest (GTO): among ready warps it keeps the
lowest submission sequence number.  Completion callbacks may submit more
warps (secondary bounces), which is how the path tracer drives multi-bounce
workloads through the unit.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

from repro import faults
from repro.gpusim.budget import check_cycle_budget
from repro.gpusim.config import GPUConfig
from repro.gpusim.memory import MemorySystem
from repro.gpusim.stats import SimStats, TraversalMode
from repro.gpusim.warp import TraceWarp, warp_step

CompletionCallback = Callable[[TraceWarp, float], None]


def apply_stall_fault(engine) -> None:
    """Charge the SIM_STALL chaos fault, if armed for this engine class.

    Fault specs match on the engine's class name; the SoA replay engines
    subclass the scalar units with names that contain the parent's, so
    specs written against either keep firing.
    """
    spec = faults.should_fire(faults.SIM_STALL, type(engine).__name__)
    if spec is not None:
        engine.cycle += float(spec.payload.get("extra_cycles", 1e12))


class BaselineRTUnit:
    """One SM's baseline RT unit."""

    def __init__(
        self,
        bvh,
        config: GPUConfig,
        mem: MemorySystem,
        stats: SimStats,
        mode: TraversalMode = TraversalMode.FINAL_RAY_STATIONARY,
        cycle_budget: Optional[float] = None,
    ):
        self.bvh = bvh
        self.config = config
        self.mem = mem
        self.stats = stats
        self.cycle = 0.0
        self.cycle_budget = cycle_budget
        self._pending: List = []  # heap of (ready_cycle, seq, warp)
        self._seq = 0
        # Baseline runs have no mode phases; everything is attributed to a
        # single ray-stationary bucket.
        self._mode = mode
        # Optional ActivityTimeline (repro.gpusim.timeline).
        self.timeline = None

    # -- submission ---------------------------------------------------------------

    def submit(self, warp: TraceWarp) -> None:
        """Queue a warp for traversal (callable from completion callbacks)."""
        warp.seq = self._seq
        self._seq += 1
        heapq.heappush(self._pending, (warp.ready_cycle, warp.seq, warp))
        self.stats.rays_traced += len(warp.active_rays())
        recorder = self.mem.recorder
        if recorder is not None:
            recorder.on_submit(warp)

    def has_work(self) -> bool:
        return bool(self._pending)

    # -- execution ------------------------------------------------------------------

    def process_warp(self, warp: TraceWarp) -> None:
        """Traverse every ray of ``warp`` to completion (warp buffer = 1)."""
        start = self.cycle
        active = warp.active_rays()
        launched = len(active)
        while active:
            latency, stepped, _ = warp_step(
                self.bvh, active, self.mem, self.config, self.stats,
                self.cycle, self._mode,
            )
            if not stepped:
                break
            self.cycle += latency
            active = [r for r in active if not r.finished()]
        # Rays can finish inside a step (all remaining stack entries culled)
        # and be excluded from ``stepped``; refilter before counting.
        active = [r for r in active if not r.finished()]
        self.stats.rays_completed += launched - len(active)
        self.stats.warps_processed += 1
        if self.timeline is not None:
            self.timeline.record(
                "warp", "ray_stationary", start, self.cycle,
                {"cta": warp.cta_id, "rays": len(warp.rays)},
            )

    def run(self, on_complete: Optional[CompletionCallback] = None) -> float:
        """Drain all work; returns the final cycle count.

        ``on_complete(warp, cycle)`` fires when a warp finishes traversal
        and may call :meth:`submit` to enqueue follow-up warps (shading /
        secondary rays).
        """
        apply_stall_fault(self)
        while self._pending:
            check_cycle_budget(self.cycle, self.cycle_budget, self.stats)
            ready, _, warp = heapq.heappop(self._pending)
            if ready > self.cycle:
                self.cycle = ready  # RT unit idles until the warp arrives
            self.process_warp(warp)
            if on_complete is not None:
                on_complete(warp, self.cycle)
        self.stats.total_cycles = max(self.stats.total_cycles, self.cycle)
        return self.cycle
