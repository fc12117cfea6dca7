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

Like every policy unit it is a pure timing loop.  Rays carry
:class:`~repro.gpusim.soa.ReplayState` cursors into the batches that
:func:`~repro.gpusim.soa.trace_states` traced, so the unit only
consumes each lane's next visit, prices all lanes' cache lines through
one :meth:`MemorySystem.access_lines_batch` call and charges the warp
:func:`~repro.gpusim.warp.step_latency`.

The bit-exactness discipline of the timing loops here, in
:mod:`repro.baselines.prefetch` and in :mod:`repro.core.rt_unit_vtq`
(the independent scalar reference in ``tests/scalar_reference.py``
holds them to it):

* every cache mutation, miss-hook firing and DRAM model call happens in
  the per-lane order of a live warp step (``access_lines_batch`` inlines
  the per-line sequence; ray-data and treelet-fetch accesses stay live);
* integer counters are deferred into plain locals or the unit's
  :class:`~repro.gpusim.stats.StatsFold` and committed with
  presence-exact guards at phase boundaries;
* float accumulators (``cycle``, ``simt_active_sum``,
  ``mode_cycles[...]``) are threaded through *ordered* locals — seeded
  from the current value, accumulated in step order, written back at
  phase end — because float addition is not associative.  The vtq
  completion callbacks mutate ``unit.cycle`` (CTA save/restore
  bandwidth), so the local cycle is synced to ``self.cycle`` around
  every ``_complete`` sweep;
* phase boundaries (where folds are committed) are exactly where stats
  can be observed mid-run: the cycle-budget check at the top of the run
  loop, and the end of the run.

A memory trace (:mod:`repro.memtrace`) is a stored render plan, so the
units have no recording hooks: replaying a trace is an ordinary render
of the stored plan through these same loops.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

from repro import faults
from repro.gpusim.budget import check_cycle_budget
from repro.gpusim.config import GPUConfig
from repro.gpusim.memory import MemorySystem
from repro.gpusim.stats import SimStats, StatsFold, TraversalMode
from repro.gpusim.warp import TraceWarp, gaussian_leaf_cycles, step_latency

CompletionCallback = Callable[[TraceWarp, float], None]


def apply_stall_fault(engine) -> None:
    """Charge the SIM_STALL chaos fault, if armed for this engine class.

    Fault specs match on the engine's class name (``BaselineRTUnit``,
    ``PrefetchRTUnit``, ``VTQRTUnit``); subclasses whose names contain
    the parent's keep firing for specs written against the parent.
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
        self.fold = StatsFold(stats)

    # -- submission ---------------------------------------------------------------

    def submit(self, warp: TraceWarp) -> None:
        """Queue a warp for traversal (callable from completion callbacks)."""
        warp.seq = self._seq
        self._seq += 1
        heapq.heappush(self._pending, (warp.ready_cycle, warp.seq, warp))
        self.stats.rays_traced += len(warp.active_rays())

    def has_work(self) -> bool:
        return bool(self._pending)

    # -- execution ------------------------------------------------------------------

    def process_warp(self, warp: TraceWarp) -> None:
        """Traverse every ray of ``warp`` to completion (warp buffer = 1)."""
        start = self.cycle
        config = self.config
        stats = self.stats
        batch = self.mem.access_lines_batch
        fold = self.fold
        mode = self._mode
        warp_size = config.warp_size
        cycle = self.cycle
        mode_c = stats.mode_cycles.get(mode, 0.0)
        mode_t = stats.mode_tests.get(mode, 0)
        simt_sum = stats.simt_active_sum
        simt_steps = 0
        nodes = 0
        leaves = 0
        tris = 0
        steps = 0
        completed = 0
        # Nothing observes ray state mid-warp in the baseline unit, and
        # the ray-stationary replay is fully deterministic: ray i's visit
        # at warp-step s is trace position start+s.  So the per-step
        # pop collapses to a step counter, and each ReplayState is
        # written exactly once — at retirement (p=n, no chain work, done;
        # the transient chain-work-at-end state the live pop passes
        # through is erased by its very next pop, which no one sees).
        gaussian = getattr(self.bvh, "prim_kind", "triangle") == "gaussian"
        live = []
        for ray in warp.rays:
            st = ray.state
            if st.done:
                continue
            n = st.n
            if st.p >= n:
                st.done = True
                st.chw = False
                completed += 1
                continue
            cols = st.cols
            live.append((st, cols.lines, cols.isleaf, cols.tests, st.p, n))
        while live:
            lane_lines = []
            tests = 0
            step_leaves = 0
            nxt = []
            for entry in live:
                st, lines_l, isleaf_l, tests_l, p0, n = entry
                p = p0 + steps
                lane_lines.append(lines_l[p])
                if isleaf_l[p]:
                    leaves += 1
                    step_leaves += 1
                    tests += tests_l[p]
                else:
                    nodes += 1
                if p + 1 < n:
                    nxt.append(entry)
                else:
                    st.p = n
                    st.chw = False
                    st.done = True
                    completed += 1
            max_latency, missing_lanes, misses = batch(lane_lines, cycle, fold)
            latency = step_latency(
                config, len(lane_lines), max_latency, missing_lanes, misses,
                gaussian_leaf_cycles(config, tests, step_leaves) if gaussian else 0.0,
            )
            simt_sum += len(lane_lines) / warp_size
            simt_steps += 1
            mode_c += latency
            mode_t += tests
            tris += tests
            cycle += latency
            steps += 1
            live = nxt
        self.cycle = cycle
        stats.rays_completed += completed
        stats.warps_processed += 1
        stats.simt_active_sum = simt_sum
        stats.simt_steps += simt_steps
        stats.node_visits += nodes
        stats.leaf_visits += leaves
        stats.triangle_tests += tris
        if steps:
            stats.mode_cycles[mode] = mode_c
            stats.mode_tests[mode] = mode_t
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
        self.fold.flush()
        return self.cycle
