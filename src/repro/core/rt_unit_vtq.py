"""The Virtualized Treelet Queue RT unit (Sections 3.2, 4.2-4.5).

One engine per SM.  Work arrives as warps (from raygen shaders, primary or
resumed secondary) and flows through the three traversal phases:

1. **Initial ray-stationary** — an arriving warp traverses normally until
   its rays spread over more than ``divergence_threshold`` treelets; the
   warp is then terminated and its rays are written to the treelet queues.

2. **Treelet-stationary** — when some queue holds at least
   ``queue_threshold`` rays, the controller fetches that whole treelet
   into the L1 (overlapped with the previous queue's processing when
   preloading is on), pulls the queue's rays from the reserved L2 region
   into treelet warps, and traverses them strictly inside the treelet;
   rays reaching the treelet boundary are re-queued for their next
   treelet.  A queue is emptied before switching (maximizing reuse).

3. **Final ray-stationary** — when every queue is underpopulated, rays
   are pulled from the queues in table order into ordinary warps
   (Section 4.4's grouping) and traversed like the baseline, with *warp
   repacking* (Section 4.5): when a warp's active rays drop below
   ``repack_threshold``, fresh rays are fetched from the queues to refill
   it, keeping SIMT efficiency high.

The engine is a discrete-event loop: each scheduling round performs one
unit of work (an arrival's initial phase, one treelet queue, or one
final-phase warp) and advances the SM-local cycle counter.  Like every
policy unit it replays traced states (:class:`~repro.gpusim.soa.ReplayState`
cursors flow through the queue tables as ordinary objects) under the
timing-loop discipline described in :mod:`repro.gpusim.rt_unit`.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

from repro.core.config import VTQConfig
from repro.core.treelet_queue import TreeletQueues
from repro.gpusim.budget import check_cycle_budget
from repro.gpusim.config import GPUConfig
from repro.gpusim.memory import MemorySystem
from repro.gpusim.rt_unit import apply_stall_fault
from repro.gpusim.stats import SimStats, StatsFold, TraversalMode
from repro.gpusim.warp import SimRay, TraceWarp, gaussian_leaf_cycles, step_latency

RayCallback = Callable[[SimRay, float], None]


class VTQRTUnit:
    """One SM's RT unit with virtualized treelet queues."""

    def __init__(
        self,
        bvh,
        config: GPUConfig,
        vtq: VTQConfig,
        mem: MemorySystem,
        stats: SimStats,
        cycle_budget: Optional[float] = None,
    ):
        self.bvh = bvh
        self.config = config
        self.vtq = vtq
        self.mem = mem
        self.stats = stats
        self.cycle = 0.0
        self.cycle_budget = cycle_budget
        self.queues = TreeletQueues(vtq, stats)
        self._incoming: List = []  # heap of (ready_cycle, seq, warp)
        self._seq = 0
        self._rays_in_unit = 0
        self._preload_credit = 0.0
        # Optional ActivityTimeline (repro.gpusim.timeline): when set, one
        # span is recorded per scheduling unit for chrome-trace export.
        self.timeline = None
        self.fold = StatsFold(stats)

    # -- submission ------------------------------------------------------------

    def submit(self, warp: TraceWarp) -> None:
        """Queue a raygen warp (primary or resumed secondary rays)."""
        warp.seq = self._seq
        self._seq += 1
        heapq.heappush(self._incoming, (warp.ready_cycle, warp.seq, warp))
        self.stats.rays_traced += len(warp.active_rays())

    def has_work(self) -> bool:
        return bool(self._incoming) or not self.queues.empty()

    # -- main loop ------------------------------------------------------------------

    def run(self, on_ray_complete: RayCallback) -> float:
        """Drain all work; ``on_ray_complete`` may submit further warps."""
        apply_stall_fault(self)
        while self.has_work():
            check_cycle_budget(self.cycle, self.cycle_budget, self.stats)
            if self._try_arrival(on_ray_complete):
                continue
            if self._try_treelet_phase(on_ray_complete):
                continue
            if self._try_final_phase(on_ray_complete):
                continue
            if self._incoming:
                # Idle until the next raygen warp arrives.
                self.cycle = max(self.cycle, self._incoming[0][0])
                continue
            break  # pragma: no cover - has_work() excludes this
        self.stats.total_cycles = max(self.stats.total_cycles, self.cycle)
        self.stats.queue_table_peak_entries = max(
            self.stats.queue_table_peak_entries,
            self.queues.queue_table.peak_entries,
        )
        self.stats.count_table_peak_entries = max(
            self.stats.count_table_peak_entries,
            self.queues.count_table.peak_entries,
        )
        self.fold.flush()
        return self.cycle

    # -- phase 1: arrivals -----------------------------------------------------------

    def _try_arrival(self, cb: RayCallback) -> bool:
        if not self._incoming:
            return False
        ready, _, warp = self._incoming[0]
        if ready > self.cycle:
            # Not arrived yet; only wait if there is nothing else to do
            # (handled by the caller's fallthrough).
            return False
        rays = warp.active_rays()
        if self._rays_in_unit + len(rays) > self.config.max_virtual_rays_per_sm:
            return False  # virtual-ray budget exhausted; drain queues first
        heapq.heappop(self._incoming)
        self._initial_phase(rays, cb)
        return True

    def _initial_phase(self, rays: List[SimRay], cb: RayCallback) -> None:
        """Ray-stationary traversal of an arriving warp until it diverges."""
        phase_start = self.cycle
        self._rays_in_unit += len(rays)
        mem = self.mem
        # Writing the warp's ray records into the reserved L2 region;
        # store traffic only (stores retire through the write queue).
        for ray in rays:
            mem.ray_data_access(ray.ray_id, self.cycle, write=True)

        active = [r for r in rays if not r.state.done]
        for ray in rays:
            if ray.state.done:  # pragma: no cover - degenerate arrivals
                self._complete(ray, cb)

        config = self.config
        stats = self.stats
        fold = self.fold
        mode = TraversalMode.INITIAL_RAY_STATIONARY
        warp_size = config.warp_size
        divergence = self.vtq.divergence_threshold
        mode_c = stats.mode_cycles.get(mode, 0.0)
        mode_t = stats.mode_tests.get(mode, 0)
        simt_sum = stats.simt_active_sum
        simt_steps = 0
        nodes = 0
        leaves = 0
        tris = 0
        steps = 0
        gaussian = getattr(self.bvh, "prim_kind", "triangle") == "gaussian"
        cycle = self.cycle
        while active:
            treelets = {r.state.position_treelet() for r in active}
            treelets.discard(None)
            if len(treelets) > divergence:
                break
            lane_lines = []
            tests = 0
            step_leaves = 0
            # ray-stationary pop inlined; no ray has entered a chain yet in the
            # initial phase, so the ci/_ctre resets are no-ops and drop.
            for ray in active:
                st = ray.state
                p = st.p
                n = st.n
                if p >= n:
                    st.done = True
                    st.chw = False
                    continue
                cols = st.cols
                p1 = p + 1
                st.p = p1
                chw = cols.curwork[p1]
                st.chw = chw
                if p1 == n and not chw and not st.tail:
                    st.done = True
                lane_lines.append(cols.lines[p])
                if cols.isleaf[p]:
                    leaves += 1
                    step_leaves += 1
                    tests += cols.tests[p]
                else:
                    nodes += 1
            if lane_lines:
                max_latency, missing_lanes, misses = mem.access_lines_batch(
                    lane_lines, cycle, fold
                )
                latency = step_latency(
                    config, len(lane_lines), max_latency, missing_lanes, misses,
                    gaussian_leaf_cycles(config, tests, step_leaves)
                    if gaussian else 0.0,
                )
                simt_sum += len(lane_lines) / warp_size
                simt_steps += 1
                mode_c += latency
                mode_t += tests
                tris += tests
                cycle += latency
                steps += 1
            # Sweep finished rays before the break decision; completion
            # callbacks may move self.cycle, so sync around them.
            self.cycle = cycle
            still_active = []
            for ray in active:
                if ray.state.done:
                    self._complete(ray, cb)
                else:
                    still_active.append(ray)
            cycle = self.cycle
            active = still_active
            if not lane_lines:
                break

        # Terminate the warp: write surviving rays to the treelet queues.
        self.cycle = cycle
        for ray in active:
            treelet = ray.state.position_treelet()
            if treelet is None:  # pragma: no cover - finished rays swept above
                self._complete(ray, cb)
            else:
                self.queues.push(treelet, ray)
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
                "initial warp", "initial_ray_stationary", phase_start, self.cycle,
                {"rays": len(rays), "queued": len(active)},
            )

    # -- phase 2: treelet-stationary ---------------------------------------------------

    def _try_treelet_phase(self, cb: RayCallback) -> bool:
        if not self.vtq.treelet_mode_enabled:
            return False
        treelet, count = self.queues.largest()
        if treelet is None or count < self.vtq.queue_threshold:
            return False
        self._process_treelet_queue(treelet, cb)
        return True

    def _process_treelet_queue(self, treelet: int, cb: RayCallback) -> None:
        """Fetch one treelet and drain its whole queue through the L1."""
        phase_start = self.cycle
        mem = self.mem
        stats = self.stats
        config = self.config
        fold = self.fold
        mode = TraversalMode.TREELET_STATIONARY
        fetch_latency = mem.fetch_treelet(self.bvh.treelet_lines[treelet], self.cycle)
        preload = self.vtq.preload_enabled
        if preload:
            overlap = min(self._preload_credit, fetch_latency)
            fetch_latency -= overlap
        self.cycle += fetch_latency
        # record_mode(TS, fetch_latency) would insert the mode keys
        # unconditionally; direct defaultdict indexing seeds the locals
        # with the same insertion before deferred accumulation.
        mode_c = stats.mode_cycles[mode]
        mode_t = stats.mode_tests[mode]
        mode_c += fetch_latency
        simt_sum = stats.simt_active_sum
        simt_steps = 0
        nodes = 0
        leaves = 0
        tris = 0
        work_cycles = 0.0
        warp_size = config.warp_size
        prev_warp_cycles = 0.0
        gaussian = getattr(self.bvh, "prim_kind", "triangle") == "gaussian"
        batch = mem.access_lines_batch
        ray_data = mem.ray_data_access
        pop_warp = self.queues.pop_warp
        cycle = self.cycle
        while True:
            rays = pop_warp(treelet, warp_size)
            if not rays:
                break
            # Ray data loads from the reserved L2 region (bypassing L1);
            # the lanes' loads overlap.  With preloading (Section 4.3:
            # "Ray data can also be preloaded similarly") the controller
            # fetches the next warp's records while the current warp
            # steps, hiding the load behind the previous warp's work.
            load_latency = 0.0
            for ray in rays:
                lat = ray_data(ray.ray_id, cycle)
                if lat > load_latency:
                    load_latency = lat
            if preload:
                load_latency = max(0.0, load_latency - prev_warp_cycles)
            cycle += load_latency
            work_cycles += load_latency
            mode_c += load_latency
            prev_warp_cycles = 0.0

            for ray in rays:
                st = ray.state
                if not st.chw:
                    st.enter_treelet(treelet)

            active = [r for r in rays if not r.state.done]
            while active:
                lane_lines = []
                tests = 0
                step_leaves = 0
                nxt = []
                # treelet-stationary pop inlined: park (contribute nothing) at an
                # unentered chain position or the tail, otherwise pop one
                # visit and stay only while in-treelet work remains.
                for ray in active:
                    st = ray.state
                    p = st.p
                    n = st.n
                    if p >= n:
                        st.chw = False
                        if st.tail_i >= len(st.tail):
                            st.done = True
                        continue
                    cols = st.cols
                    chain = cols.chains[p]
                    if chain is not None and st.ci < len(chain):
                        st.chw = False
                        continue
                    st.ci = 0
                    st._ctre = None
                    p1 = p + 1
                    st.p = p1
                    chw = cols.curwork[p1]
                    st.chw = chw
                    done = p1 == n and not chw and not st.tail
                    if done:
                        st.done = True
                    lane_lines.append(cols.lines[p])
                    if cols.isleaf[p]:
                        leaves += 1
                        step_leaves += 1
                        tests += cols.tests[p]
                    else:
                        nodes += 1
                    if chw and not done:
                        nxt.append(ray)
                if not lane_lines:
                    break
                max_latency, missing_lanes, misses = batch(lane_lines, cycle, fold)
                latency = step_latency(
                    config, len(lane_lines), max_latency, missing_lanes, misses,
                    gaussian_leaf_cycles(config, tests, step_leaves)
                    if gaussian else 0.0,
                )
                simt_sum += len(lane_lines) / warp_size
                simt_steps += 1
                mode_c += latency
                mode_t += tests
                tris += tests
                cycle += latency
                work_cycles += latency
                prev_warp_cycles += latency
                active = nxt

            # Park or retire every ray of this treelet warp.
            self.cycle = cycle
            for ray in rays:
                st = ray.state
                if st.done:
                    self._complete(ray, cb)
                    continue
                nxt_treelet = st.next_treelet()
                if nxt_treelet is None:
                    self._complete(ray, cb)
                else:
                    self.queues.push(nxt_treelet, ray)
            cycle = self.cycle
            stats.warps_processed += 1

        self.cycle = cycle
        # Section 4.3: the controller preloads the next treelet while this
        # one is processed, hiding up to this queue's processing time of
        # the next fetch.
        self._preload_credit = work_cycles if preload else 0.0
        stats.mode_cycles[mode] = mode_c
        stats.mode_tests[mode] = mode_t
        stats.simt_active_sum = simt_sum
        stats.simt_steps += simt_steps
        stats.node_visits += nodes
        stats.leaf_visits += leaves
        stats.triangle_tests += tris
        if self.timeline is not None:
            self.timeline.record(
                f"treelet {treelet}", "treelet_stationary", phase_start, self.cycle,
                {"treelet": treelet},
            )

    # -- phase 3: final ray-stationary --------------------------------------------------

    def _try_final_phase(self, cb: RayCallback) -> bool:
        if self.queues.empty():
            return False
        if not self.vtq.group_underpopulated:
            # Naive treelet queues: every queue is processed in treelet-
            # stationary mode no matter how small (Figure 12's baseline),
            # except stray rays evicted from the count table.
            treelet, count = self.queues.largest()
            if treelet is not None and count > 0:
                self._process_treelet_queue(treelet, cb)
                return True
            if not self.queues.stray:
                return False
        rays = self.queues.pop_any(self.config.warp_size)
        if not rays:
            return False
        self._process_final_warp(rays, cb)
        return True

    def _process_final_warp(self, rays: List[SimRay], cb: RayCallback) -> None:
        """Ray-stationary traversal of grouped rays, with warp repacking."""
        phase_start = self.cycle
        mem = self.mem
        stats = self.stats
        config = self.config
        fold = self.fold
        mode = TraversalMode.FINAL_RAY_STATIONARY
        load_latency = 0.0
        for ray in rays:
            lat = mem.ray_data_access(ray.ray_id, self.cycle)
            if lat > load_latency:
                load_latency = lat
        self.cycle += load_latency
        mode_c = stats.mode_cycles[mode]
        mode_t = stats.mode_tests[mode]
        mode_c += load_latency
        simt_sum = stats.simt_active_sum
        simt_steps = 0
        nodes = 0
        leaves = 0
        tris = 0
        warp_size = config.warp_size
        repack_enabled = self.vtq.repack_enabled
        repack_threshold = self.vtq.repack_threshold
        gaussian = getattr(self.bvh, "prim_kind", "triangle") == "gaussian"
        cycle = self.cycle

        active = [r for r in rays if not r.state.done]
        for ray in rays:
            if ray.state.done:  # pragma: no cover - defensive
                self._complete(ray, cb)
        while active:
            lane_lines = []
            tests = 0
            step_leaves = 0
            # ray-stationary pop inlined; final-phase rays have entered chains, so
            # the ci/_ctre resets must stay.
            for ray in active:
                st = ray.state
                p = st.p
                n = st.n
                if p >= n:
                    st.done = True
                    st.chw = False
                    continue
                st.ci = 0
                st._ctre = None
                cols = st.cols
                p1 = p + 1
                st.p = p1
                chw = cols.curwork[p1]
                st.chw = chw
                if p1 == n and not chw and not st.tail:
                    st.done = True
                lane_lines.append(cols.lines[p])
                if cols.isleaf[p]:
                    leaves += 1
                    step_leaves += 1
                    tests += cols.tests[p]
                else:
                    nodes += 1
            if lane_lines:
                max_latency, missing_lanes, misses = mem.access_lines_batch(
                    lane_lines, cycle, fold
                )
                latency = step_latency(
                    config, len(lane_lines), max_latency, missing_lanes, misses,
                    gaussian_leaf_cycles(config, tests, step_leaves)
                    if gaussian else 0.0,
                )
                simt_sum += len(lane_lines) / warp_size
                simt_steps += 1
                mode_c += latency
                mode_t += tests
                tris += tests
                cycle += latency
            self.cycle = cycle
            still_active = []
            for ray in active:
                if ray.state.done:
                    self._complete(ray, cb)
                else:
                    still_active.append(ray)
            cycle = self.cycle
            active = still_active
            if not lane_lines:
                break

            # Warp repacking (Section 4.5): refill a thinning warp with
            # fresh rays from the queues.
            if repack_enabled and active and len(active) < repack_threshold:
                refill = self.queues.pop_any(warp_size - len(active))
                if refill:
                    refill_latency = 0.0
                    for ray in refill:
                        lat = mem.ray_data_access(ray.ray_id, cycle)
                        if lat > refill_latency:
                            refill_latency = lat
                    cycle += refill_latency
                    mode_c += refill_latency
                    stats.warp_repacks += 1
                    self.cycle = cycle
                    for ray in refill:
                        if ray.state.done:  # pragma: no cover - defensive
                            self._complete(ray, cb)
                        else:
                            active.append(ray)
                    cycle = self.cycle
        self.cycle = cycle
        stats.warps_processed += 1
        stats.mode_cycles[mode] = mode_c
        stats.mode_tests[mode] = mode_t
        stats.simt_active_sum = simt_sum
        stats.simt_steps += simt_steps
        stats.node_visits += nodes
        stats.leaf_visits += leaves
        stats.triangle_tests += tris
        if self.timeline is not None:
            self.timeline.record(
                "final warp", "final_ray_stationary", phase_start, self.cycle,
                {"initial_rays": len(rays)},
            )

    # -- completion ---------------------------------------------------------------

    def _complete(self, ray: SimRay, cb: RayCallback) -> None:
        self._rays_in_unit -= 1
        self.stats.rays_completed += 1
        cb(ray, self.cycle)
