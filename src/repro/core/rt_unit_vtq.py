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
final-phase warp) and advances the SM-local cycle counter.
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
from repro.gpusim.stats import SimStats, TraversalMode
from repro.gpusim.warp import SimRay, TraceWarp, warp_step

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
                recorder = self.mem.recorder
                if recorder is not None:
                    recorder.advance_to(self._incoming[0][0])
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

    def _position_treelet(self, ray: SimRay) -> Optional[int]:
        """The treelet a ray is currently in / will enter next."""
        state = ray.state
        if state.has_current_work():
            return state.current_treelet
        return state.next_treelet()

    def _initial_phase(self, rays: List[SimRay], cb: RayCallback) -> None:
        """Ray-stationary traversal of an arriving warp until it diverges."""
        phase_start = self.cycle
        self._rays_in_unit += len(rays)
        # Writing the warp's ray records into the reserved L2 region;
        # store traffic only (stores retire through the write queue).
        for ray in rays:
            self.mem.ray_data_access(ray.ray_id, self.cycle, write=True)

        active = [r for r in rays if not r.finished()]
        for ray in rays:
            if ray.finished():  # degenerate: ray submitted already done
                self._complete(ray, cb)
        while active:
            treelets = {self._position_treelet(r) for r in active}
            treelets.discard(None)
            if len(treelets) > self.vtq.divergence_threshold:
                break
            latency, stepped, _ = warp_step(
                self.bvh, active, self.mem, self.config, self.stats,
                self.cycle, TraversalMode.INITIAL_RAY_STATIONARY,
            )
            self.cycle += latency
            # Sweep finished rays (they can finish for free via culling even
            # when their step returned no work) before the break decision.
            still_active = []
            for ray in active:
                if ray.finished():
                    self._complete(ray, cb)
                else:
                    still_active.append(ray)
            active = still_active
            if not stepped:
                break

        # Terminate the warp: write surviving rays to the treelet queues.
        for ray in active:
            treelet = self._position_treelet(ray)
            if treelet is None:  # pragma: no cover - finished rays left above
                self._complete(ray, cb)
            else:
                self.queues.push(treelet, ray)
        self.stats.warps_processed += 1
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
        fetch_latency = self.mem.fetch_treelet(
            self.bvh.treelet_lines[treelet], self.cycle
        )
        if self.vtq.preload_enabled:
            overlap = min(self._preload_credit, fetch_latency)
            fetch_latency -= overlap
        self.cycle += fetch_latency
        self.stats.record_mode(TraversalMode.TREELET_STATIONARY, fetch_latency)

        work_cycles = 0.0
        warp_size = self.config.warp_size
        prev_warp_cycles = 0.0
        while True:
            rays = self.queues.pop_warp(treelet, warp_size)
            if not rays:
                break
            # Ray data loads from the reserved L2 region (bypassing L1);
            # the lanes' loads overlap.  With preloading (Section 4.3:
            # "Ray data can also be preloaded similarly") the controller
            # fetches the next warp's records while the current warp
            # steps, hiding the load behind the previous warp's work.
            load_latency = 0.0
            for ray in rays:
                load_latency = max(
                    load_latency, self.mem.ray_data_access(ray.ray_id, self.cycle)
                )
            if self.vtq.preload_enabled:
                load_latency = max(0.0, load_latency - prev_warp_cycles)
            self.cycle += load_latency
            work_cycles += load_latency
            self.stats.record_mode(TraversalMode.TREELET_STATIONARY, load_latency)
            prev_warp_cycles = 0.0

            for ray in rays:
                if not ray.state.has_current_work():
                    ray.state.enter_treelet(treelet)

            active = [r for r in rays if not r.finished()]
            while active:
                latency, stepped, _ = warp_step(
                    self.bvh, active, self.mem, self.config, self.stats,
                    self.cycle, TraversalMode.TREELET_STATIONARY,
                    in_treelet_only=True,
                )
                if not stepped:
                    break
                self.cycle += latency
                work_cycles += latency
                prev_warp_cycles += latency
                active = [
                    r for r in active
                    if not r.finished() and r.state.has_current_work()
                ]

            # Park or retire every ray of this treelet warp.
            for ray in rays:
                if ray.finished():
                    self._complete(ray, cb)
                    continue
                nxt = ray.state.next_treelet()
                if nxt is None:
                    self._complete(ray, cb)
                else:
                    self.queues.push(nxt, ray)
            self.stats.warps_processed += 1

        # Section 4.3: the controller preloads the next treelet while this
        # one is processed, hiding up to this queue's processing time of
        # the next fetch.
        self._preload_credit = work_cycles if self.vtq.preload_enabled else 0.0
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
        load_latency = 0.0
        for ray in rays:
            load_latency = max(
                load_latency, self.mem.ray_data_access(ray.ray_id, self.cycle)
            )
        self.cycle += load_latency
        self.stats.record_mode(TraversalMode.FINAL_RAY_STATIONARY, load_latency)

        active = [r for r in rays if not r.finished()]
        for ray in rays:
            if ray.finished():  # pragma: no cover - defensive
                self._complete(ray, cb)
        while active:
            latency, stepped, _ = warp_step(
                self.bvh, active, self.mem, self.config, self.stats,
                self.cycle, TraversalMode.FINAL_RAY_STATIONARY,
            )
            self.cycle += latency
            # Rays can finish *inside* a step for free when their remaining
            # stack entries are all culled — including rays whose step
            # returned no work (absent from `stepped`).  Sweep finished
            # rays before deciding whether the warp is done.
            still_active = []
            for ray in active:
                if ray.finished():
                    self._complete(ray, cb)
                else:
                    still_active.append(ray)
            active = still_active
            if not stepped:
                break

            if (
                self.vtq.repack_enabled
                and active
                and len(active) < self.vtq.repack_threshold
            ):
                refill = self.queues.pop_any(self.config.warp_size - len(active))
                if refill:
                    refill_latency = 0.0
                    for ray in refill:
                        refill_latency = max(
                            refill_latency,
                            self.mem.ray_data_access(ray.ray_id, self.cycle),
                        )
                    self.cycle += refill_latency
                    self.stats.record_mode(
                        TraversalMode.FINAL_RAY_STATIONARY, refill_latency
                    )
                    self.stats.warp_repacks += 1
                    for ray in refill:
                        if ray.finished():  # pragma: no cover - defensive
                            self._complete(ray, cb)
                        else:
                            active.append(ray)
        self.stats.warps_processed += 1
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
