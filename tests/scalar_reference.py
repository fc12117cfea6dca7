"""An independent scalar engine: the oracle the production units are held to.

Production runs trace every traversal state once
(:func:`repro.gpusim.soa.trace_states`) and replay the traces through
the policy units' timing loops.  This module runs the same workloads the
slow way, with no traces: real ``PathState``/``RayTraversalState``
objects are stepped warp by warp, one :func:`warp_step` at a time,
interleaving traversal, timing and shading exactly as a live GPU would.

The scalar units (:class:`ScalarBaselineRTUnit`,
:class:`ScalarPrefetchRTUnit`, :class:`ScalarVTQRTUnit`) subclass the
production units and replace only their traversal bodies — the warp
loop, the prefetch step loop and the three VTQ phases — so they share
the scheduler, queue tables, prefetch votes and CTA bookkeeping with
production.  The drivers share no code with :mod:`repro.tracing.render`
or :mod:`repro.rtquery` — only the result types, the STATS_CORRUPT fault
site and the sanitizer, so error paths can be compared too — which makes
every production-vs-reference check a comparison between two
independent traversal and timing implementations.

``reference_render`` takes the same arguments as ``render_scene`` (minus
``plan``) and returns a ``RenderResult``;
``reference_time_queries`` mirrors ``time_queries``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro import settings
from repro.baselines.prefetch import PrefetchRTUnit
from repro.bvh.traversal import single_step
from repro.core.config import VTQConfig
from repro.core.rt_unit_vtq import RayCallback, VTQRTUnit
from repro.core.virtualization import CTATracker, cta_state_bytes
from repro.geometry.morton import ray_sort_keys
from repro.gpusim.config import GPUConfig, scaled_config
from repro.gpusim.memory import AccessKind, MemorySystem, make_shared_l2
from repro.gpusim.rt_unit import BaselineRTUnit
from repro.gpusim.sanitize import check_render
from repro.gpusim.stats import SimStats, TraversalMode
from repro.gpusim.warp import SimRay, TraceWarp, gaussian_leaf_cycles, step_latency
from repro.rtquery import QueryTimingResult
from repro.tracing.path_tracer import PathState, ShadingEngine
from repro.tracing.render import POLICIES, RenderResult, _apply_stats_fault


def reference_render(
    scene,
    bvh,
    setup,
    policy: str = "baseline",
    vtq_config: Optional[VTQConfig] = None,
    seed: int = 0,
    cycle_budget: Optional[float] = None,
    sanitize: Optional[bool] = None,
    record_timeline: bool = False,
) -> RenderResult:
    """Path trace ``scene`` through the scalar policy units."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    config = setup.gpu
    width, height = setup.image_width, setup.image_height
    pixels = width * height
    spp = max(1, setup.samples_per_pixel)

    shading = ShadingEngine(scene, bvh, max_bounces=setup.max_bounces, seed=seed)
    # Sample-major path slots: all of sample 0's pixels, then sample 1's.
    paths: List[PathState] = []
    for sample in range(spp):
        jitter = sample if spp > 1 else None
        primaries = scene.camera.primary_rays(width, height, jitter_seed=jitter)
        paths.extend(
            shading.make_primary(
                p, primaries.origins[p], primaries.directions[p], sample=sample
            )
            for p in range(pixels)
        )

    shared_l2 = make_shared_l2(config)
    sm_stats = [SimStats() for _ in range(config.num_sms)]
    mems = [MemorySystem(config, sm_stats[i], shared_l2) for i in range(config.num_sms)]
    if vtq_config is None:
        vtq_config = VTQConfig().scaled_to(config.max_virtual_rays_per_sm)
    driver_cls = {
        "baseline": _WarpDriver,
        "prefetch": _WarpDriver,
        "sorted": _SortedDriver,
        "vtq": _VTQDriver,
    }[policy]

    per_sm_cycles: List[float] = []
    next_ray_id = [0]
    timelines: List = []
    for sm in range(config.num_sms):
        timeline = None
        if record_timeline:
            from repro.gpusim.timeline import ActivityTimeline

            timeline = ActivityTimeline(sm)
            timelines.append(timeline)
        driver = driver_cls(
            sm, scene, bvh, config, shading, paths, mems[sm], sm_stats[sm],
            vtq_config, policy, next_ray_id, cycle_budget, timeline,
        )
        per_sm_cycles.append(driver.run())

    merged = SimStats()
    for stats in sm_stats:
        merged.merge(stats)
    accum = np.zeros((pixels, 3))
    for path in paths:
        accum[path.pixel] += path.radiance
    result = RenderResult(
        policy=policy,
        image=(accum / spp).reshape(height, width, 3),
        stats=merged,
        cycles=max(per_sm_cycles) if per_sm_cycles else 0.0,
        per_sm_cycles=per_sm_cycles,
        scene_name=getattr(scene, "name", ""),
        timelines=timelines,
    )
    _apply_stats_fault(result)
    if sanitize or (sanitize is None and settings.get("REPRO_SANITIZE")):
        check_render(result, setup)
    return result


class _DriverBase:
    """Pixel -> CTA -> warp plumbing shared by all policies."""

    def __init__(
        self, sm, scene, bvh, config, shading, paths, mem, stats,
        vtq_config, policy, ray_id_counter, cycle_budget, timeline,
    ):
        self.sm = sm
        self.scene = scene
        self.bvh = bvh
        self.config = config
        self.shading = shading
        self.paths = paths
        self.mem = mem
        self.stats = stats
        self.vtq_config = vtq_config
        self.policy = policy
        self._ray_id_counter = ray_id_counter
        self.cycle_budget = cycle_budget
        self.timeline = timeline

    def _new_ray_id(self) -> int:
        rid = self._ray_id_counter[0]
        self._ray_id_counter[0] += 1
        return rid

    def _sm_ctas(self) -> List[List[int]]:
        """Path-slot lists of the CTAs this SM owns (round-robin)."""
        config = self.config
        slots = len(self.paths)
        ctas = []
        for cta_start in range(0, slots, config.cta_threads):
            cta_id = cta_start // config.cta_threads
            if cta_id % config.num_sms == self.sm:
                ctas.append(list(range(cta_start, min(cta_start + config.cta_threads, slots))))
        return ctas

    def _primary_cta_warps(self) -> List[tuple]:
        """``(cta_id, warps)`` for each CTA this SM owns, launch-staggered."""
        config = self.config
        out = []
        for local_idx, pixel_list in enumerate(self._sm_ctas()):
            cta_id = pixel_list[0] // config.cta_threads
            wave = local_idx // config.max_cta_per_sm
            base_ready = (
                config.cta_launch_cycles
                + config.raygen_cycles_per_warp
                + wave * config.raygen_cycles_per_warp
            )
            warps = []
            for w_start in range(0, len(pixel_list), config.warp_size):
                lane_pixels = pixel_list[w_start : w_start + config.warp_size]
                rays = [
                    SimRay(
                        self._new_ray_id(), p, cta_id, 0,
                        self.shading.begin_traversal(self.paths[p]),
                    )
                    for p in lane_pixels
                ]
                warps.append(TraceWarp(rays, cta_id, ready_cycle=float(base_ready)))
            out.append((cta_id, warps))
        return out

    def _shade_ray(self, ray: SimRay) -> Optional[SimRay]:
        """Shade a completed traversal; returns the next bounce's ray or None."""
        path = self.paths[ray.pixel]
        if self.shading.shade(path, ray.state):
            return SimRay(
                self._new_ray_id(), ray.pixel, ray.cta_id, path.bounce,
                self.shading.begin_traversal(path),
            )
        return None


class _WarpDriver(_DriverBase):
    """Baseline / prefetch: a warp shades and re-issues its survivors."""

    def run(self) -> float:
        config = self.config
        unit = (
            ScalarPrefetchRTUnit if self.policy == "prefetch" else ScalarBaselineRTUnit
        )
        engine = unit(
            self.bvh, config, self.mem, self.stats, cycle_budget=self.cycle_budget,
        )
        engine.timeline = self.timeline

        def on_complete(warp: TraceWarp, cycle: float) -> None:
            survivors = []
            for ray in warp.rays:
                nxt = self._shade_ray(ray)
                if nxt is not None:
                    survivors.append(nxt)
            if survivors:
                engine.submit(
                    TraceWarp(
                        survivors, warp.cta_id,
                        ready_cycle=cycle + config.shade_cycles_per_warp,
                    )
                )

        for _cta_id, warps in self._primary_cta_warps():
            for warp in warps:
                engine.submit(warp)
        return engine.run(on_complete)


class _SortedDriver(_DriverBase):
    """Software ray sorting: each bounce's rays are sorted by keys computed
    from their live origins and directions at the bounce barrier."""

    def run(self) -> float:
        config = self.config
        engine = ScalarBaselineRTUnit(
            self.bvh, config, self.mem, self.stats, cycle_budget=self.cycle_budget,
        )
        engine.timeline = self.timeline
        bounds = self.scene.mesh.bounds()
        next_bounce: List[SimRay] = []

        def on_complete(warp: TraceWarp, cycle: float) -> None:
            for ray in warp.rays:
                nxt = self._shade_ray(ray)
                if nxt is not None:
                    next_bounce.append(nxt)

        for _cta_id, warps in self._primary_cta_warps():
            for warp in warps:
                engine.submit(warp)
        cycle = engine.run(on_complete)

        while next_bounce:
            rays = next_bounce[:]
            next_bounce.clear()
            origins = np.array([[r.state.ox, r.state.oy, r.state.oz] for r in rays])
            directions = np.array([[r.state.dx, r.state.dy, r.state.dz] for r in rays])
            keys = ray_sort_keys(origins, directions, bounds.lo, bounds.hi)
            order = np.argsort(keys, kind="stable")
            sort_cost = len(rays) * config.ray_sort_cycles_per_key
            ready = cycle + config.shade_cycles_per_warp + sort_cost
            for start in range(0, len(order), config.warp_size):
                group = [rays[i] for i in order[start : start + config.warp_size]]
                engine.submit(TraceWarp(group, group[0].cta_id, ready_cycle=ready))
            cycle = engine.run(on_complete)
        return cycle


class _VTQDriver(_DriverBase):
    """VTQ: ray-granular completion, CTA save/restore and resume."""

    def run(self) -> float:
        config = self.config
        vtq = self.vtq_config
        engine = ScalarVTQRTUnit(
            self.bvh, config, vtq, self.mem, self.stats,
            cycle_budget=self.cycle_budget,
        )
        engine.timeline = self.timeline
        tracker = CTATracker()
        state_bytes = cta_state_bytes(config)
        state_lines = (state_bytes + config.line_bytes - 1) // config.line_bytes
        bandwidth_occupancy = float(config.dram_line_transfer * state_lines)

        def charge_save() -> None:
            if vtq.virtualization_overheads:
                self.mem.cta_state_transfer(state_bytes)
                engine.cycle += bandwidth_occupancy
            self.stats.cta_saves += 1

        def resume_latency() -> float:
            self.stats.cta_restores += 1
            if not vtq.virtualization_overheads:
                return 0.0
            restore = self.mem.cta_state_transfer(state_bytes)
            engine.cycle += bandwidth_occupancy
            return restore + config.cta_resume_schedule_cycles

        def on_ray_complete(ray: SimRay, cycle: float) -> None:
            done = tracker.ray_done(ray.cta_id, ray.bounce, ray)
            if done is None:
                return
            latency = resume_latency()
            survivors = [nxt for nxt in (self._shade_ray(r) for r in done) if nxt]
            if not survivors:
                return
            tracker.suspend(done[0].cta_id, survivors[0].bounce, len(survivors))
            charge_save()
            ready = cycle + latency + config.shade_cycles_per_warp
            for w_start in range(0, len(survivors), config.warp_size):
                engine.submit(
                    TraceWarp(
                        survivors[w_start : w_start + config.warp_size],
                        done[0].cta_id,
                        ready_cycle=ready,
                    )
                )

        for cta_id, warps in self._primary_cta_warps():
            tracker.suspend(cta_id, 0, sum(len(w.rays) for w in warps))
            charge_save()
            for warp in warps:
                engine.submit(warp)
        return engine.run(on_ray_complete)


def reference_time_queries(
    bvh,
    state_factory,
    num_queries: int,
    policy: str = "baseline",
    config: Optional[GPUConfig] = None,
    vtq: Optional[VTQConfig] = None,
) -> QueryTimingResult:
    """:func:`repro.rtquery.time_queries` on the scalar units: the query
    states are stepped live instead of traced up front."""
    config = config or scaled_config()
    stats = SimStats()
    mem = MemorySystem(config, stats, make_shared_l2(config))
    if vtq is None:
        vtq = VTQConfig().scaled_to(min(config.max_virtual_rays_per_sm, num_queries))
    if policy == "vtq":
        engine = ScalarVTQRTUnit(bvh, config, vtq, mem, stats)
    else:
        unit = {"baseline": ScalarBaselineRTUnit, "prefetch": ScalarPrefetchRTUnit}
        engine = unit[policy](bvh, config, mem, stats)
    states = [state_factory(i) for i in range(num_queries)]
    rays = [SimRay(i, i, i // config.cta_threads, 0, states[i])
            for i in range(num_queries)]
    for start in range(0, num_queries, config.warp_size):
        engine.submit(
            TraceWarp(rays[start : start + config.warp_size],
                      cta_id=start // config.cta_threads)
        )
    if policy == "vtq":
        cycles = engine.run(lambda ray, cycle: None)
    else:
        cycles = engine.run()
    return QueryTimingResult(policy=policy, cycles=cycles, stats=stats, states=states)


# ---------------------------------------------------------------------------
# The scalar RT units: live traversal states, one single_step per lane


def warp_step(
    bvh,
    rays: List[SimRay],
    mem: MemorySystem,
    config: GPUConfig,
    stats: SimStats,
    cycle: float,
    mode: TraversalMode,
    in_treelet_only: bool = False,
) -> Tuple[float, List[SimRay], int]:
    """Advance every unfinished ray of ``rays`` by one item visit.

    Returns ``(latency, stepped, tests)``: the step's latency in cycles,
    the rays that actually advanced, and the triangle tests performed.
    Rays whose step returns ``None`` (finished, or parked at a treelet
    boundary when ``in_treelet_only``) are left untouched and excluded
    from ``stepped``.

    Memory accesses of the lanes overlap: the step waits for the slowest
    lane (memory divergence), exactly the RT-unit behaviour the paper's
    SIMT-efficiency argument relies on.
    """
    max_latency = 0.0
    missing_lanes = 0
    misses = 0
    stepped: List[SimRay] = []
    tests = 0
    step_leaves = 0
    gaussian = getattr(bvh, "prim_kind", "triangle") == "gaussian"
    item_lines = bvh.item_lines
    for ray in rays:
        result = single_step(bvh, ray.state, in_treelet_only=in_treelet_only)
        if result is None:
            continue
        item, is_leaf, ray_tests = result
        access_latency, ray_misses = mem.access_lines(
            item_lines[item], AccessKind.BVH, cycle
        )
        max_latency = max(max_latency, access_latency)
        if ray_misses:
            missing_lanes += 1
            misses += ray_misses
        stepped.append(ray)
        tests += ray_tests
        if is_leaf:
            step_leaves += 1
            stats.leaf_visits += 1
        else:
            stats.node_visits += 1
    if not stepped:
        return 0.0, [], 0
    stats.triangle_tests += tests
    latency = step_latency(
        config, len(stepped), max_latency, missing_lanes, misses,
        gaussian_leaf_cycles(config, tests, step_leaves) if gaussian else 0.0,
    )
    stats.record_simt(len(stepped), config.warp_size)
    stats.record_mode(mode, latency, tests)
    return latency, stepped, tests


class ScalarBaselineRTUnit(BaselineRTUnit):
    """The baseline unit stepping live ``RayTraversalState`` lanes.

    Subclass names contain the production names, so SIM_STALL fault
    specs written against the production units fire here too.
    """

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


class ScalarPrefetchRTUnit(PrefetchRTUnit):
    """The prefetch unit stepping live lanes; votes, outstanding-prefetch
    bookkeeping and the demand-miss hook are the production unit's."""

    def process_warp(self, warp: TraceWarp) -> None:
        active = warp.active_rays()
        launched = len(active)
        steps = 0
        while active:
            if steps % self.reevaluate_steps == 0:
                # With a warp buffer of one, "rays in the RT unit" are the
                # current warp's rays.
                self._refresh_votes(active)
                # Stop tracking prefetches for treelets nobody wants now.
                self._settle_outstanding(keep=self._popular_treelets())
            # Items at the rays' stack tops are what the next step fetches;
            # mark any the prefetcher brought in as used.
            self._note_accesses(active)
            latency, stepped, _ = warp_step(
                self.bvh, active, self.mem, self.config, self.stats,
                self.cycle, self._mode,
            )
            if not stepped:
                break
            self.cycle += latency
            steps += 1
            active = [r for r in active if not r.finished()]
        # Rays can finish inside a step and be excluded from ``stepped``;
        # refilter before counting completions.
        active = [r for r in active if not r.finished()]
        self.stats.rays_completed += launched - len(active)
        self.stats.warps_processed += 1


class ScalarVTQRTUnit(VTQRTUnit):
    """The VTQ unit stepping live lanes; the scheduler, queue tables and
    CTA bookkeeping are the production unit's."""

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
