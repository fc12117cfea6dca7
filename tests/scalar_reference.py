"""An independent scalar renderer: the oracle the replay engine is held to.

``render_scene`` replays a precomputed render plan through the SoA
timing engines.  This module renders the same scene the slow way, with
no plan: real ``PathState``/``RayTraversalState`` objects are stepped
warp by warp through the scalar policy units (``BaselineRTUnit``,
``PrefetchRTUnit``, ``VTQRTUnit`` and :func:`repro.gpusim.warp.warp_step`),
interleaving traversal, timing and shading exactly as a live GPU would.
It shares no driver code with :mod:`repro.tracing.render` — only the
result type, the STATS_CORRUPT fault site and the sanitizer, so error
paths can be compared too — which makes every replay-vs-reference check
a comparison between two independent implementations.

``reference_render`` takes the same arguments as ``render_scene`` (minus
the trace recorder) and returns a ``RenderResult``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro import settings
from repro.baselines.prefetch import PrefetchRTUnit
from repro.core.config import VTQConfig
from repro.core.rt_unit_vtq import VTQRTUnit
from repro.core.virtualization import CTATracker, cta_state_bytes
from repro.geometry.morton import ray_sort_keys
from repro.gpusim.memory import MemorySystem, make_shared_l2
from repro.gpusim.rt_unit import BaselineRTUnit
from repro.gpusim.sanitize import check_render
from repro.gpusim.stats import SimStats
from repro.gpusim.warp import SimRay, TraceWarp
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
        unit = PrefetchRTUnit if self.policy == "prefetch" else BaselineRTUnit
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
        engine = BaselineRTUnit(
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
        engine = VTQRTUnit(
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
