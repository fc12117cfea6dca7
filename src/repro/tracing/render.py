"""Render drivers: run a scene through a timing engine, end to end.

``render_scene`` is the single entry point the examples, tests and
benchmark harness use.  It:

1. fetches the scene's render plan (:func:`repro.gpusim.soa.get_plan`:
   primary rays, path tracing and shading, run once per scene and
   shared by every policy and GPU configuration),
2. groups path slots into CTAs and assigns CTAs round-robin to SMs,
3. instantiates the selected policy unit per SM over a shared L2,
4. replays each bounce's traces through the engines, re-issuing the
   rays the plan says survived shading,
5. returns the image plus merged statistics and the cycle count (max over
   SMs — they run concurrently).

Policies:

* ``"baseline"``      — ray-stationary RT unit (paper's baseline GPU).
* ``"prefetch"``      — Treelet Prefetching, Chou et al. MICRO'23.
* ``"sorted"``        — software ray sorting (Garanzha & Loop 2010):
  each bounce's secondary rays are sorted by (direction octant, origin
  Morton code) before re-forming warps; the sort itself costs cycles —
  the overhead the paper's related-work section points at.
* ``"vtq"``           — Virtualized Treelet Queues (the contribution).

The functional image is identical across policies (deterministic
hash-based sampling; traversal is exact), which the test suite exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro import faults, settings
from repro.baselines.prefetch import PrefetchRTUnit
from repro.core.config import VTQConfig
from repro.core.rt_unit_vtq import VTQRTUnit
from repro.core.virtualization import CTATracker, cta_state_bytes
from repro.gpusim.config import ScaledSetup
from repro.gpusim.memory import MemorySystem, make_shared_l2
from repro.gpusim.rt_unit import BaselineRTUnit
from repro.gpusim.soa import RenderPlan, get_plan
from repro.gpusim.stats import SimStats
from repro.gpusim.warp import SimRay, TraceWarp

POLICIES = ("baseline", "prefetch", "sorted", "vtq")


@dataclass
class RenderResult:
    """Everything one simulated render produces."""

    policy: str
    image: np.ndarray           # (H, W, 3) linear radiance
    stats: SimStats             # merged across SMs
    cycles: float               # max over SMs (they run concurrently)
    per_sm_cycles: List[float]
    scene_name: str = ""
    # One ActivityTimeline per SM when the render was asked to record
    # spans (``record_timeline=True``); empty otherwise.
    timelines: List = field(default_factory=list)
    # Always None: every render replays its plan.  Kept only because the
    # benchmark's span tracer (perfbench/spans.py) reads it.
    engine_fallback_reason: Optional[str] = None

    def mean_radiance(self) -> float:
        return float(self.image.mean())


def render_scene(
    scene,
    bvh,
    setup: ScaledSetup,
    policy: str = "baseline",
    vtq_config: Optional[VTQConfig] = None,
    seed: int = 0,
    cycle_budget: Optional[float] = None,
    sanitize: Optional[bool] = None,
    record_timeline: bool = False,
    plan: Optional[RenderPlan] = None,
) -> RenderResult:
    """Path trace ``scene`` through the selected timing engine.

    ``cycle_budget`` bounds each SM's simulated cycles (the engine raises
    :class:`repro.errors.BudgetExceeded` past it).  ``sanitize`` runs the
    post-render invariant checks of :mod:`repro.gpusim.sanitize`;
    ``None`` defers to the ``REPRO_SANITIZE`` environment variable.
    ``record_timeline`` attaches one
    :class:`repro.gpusim.timeline.ActivityTimeline` per SM (returned in
    ``RenderResult.timelines``) — recording is purely observational and
    does not change any simulated number.  ``plan`` replays a given
    render plan (a loaded memory trace's, :mod:`repro.memtrace`) instead
    of fetching the scene's; ``scene`` then only names the result.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    config = setup.gpu
    if plan is None:
        plan = get_plan(scene, bvh, setup, seed)

    shared_l2 = make_shared_l2(config)
    sm_stats = [SimStats() for _ in range(config.num_sms)]
    mems = [MemorySystem(config, sm_stats[i], shared_l2) for i in range(config.num_sms)]

    if vtq_config is None:
        vtq_config = VTQConfig().scaled_to(config.max_virtual_rays_per_sm)

    driver_cls = _DRIVERS[policy]
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
            sm, bvh, config, plan, mems[sm], sm_stats[sm], vtq_config, policy,
            next_ray_id, cycle_budget=cycle_budget, timeline=timeline,
        )
        per_sm_cycles.append(driver.run())

    merged = SimStats()
    for stats in sm_stats:
        merged.merge(stats)
    image = (plan.image_accum() / plan.spp).reshape(
        setup.image_height, setup.image_width, 3
    )
    result = RenderResult(
        policy=policy,
        image=image,
        stats=merged,
        cycles=max(per_sm_cycles) if per_sm_cycles else 0.0,
        per_sm_cycles=per_sm_cycles,
        scene_name=getattr(scene, "name", ""),
        timelines=timelines,
    )
    _apply_stats_fault(result)
    from repro.gpusim.sanitize import check_render

    if sanitize or (sanitize is None and settings.get("REPRO_SANITIZE")):
        check_render(result, setup)
    # Publish the run's merged stats into the process-wide metrics
    # registry (repro.obs).  Purely observational: the bridge only reads
    # the stats snapshot, so no simulated number changes.
    from repro.obs import record_sim_stats

    record_sim_stats(merged, scene=result.scene_name, policy=policy)
    return result


def _apply_stats_fault(result: RenderResult) -> None:
    """The STATS_CORRUPT fault site: deliberately break one invariant so
    tests can prove the sanitizer catches it."""
    key = f"{result.scene_name}:{result.policy}"
    spec = faults.should_fire(faults.STATS_CORRUPT, key)
    if spec is None:
        return
    invariant = spec.payload.get("invariant", "rays")
    stats = result.stats
    if invariant == "rays":
        stats.rays_completed += 1
    elif invariant == "queues":
        stats.treelet_queue_pushes += 7
    elif invariant == "cache":
        stats.cache_hits[("l1", "bvh")] = stats.cache_accesses[("l1", "bvh")] + 1
    elif invariant == "energy":
        stats.triangle_tests = -abs(stats.triangle_tests) - 1
    else:
        raise ValueError(f"unknown stats invariant {invariant!r}")


class _DriverBase:
    """Pixel -> CTA -> warp plumbing shared by all policies.

    Rays carry :class:`~repro.gpusim.soa.ReplayState` cursors into the
    plan's per-bounce batches; shading is a row lookup (the plan recorded
    which paths survived each bounce).  Rays are issued and ray ids allocated in the order a
    live path tracer would issue them — primaries CTA by CTA, then each
    completion's survivors — which keeps the ray-data address stream
    identical to the reference renderer's.
    """

    def __init__(
        self, sm, bvh, config, plan, mem, stats, vtq_config, policy,
        ray_id_counter, cycle_budget=None, timeline=None,
    ):
        self.sm = sm
        self.bvh = bvh
        self.config = config
        self.plan = plan
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
        """Path-slot lists of the CTAs this SM owns (round-robin assignment).

        Slots cover all samples of all pixels (sample-major), so at
        spp > 1 each sample's screen tiles form their own CTAs.
        """
        config = self.config
        slots = self.plan.num_slots
        ctas = []
        for cta_start in range(0, slots, config.cta_threads):
            cta_id = cta_start // config.cta_threads
            if cta_id % config.num_sms == self.sm:
                ctas.append(list(range(cta_start, min(cta_start + config.cta_threads, slots))))
        return ctas

    def _primary_cta_warps(self) -> List[tuple]:
        """``(cta_id, warps)`` for each CTA this SM owns, launch-staggered."""
        config = self.config
        plan = self.plan
        out = []
        for local_idx, pixel_list in enumerate(self._sm_ctas()):
            cta_id = pixel_list[0] // config.cta_threads
            # CTAs launch in waves limited by the per-SM CTA slots; each
            # wave's raygen cost staggers its warps' arrival at the RT unit.
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
                    SimRay(self._new_ray_id(), p, cta_id, 0, plan.replay_state(p, 0))
                    for p in lane_pixels
                ]
                warps.append(TraceWarp(rays, cta_id, ready_cycle=float(base_ready)))
            out.append((cta_id, warps))
        return out

    def _shade_ray(self, ray: SimRay) -> Optional[SimRay]:
        """The next bounce's ray for a completed traversal, or None when
        the plan says the path ended there."""
        state = self.plan.replay_state(ray.pixel, ray.bounce + 1)
        if state is None:
            return None
        return SimRay(
            self._new_ray_id(), ray.pixel, ray.cta_id, ray.bounce + 1, state
        )


class _WarpDriver(_DriverBase):
    """Driver for warp-completion engines (baseline, prefetch).

    Without ray virtualization a warp's threads stall in the raygen shader
    until traversal completes, then shade and issue the next bounce from
    the same warp — dead lanes stay dead, which is the baseline's SIMT
    inefficiency on secondary bounces.
    """

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
    """Software ray sorting (Garanzha & Loop 2010) over the baseline unit.

    Primary rays are traced as-is (they are screen-coherent already); each
    bounce's secondary rays are collected at a bounce barrier, sorted by
    the (direction octant, origin Morton code) key the plan stored for
    them, re-formed into warps and traced.  The sort is charged per key —
    the overhead that made the paper prefer treelet queues ("taking
    almost as long as ray traversal itself").
    """

    def run(self) -> float:
        config = self.config
        engine = BaselineRTUnit(
            self.bvh, config, self.mem, self.stats, cycle_budget=self.cycle_budget,
        )
        engine.timeline = self.timeline
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
            # A stable sort, like the argsort a live bounce barrier runs.
            rays = sorted(next_bounce, key=lambda ray: ray.state.sort_key)
            next_bounce.clear()
            sort_cost = len(rays) * config.ray_sort_cycles_per_key
            ready = cycle + config.shade_cycles_per_warp + sort_cost
            for start in range(0, len(rays), config.warp_size):
                group = rays[start : start + config.warp_size]
                engine.submit(TraceWarp(group, group[0].cta_id, ready_cycle=ready))
            cycle = engine.run(on_complete)
        return cycle


class _VTQDriver(_DriverBase):
    """Driver for the VTQ engine: ray-granular completion + CTA resume.

    Ray virtualization (Section 4.1): a CTA suspends after issuing its
    rays (state saved to memory), resumes when its last ray finishes
    (state restored, injected into the CTA scheduler), shades, issues the
    next bounce's rays and suspends again.
    """

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

        # Streaming a CTA's state occupies the memory path the RT unit
        # shares; the line-transfer portion of each save/restore shows up
        # as RT-unit timeline occupancy (the paper's ~10% overhead is
        # "predominantly from the increased memory accesses to save and
        # load CTA states").
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
            # CTA ready: restore state, shade every lane, issue next bounce.
            latency = resume_latency()
            survivors = [nxt for nxt in (self._shade_ray(r) for r in done) if nxt]
            if not survivors:
                return
            bounce = survivors[0].bounce
            tracker.suspend(done[0].cta_id, bounce, len(survivors))
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
            total_rays = sum(len(w.rays) for w in warps)
            tracker.suspend(cta_id, 0, total_rays)
            charge_save()
            for warp in warps:
                engine.submit(warp)
        return engine.run(on_ray_complete)


_DRIVERS = {
    "baseline": _WarpDriver,
    "prefetch": _WarpDriver,
    "sorted": _SortedDriver,
    "vtq": _VTQDriver,
}
