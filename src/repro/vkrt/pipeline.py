"""The ray tracing pipeline: shader dispatch over the timing engines.

A raygen shader is a generator function::

    def raygen(launch_id, payload):
        hit = yield TraceCall(origin, direction)   # traceRayEXT()
        if hit.hit:
            hit2 = yield TraceCall(hit.position, shadow_dir)  # another trace
        payload["color"] = ...

Each ``yield`` suspends the thread while the simulated RT unit traverses
its ray; closest-hit / miss callbacks run on the result (and may mutate
the payload), then the generator resumes with the :class:`HitInfo`.  When
the generator returns, the thread retires.

A warp's rays are traced (:func:`~repro.gpusim.soa.trace_states`) when
the warp is submitted, and the RT unit replays the traced batch for timing:
a traversal's result does not depend on timing, so the hit a thread
resumes with is the one live traversal would have produced.

Under the ``"vtq"`` policy, suspended generators of a CTA are collected
and resumed together when the CTA's last ray completes — the pipeline's
ray virtualization is the paper's, acted out by Python coroutines.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional

import numpy as np

from repro.baselines.prefetch import PrefetchRTUnit
from repro.bvh.traversal import TraversalOrder, init_traversal
from repro.core.config import VTQConfig
from repro.core.rt_unit_vtq import VTQRTUnit
from repro.core.virtualization import CTATracker, cta_state_bytes
from repro.gpusim.config import GPUConfig, scaled_config
from repro.gpusim.memory import MemorySystem, make_shared_l2
from repro.gpusim.rt_unit import BaselineRTUnit
from repro.gpusim.soa import ReplayState, trace_states
from repro.gpusim.stats import SimStats
from repro.gpusim.warp import SimRay, TraceWarp
from repro.vkrt.types import HitInfo, LaunchResult, TraceCall

RaygenShader = Callable[[int, Any], Generator]
HitShader = Callable[[int, Any, HitInfo], None]


class _Thread:
    """One raygen invocation: its generator, payload and pending trace."""

    __slots__ = ("launch_id", "payload", "generator", "finished", "pending")

    def __init__(self, launch_id: int, payload: Any, generator: Generator):
        self.launch_id = launch_id
        self.payload = payload
        self.generator = generator
        self.finished = False
        self.pending: Optional[TraceCall] = None


class RayTracingPipeline:
    """A Vulkan-style pipeline binding shader callbacks to the simulator.

    Parameters
    ----------
    raygen:
        ``raygen(launch_id, payload)`` generator function; each yielded
        :class:`TraceCall` is one ``traceRayEXT()``.
    closest_hit / miss:
        Optional callbacks ``(launch_id, payload, hit_info)`` run before
        the raygen resumes, on hit and miss respectively.
    make_payload:
        ``make_payload(launch_id)`` builds each thread's payload
        (default: an empty dict).
    """

    def __init__(
        self,
        raygen: RaygenShader,
        closest_hit: Optional[HitShader] = None,
        miss: Optional[HitShader] = None,
        make_payload: Optional[Callable[[int], Any]] = None,
    ):
        self.raygen = raygen
        self.closest_hit = closest_hit
        self.miss = miss
        self.make_payload = make_payload or (lambda launch_id: {})

    # -- launching ------------------------------------------------------------------

    def launch(
        self,
        bvh,
        width: int,
        height: int,
        policy: str = "baseline",
        config: Optional[GPUConfig] = None,
        vtq: Optional[VTQConfig] = None,
        mesh=None,
    ) -> LaunchResult:
        """Run a ``width x height`` grid of raygen threads.

        ``mesh`` (default: ``bvh.mesh``) provides normals and material
        ids for :class:`HitInfo` resolution.
        """
        if width < 1 or height < 1:
            raise ValueError("launch grid must be at least 1x1")
        if policy not in ("baseline", "prefetch", "vtq"):
            raise ValueError(f"unknown policy {policy!r}")
        config = config or scaled_config()
        mesh = mesh if mesh is not None else bvh.mesh
        normals = mesh.triangle_normals()
        material_ids = mesh.material_ids

        count = width * height
        threads = []
        for launch_id in range(count):
            payload = self.make_payload(launch_id)
            threads.append(_Thread(launch_id, payload, self.raygen(launch_id, payload)))

        shared_l2 = make_shared_l2(config)
        per_sm_cycles: List[float] = []
        merged = SimStats()
        for sm in range(config.num_sms):
            sm_threads = [
                threads[i]
                for i in range(count)
                if (i // config.cta_threads) % config.num_sms == sm
            ]
            stats = SimStats()
            mem = MemorySystem(config, stats, shared_l2)
            cycles = self._run_sm(
                bvh, sm_threads, policy, config, vtq, mem, stats,
                normals, material_ids,
            )
            per_sm_cycles.append(cycles)
            merged.merge(stats)

        return LaunchResult(
            payloads=[t.payload for t in threads],
            cycles=max(per_sm_cycles) if per_sm_cycles else 0.0,
            per_sm_cycles=per_sm_cycles,
            stats=merged,
            policy=policy,
            width=width,
            height=height,
        )

    # -- shader plumbing ------------------------------------------------------------

    def _start_thread(self, thread: _Thread) -> None:
        """Advance a fresh generator to its first trace (or retirement)."""
        try:
            thread.pending = next(thread.generator)
        except StopIteration:
            thread.finished = True
            thread.pending = None

    def _resume_thread(self, thread: _Thread, hit: HitInfo) -> None:
        if self.closest_hit is not None and hit.hit:
            self.closest_hit(thread.launch_id, thread.payload, hit)
        if self.miss is not None and not hit.hit:
            self.miss(thread.launch_id, thread.payload, hit)
        try:
            thread.pending = thread.generator.send(hit)
        except StopIteration:
            thread.finished = True
            thread.pending = None

    def _make_state(self, bvh, call: TraceCall, ray_id: int):
        return init_traversal(
            bvh,
            call.origin,
            call.direction,
            tmin=call.tmin,
            order=TraversalOrder.TREELET,
            ray_id=ray_id,
            tmax=call.tmax,
            collect_all_hits=(call.mode == "all"),
        )

    def _trace_warp(self, bvh, group, ray_seq, pending, cta: int, bounce: int):
        """Trace the pending calls of ``group`` (one warp) and return its
        replaying rays; ``pending[ray_id]`` keeps each ray's thread, call
        and finished traversal state for :meth:`_resolve_hit`."""
        rids = range(ray_seq[0], ray_seq[0] + len(group))
        ray_seq[0] += len(group)
        states = []
        for rid, thread in zip(rids, group):
            state = self._make_state(bvh, thread.pending, rid)
            pending[rid] = (thread, thread.pending, state)
            states.append(state)
        batch = trace_states(bvh, states)
        return [
            SimRay(rid, thread.launch_id, cta, bounce, ReplayState(batch, row))
            for row, (rid, thread) in enumerate(zip(rids, group))
        ]

    def _resolve_hit(self, state, call: TraceCall, normals, material_ids) -> HitInfo:
        if call.mode == "all":
            return HitInfo(
                hit=bool(state.all_hits),
                all_hits=list(state.all_hits),
            )
        if state.hit_prim < 0:
            return HitInfo(hit=False)
        prim = int(state.hit_prim)
        origin = np.array([state.ox, state.oy, state.oz])
        direction = np.array([state.dx, state.dy, state.dz])
        return HitInfo(
            hit=True,
            t=state.t_hit,
            prim_id=prim,
            position=origin + state.t_hit * direction,
            normal=normals[prim].copy(),
            material_id=int(material_ids[prim]),
        )

    # -- per-SM execution --------------------------------------------------------------

    def _run_sm(
        self, bvh, threads, policy, config, vtq, mem, stats, normals, material_ids
    ) -> float:
        for thread in threads:
            self._start_thread(thread)

        if policy == "vtq":
            return self._run_sm_vtq(
                bvh, threads, config, vtq, mem, stats, normals, material_ids
            )

        if policy == "prefetch":
            engine = PrefetchRTUnit(bvh, config, mem, stats)
        else:
            engine = BaselineRTUnit(bvh, config, mem, stats)

        pending: Dict[int, tuple] = {}
        ray_seq = [0]

        def on_complete(warp: TraceWarp, cycle: float) -> None:
            resumed = []
            for ray in warp.rays:
                thread, call, state = pending.pop(ray.ray_id)
                hit = self._resolve_hit(state, call, normals, material_ids)
                self._resume_thread(thread, hit)
                resumed.append(thread)
            submit_with_tracking(resumed, cycle + config.shade_cycles_per_warp)

        def submit_with_tracking(candidates, ready):
            batch = [t for t in candidates if t.pending is not None]
            for start in range(0, len(batch), config.warp_size):
                group = batch[start : start + config.warp_size]
                rays = self._trace_warp(bvh, group, ray_seq, pending, 0, 0)
                engine.submit(
                    TraceWarp(
                        rays,
                        cta_id=group[0].launch_id // config.cta_threads,
                        ready_cycle=ready,
                    )
                )

        submit_with_tracking(threads, float(config.raygen_cycles_per_warp))
        return engine.run(on_complete)

    def _run_sm_vtq(
        self, bvh, threads, config, vtq, mem, stats, normals, material_ids
    ) -> float:
        if vtq is None:
            vtq = VTQConfig().scaled_to(
                min(config.max_virtual_rays_per_sm, max(1, len(threads)))
            )
        engine = VTQRTUnit(bvh, config, vtq, mem, stats)
        tracker = CTATracker()
        state_bytes = cta_state_bytes(config)
        state_lines = (state_bytes + config.line_bytes - 1) // config.line_bytes
        occupancy = float(config.dram_line_transfer * state_lines)

        pending: Dict[int, tuple] = {}
        ray_seq = [0]
        generation: Dict[int, int] = {}

        def submit_cta(cta_threads_, bounce, ready):
            batch = [t for t in cta_threads_ if t.pending is not None]
            if not batch:
                return
            cta = batch[0].launch_id // config.cta_threads
            tracker.suspend(cta, bounce, len(batch))
            if vtq.virtualization_overheads:
                mem.cta_state_transfer(state_bytes)
                engine.cycle += occupancy
            stats.cta_saves += 1
            for start in range(0, len(batch), config.warp_size):
                group = batch[start : start + config.warp_size]
                rays = self._trace_warp(bvh, group, ray_seq, pending, cta, bounce)
                engine.submit(TraceWarp(rays, cta_id=cta, ready_cycle=ready))

        def on_ray_complete(ray: SimRay, cycle: float) -> None:
            done = tracker.ray_done(ray.cta_id, ray.bounce, ray)
            if done is None:
                return
            stats.cta_restores += 1
            latency = 0.0
            if vtq.virtualization_overheads:
                latency = (
                    mem.cta_state_transfer(state_bytes)
                    + config.cta_resume_schedule_cycles
                )
                engine.cycle += occupancy
            resumed = []
            for finished_ray in done:
                thread, call, state = pending.pop(finished_ray.ray_id)
                hit = self._resolve_hit(state, call, normals, material_ids)
                self._resume_thread(thread, hit)
                resumed.append(thread)
            cta = ray.cta_id
            generation[cta] += 1
            submit_cta(
                resumed, generation[cta],
                cycle + latency + config.shade_cycles_per_warp,
            )

        # Group the SM's threads into CTAs and issue their first traces.
        by_cta: Dict[int, List[_Thread]] = {}
        for thread in threads:
            by_cta.setdefault(thread.launch_id // config.cta_threads, []).append(thread)
        for cta, cta_threads_ in by_cta.items():
            generation[cta] = 0
            submit_cta(cta_threads_, 0, float(config.raygen_cycles_per_warp))
        return engine.run(on_ray_complete)
