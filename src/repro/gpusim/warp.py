"""Warps, trace jobs and the warp-step cost model.

A :class:`SimRay` is one ray in flight: its traversal state (a
:class:`~repro.gpusim.soa.ReplayState` cursor over a traced state in
every policy unit) plus identity (pixel, CTA, bounce).  A
:class:`TraceWarp` is up to ``warp_size`` rays issued together by
``traceRayEXT()``.

:func:`step_latency` prices one warp step — every unfinished lane
advances by one BVH item visit; the step costs the slowest lane's memory
latency, weighted by the fraction of lanes that missed, plus the
fixed-function intersection latency — and :func:`gaussian_leaf_cycles`
adds the splat workloads' leaf cost.  The policy units share both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.gpusim.config import GPUConfig


class SimRay:
    """One ray in flight through the simulated GPU."""

    __slots__ = ("ray_id", "pixel", "cta_id", "bounce", "state")

    def __init__(
        self,
        ray_id: int,
        pixel: int,
        cta_id: int,
        bounce: int,
        state,
    ):
        self.ray_id = ray_id
        self.pixel = pixel
        self.cta_id = cta_id
        self.bounce = bounce
        self.state = state

    def finished(self) -> bool:
        return self.state.finished()

    def __repr__(self) -> str:
        return f"SimRay(id={self.ray_id}, pixel={self.pixel}, bounce={self.bounce})"


@dataclass
class TraceWarp:
    """A warp's worth of rays submitted to the RT unit."""

    rays: List[SimRay]
    cta_id: int
    ready_cycle: float = 0.0
    seq: int = 0  # submission order; the GTO scheduler's age key

    def active_rays(self) -> List[SimRay]:
        return [r for r in self.rays if not r.finished()]

    def all_finished(self) -> bool:
        return all(r.finished() for r in self.rays)

    def __len__(self) -> int:
        return len(self.rays)


def step_latency(
    config: GPUConfig,
    lanes: int,
    max_latency: float,
    missing_lanes: int,
    misses: int,
    leaf_cycles: float = 0.0,
) -> float:
    """The cycle cost of one warp step with ``lanes`` stepped lanes.

    Fractional-stall cost: the RT unit's memory scheduler keeps servicing
    lanes whose data is ready while the missing lanes wait, so a step
    costs the hit latency plus the worst miss latency weighted by the
    fraction of lanes that missed.  (A pure max() model would make every
    partially-missing step cost a full DRAM round trip, erasing the
    benefit of anything — prefetching, treelets — that converts *some*
    lanes' misses into hits.)  Each distinct miss beyond the first also
    pays the configured miss-port serialization.

    ``leaf_cycles`` is the workload-dependent extra leaf cost of the
    step (gaussian alpha evaluation + blend bookkeeping; see
    :func:`gaussian_leaf_cycles`).  Zero on triangle workloads — the
    guarded add keeps triangle steps float-identical to the historical
    formula.

    Shared by every policy unit; the float operation order here is part
    of the bit-exactness contract.
    """
    latency = float(config.l1_latency)
    if missing_lanes:
        miss_fraction = missing_lanes / lanes
        latency += miss_fraction * max(0.0, max_latency - config.l1_latency)
        latency += config.miss_serialization_cycles * (misses - 1)
    latency += config.intersection_latency
    if leaf_cycles:
        latency += leaf_cycles
    return latency


def gaussian_leaf_cycles(config: GPUConfig, tests: int, leaf_lanes: int) -> float:
    """Extra leaf cost of one warp step on a gaussian workload.

    ``tests`` gaussian candidates each pay an alpha evaluation and each
    of the ``leaf_lanes`` leaf-visiting lanes pays the front-to-back
    blend bookkeeping.  Callers pass zeros on triangle workloads.
    """
    return float(
        config.gaussian_alpha_cycles * tests
        + config.gaussian_blend_cycles * leaf_lanes
    )
