"""Post-render invariant checks (the simulation-state sanitizer).

A timing simulator can silently produce garbage: a ray dropped between
queues, a miscounted cache hit, an energy term gone negative — the
figures still render, just wrong.  The sanitizer cross-checks a
completed render's statistics against conservation laws the model must
obey:

* **Ray conservation** — every ray submitted to an RT unit terminates
  (``rays_traced == rays_completed``).
* **Queue conservation** — every ray pushed into the treelet queues is
  popped back out (``treelet_queue_pushes == treelet_queue_pops``).
* **Cache reconciliation** — per (level, kind): ``0 <= hits <= accesses``,
  and the windowed L1 BVH timeline's hit+miss total equals the L1 BVH
  access counter (they record the same events in two places).
* **Energy sanity** — every energy component is finite and non-negative.
* **Image sanity** — the image is finite and non-negative radiance.

Opt-in: pass ``sanitize=True`` to ``render_scene`` or set the
``REPRO_SANITIZE`` environment variable (CI does, on the fast scene
pair).  Violations raise :class:`repro.errors.SanitizerError` listing
every failed check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import SanitizerError
from repro.gpusim.energy import EnergyModel

@dataclass
class SanitizeReport:
    """Outcome of one sanitizer pass: which checks ran, what failed."""

    violations: List[str] = field(default_factory=list)
    checked: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return f"ok ({len(self.checked)} checks)"
        return "; ".join(self.violations)


def sanitize_render(result, setup=None) -> SanitizeReport:
    """Run every invariant check against a :class:`RenderResult`."""
    report = SanitizeReport()
    stats = result.stats

    report.checked.append("ray_conservation")
    if stats.rays_traced != stats.rays_completed:
        report.violations.append(
            f"ray conservation: {stats.rays_traced} rays traced but "
            f"{stats.rays_completed} completed"
        )

    report.checked.append("queue_conservation")
    if stats.treelet_queue_pushes != stats.treelet_queue_pops:
        report.violations.append(
            f"queue conservation: {stats.treelet_queue_pushes} pushes vs "
            f"{stats.treelet_queue_pops} pops"
        )

    report.checked.append("cache_reconciliation")
    for key in sorted(set(stats.cache_accesses) | set(stats.cache_hits)):
        accesses = stats.cache_accesses[key]
        hits = stats.cache_hits[key]
        if not 0 <= hits <= accesses:
            report.violations.append(
                f"cache reconciliation {key}: {hits} hits of {accesses} accesses"
            )

    report.checked.append("l1_timeline_reconciliation")
    timeline_events = sum(stats.l1_bvh_timeline.hits.values()) + sum(
        stats.l1_bvh_timeline.misses.values()
    )
    l1_bvh = stats.cache_accesses[("l1", "bvh")]
    if timeline_events != l1_bvh:
        report.violations.append(
            f"l1 timeline reconciliation: {timeline_events} timeline events "
            f"vs {l1_bvh} l1 bvh accesses"
        )

    report.checked.append("counter_signs")
    for name in (
        "rays_traced", "rays_completed", "warps_processed", "node_visits",
        "leaf_visits", "triangle_tests", "treelet_queue_pushes",
        "treelet_queue_pops", "total_cycles",
    ):
        if getattr(stats, name) < 0:
            report.violations.append(f"negative counter: {name}={getattr(stats, name)}")

    report.checked.append("energy_non_negative")
    line_bytes = setup.gpu.line_bytes if setup is not None else 32
    energy = EnergyModel().compute(stats, line_bytes=line_bytes)
    for component, value in energy.as_dict().items():
        if not math.isfinite(value) or value < 0:
            report.violations.append(f"energy component {component} = {value}")

    report.checked.append("image_sanity")
    image = result.image
    if not np.all(np.isfinite(image)):
        report.violations.append("image contains non-finite radiance")
    elif image.size and float(image.min()) < 0:
        report.violations.append(f"image contains negative radiance ({image.min()})")

    return report


def check_render(result, setup=None) -> SanitizeReport:
    """Sanitize and raise :class:`SanitizerError` on any violation."""
    report = sanitize_render(result, setup)
    if not report.ok:
        scene = getattr(result, "scene_name", "") or "?"
        raise SanitizerError(
            f"sanitizer failed for {scene}/{result.policy}: {report.summary()}",
            violations=report.violations,
        )
    return report
