#!/usr/bin/env python3
"""Export an RT-unit activity timeline for chrome://tracing.

Attaches an ActivityTimeline to one SM's VTQ engine, traces a batch of
rays, and writes a Chrome-tracing JSON file.  Open it in
chrome://tracing or https://ui.perfetto.dev to *see* the three phases of
dynamic treelet queues: the initial ray-stationary bursts, the
treelet-stationary blocks, and the long repacked final-phase warps.

Run:  python examples/trace_timeline.py [SCENE]
"""

import argparse
import sys

from repro.bvh import build_scene_bvh
from repro.core import VTQConfig, VTQRTUnit
from repro.gpusim import MemorySystem, SimRay, SimStats, TraceWarp
from repro.gpusim.config import default_setup
from repro.gpusim.soa import ReplayState, trace_states
from repro.gpusim.timeline import ActivityTimeline, write_chrome_trace
from repro.scenes import load_scene, scene_names
from repro.tracing.path_tracer import ShadingEngine


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scene", nargs="?", default="SPNZA",
                        choices=scene_names(include_extra=True))
    args = parser.parse_args()

    setup = default_setup()
    scene = load_scene(args.scene, scale=setup.scene_scale)
    bvh = build_scene_bvh(scene.mesh, treelet_budget_bytes=setup.gpu.treelet_bytes)

    config = setup.gpu
    stats = SimStats()
    engine = VTQRTUnit(
        bvh, config,
        VTQConfig().scaled_to(min(config.max_virtual_rays_per_sm, 1024)),
        MemorySystem(config, stats), stats,
    )
    engine.timeline = ActivityTimeline(sm=0)

    shading = ShadingEngine(scene, bvh, max_bounces=setup.max_bounces)
    primaries = scene.camera.primary_rays(32, 32)
    states = [
        shading.begin_traversal(
            shading.make_primary(p, primaries.origins[p], primaries.directions[p]))
        for p in range(1024)
    ]
    # Trace the rays once; the RT unit replays the traced batch for timing.
    batch = trace_states(bvh, states)
    rays = [
        SimRay(p, p, p // config.cta_threads, 0, ReplayState(batch, p))
        for p in range(len(states))
    ]
    for start in range(0, len(rays), config.warp_size):
        engine.submit(TraceWarp(rays[start:start + 32],
                                rays[start].cta_id))
    engine.run(lambda ray, cycle: None)

    by_category = engine.timeline.total_by_category()
    print(f"{args.scene}: {engine.cycle:,.0f} cycles, "
          f"{len(engine.timeline)} activity spans")
    for category, cycles in sorted(by_category.items(), key=lambda kv: -kv[1]):
        print(f"  {category:24s} {cycles:12,.0f} cycles "
              f"({cycles / engine.cycle:5.1%})")

    path = f"{args.scene.lower()}_timeline.json"
    write_chrome_trace(engine.timeline.spans, path)
    print(f"\nWrote {path} — open it in chrome://tracing or ui.perfetto.dev")
    return 0


if __name__ == "__main__":
    sys.exit(main())
