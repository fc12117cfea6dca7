#!/usr/bin/env python3
"""CI smoke test for memory traces (stored render plans).

End to end, in one process (docs/MEMTRACE.md):

1. record a small scene's memory trace under every policy and round-trip
   it through its file bytes,
2. replay each trace at two L2 sizes and assert each replay equals a
   fresh live run at that configuration exactly (``SimStats`` snapshot,
   cycles, per-SM cycles and image bytes),
3. assert the refusals refuse with a typed error: ``l1_bytes`` and
   ``line_bytes`` (they change the BVH) and unknown fields.

Run from the repository root:

    PYTHONPATH=src python tools/replay_smoke.py
"""

import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.errors import TraceError  # noqa: E402
from repro.experiments.runner import default_context, scene_and_bvh  # noqa: E402
from repro.memtrace import replay_trace  # noqa: E402
from repro.memtrace.format import decode_trace, encode_trace  # noqa: E402
from repro.memtrace.store import record_trace  # noqa: E402
from repro.tracing import render_scene  # noqa: E402

POLICIES = ("baseline", "prefetch", "sorted", "vtq")
L2_POINTS = (1 * 1024 * 1024, 4 * 1024 * 1024)
REFUSED = (("l1_bytes", 4096), ("line_bytes", 64), ("no_such_field", 1))


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"  ok: {message}")


def same_run(a, b):
    return (
        a.stats.snapshot() == b.stats.snapshot()
        and a.cycles == b.cycles
        and a.per_sm_cycles == b.per_sm_cycles
        and a.image.tobytes() == b.image.tobytes()
    )


def main():
    setup = default_context(fast=True).setup
    scene, bvh = scene_and_bvh("BUNNY", setup)

    for policy in POLICIES:
        print(f"BUNNY/{policy}:")
        trace, _live = record_trace(scene, bvh, setup, policy, scene_name="BUNNY")
        blob = encode_trace(trace)
        trace = decode_trace(blob)
        for l2_bytes in L2_POINTS:
            point = dataclasses.replace(
                setup, gpu=dataclasses.replace(setup.gpu, l2_bytes=l2_bytes)
            )
            start = time.perf_counter()
            fresh = render_scene(scene, bvh, point, policy=policy)
            live_s = time.perf_counter() - start
            start = time.perf_counter()
            replayed = replay_trace(trace, (("l2_bytes", l2_bytes),))
            replay_s = time.perf_counter() - start
            check(
                same_run(replayed, fresh),
                f"replay at l2_bytes={l2_bytes} equals a fresh live run "
                f"({len(blob):,d} byte trace; {live_s:.2f}s live, "
                f"{replay_s:.2f}s replay)",
            )

    print("refusals:")
    for name, value in REFUSED:
        try:
            replay_trace(trace, ((name, value),))
            check(False, f"{name}={value} must be refused")
        except TraceError:
            check(True, f"{name}={value} refused with TraceError")

    print("replay smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
