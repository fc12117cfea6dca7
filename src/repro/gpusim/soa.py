"""Struct-of-arrays render plans: the functional half of the SoA engine.

The scalar policy units interleave two very different jobs per warp step:

* the *functional* work — pop a stack entry, slab-test children,
  Moller-Trumbore triangles, update closest hits, shade; and
* the *timing* work — price each lane's cache lines, charge the warp the
  slowest lane, advance the SM's cycle counter.

Only the timing work depends on the policy (baseline / prefetch /
sorted / vtq) and on the GPU configuration; the functional work is
identical across all of them, because every policy unit visits the same
BVH items in the same per-ray order (treelet-stationary scheduling
changes *when* a ray's visits happen, never *which* or in what per-ray
sequence).

This module exploits that split.  :func:`build_plan` runs the functional
work **once per scene**, for *all* rays of a bounce at a time — a
bounce-synchronous wave loop that pops every live ray, then expands all
popped nodes in one :func:`expand_nodes_batch` call and intersects all
popped leaves in one :func:`intersect_leaves_batch` call (group sizes in
the hundreds, where the numpy kernels finally pay off).  The result is a
:class:`RenderPlan` of per-ray :class:`Trace` records: the visit
sequence (cache lines, node/leaf kind, triangle-test counts) plus just
enough stack/treelet position metadata for the replay engines
(:mod:`repro.gpusim.soa_engines`) to reconstruct every scheduling
decision the scalar policy units make.  Replays are pure timing loops —
no geometry, no shading, no numpy — and one plan serves every policy ×
cache-config combination for the scene, which is where the end-to-end
speedup comes from.

Each secondary ray's trace also carries its Garanzha-Loop sort key, so
the ``sorted`` policy re-forms its bounce-barrier warps from the plan
instead of from live ray geometry.

Plans are cached on the ``SceneBVH`` object itself (a small FIFO keyed
by render parameters, ``REPRO_SOA_PLAN_CACHE`` entries), so sweeps that
run several policies over one scene build the plan once.  Plan replay is
the only way :func:`repro.tracing.render.render_scene` runs; the scalar
policy units remain for the Vulkan-style pipeline, ray queries and the
test suite's independent reference renderer.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import settings
from repro.bvh.traversal import (
    expand_nodes_batch,
    intersect_leaves_batch,
    pop_next_recording,
)
from repro.geometry.morton import ray_sort_keys

class Trace:
    """One ray's complete traversal record for one bounce.

    The visit lists (``n`` entries, index ``p`` = p-th item visit):

    ``lines``
        The item's cache-line tuple (``bvh.item_lines[item]``) — what the
        replay engines price.
    ``isleaf`` / ``tests``
        Leaf flag and triangle-test count (0 for nodes).

    The position lists (``n + 1`` entries; position ``p`` is the state
    *before* visit ``p`` was popped, position ``n`` is the state before
    the failed retiring pop):

    ``curwork``
        ``bool(current_stack)`` — raw, including entries that the next
        pop will cull.
    ``cur_tre`` / ``next_tre``
        ``current_treelet`` and the treelet-stack top (-1 when empty).
    ``top_item``
        Top ``current_stack`` item id (-1 when empty) — what the
        prefetcher's access observer reads.

    ``chains``
        Sparse dict ``{p: (T1, .., Tk)}``: treelets entered during the
        pop of visit ``p`` (``None`` when no pop crossed a treelet).
    ``tail``
        Treelets entered during the failed retiring pop — equal to the
        state's pending treelets, top first; the vtq engine drains these
        one ``enter_treelet`` at a time.

    ``sort_key``
        The ray's Garanzha-Loop key (:func:`repro.geometry.morton.ray_sort_keys`:
        direction octant, then origin Morton code) — set on secondary
        rays only; the ``sorted`` policy orders each bounce by it.

    Every trace has at least one visit: ``init_traversal`` pushes the
    root with ``entry_t = tmin``, which can never be culled.
    """

    __slots__ = (
        "lines", "isleaf", "tests",
        "curwork", "cur_tre", "next_tre", "top_item",
        "chains", "tail", "sort_key",
    )

    def __init__(self):
        self.lines: List[Tuple[int, ...]] = []
        self.isleaf: List[bool] = []
        self.tests: List[int] = []
        self.curwork: List[bool] = []
        self.cur_tre: List[int] = []
        self.next_tre: List[int] = []
        self.top_item: List[int] = []
        self.chains: Optional[Dict[int, Tuple[int, ...]]] = None
        self.tail: Tuple[int, ...] = ()
        self.sort_key = 0


class RenderPlan:
    """Everything policy-independent about one render.

    ``traces`` maps ``(slot, bounce)`` to a :class:`Trace`; a key's
    presence for ``bounce + 1`` is the continuation signal (the path
    survived shading).  ``radiance`` is the per-slot ``(num_slots, 3)``
    accumulated radiance — produced by the real shading engine during
    plan construction, so images reconstructed from it are bit-identical
    to the scalar path.  Slots are sample-major: ``slot = sample *
    pixels + pixel``.
    """

    __slots__ = ("traces", "radiance", "pixels", "spp", "num_slots")

    def __init__(self, traces, radiance, pixels: int, spp: int):
        self.traces: Dict[Tuple[int, int], Trace] = traces
        self.radiance: np.ndarray = radiance
        self.pixels = pixels
        self.spp = spp
        self.num_slots = pixels * spp

    def image_accum(self) -> np.ndarray:
        """Per-pixel radiance sums, accumulated in slot order.

        Matches the scalar path's ``accum[path.pixel] += path.radiance``
        loop bit for bit: sample-major slots mean each pixel receives its
        samples' radiance in sample order, and the vectorized per-sample
        adds below perform the same per-element float additions in the
        same order.
        """
        accum = np.zeros((self.pixels, 3))
        radiance = self.radiance
        pixels = self.pixels
        for sample in range(self.spp):
            accum += radiance[sample * pixels : (sample + 1) * pixels]
        return accum


def _build_traces(bvh, entries) -> None:
    """Run every state in ``entries`` to completion, recording traces.

    ``entries`` is a list of ``(trace, state)`` pairs, all at the same
    bounce.  All states advance in lock-step waves: one instrumented pop
    per live ray, then a single batched node-expansion and a single
    batched leaf-intersection over the whole wave (hundreds of groups —
    far past the kernels' scalar-fallback cutoffs).  Per-ray visit order
    is exactly :func:`repro.bvh.traversal.pop_next`'s (the instrumented
    pop mirrors it), so the recorded sequence is the scalar engines'.
    """
    item_lines = bvh.item_lines
    leaf_tris = bvh.leaf_tris
    live = entries
    while live:
        node_groups = []
        leaf_groups = []
        next_live = []
        for rec in live:
            trace, state = rec
            # Position metadata is captured before the pop so position p
            # describes the stacks as the policy engines observe them
            # between visits (park/queue/vote decisions all happen there).
            current_stack = state.current_stack
            treelet_stack = state.treelet_stack
            trace.curwork.append(bool(current_stack))
            trace.cur_tre.append(state.current_treelet)
            trace.next_tre.append(treelet_stack[-1][0] if treelet_stack else -1)
            trace.top_item.append(current_stack[-1][0] if current_stack else -1)

            popped, chain = pop_next_recording(bvh, state)
            if popped is None:
                trace.tail = chain
                continue
            item, is_leaf, local_idx = popped
            if chain:
                if trace.chains is None:
                    trace.chains = {}
                trace.chains[len(trace.lines)] = chain
            trace.lines.append(item_lines[item])
            trace.isleaf.append(is_leaf)
            if is_leaf:
                trace.tests.append(len(leaf_tris[local_idx]))
                leaf_groups.append((state, local_idx))
            else:
                trace.tests.append(0)
                node_groups.append((state, local_idx))
            next_live.append(rec)
        if node_groups:
            expand_nodes_batch(bvh, node_groups)
        if leaf_groups:
            intersect_leaves_batch(bvh, leaf_groups)
        live = next_live


def build_plan(scene, bvh, setup, seed: int = 0) -> RenderPlan:
    """Build the policy-independent render plan for one scene render.

    Drives real ``PathState`` / ``RayTraversalState`` objects through the
    real :class:`~repro.tracing.path_tracer.ShadingEngine`, so hit
    points, bounce decisions and radiance are the scalar path's exact
    floats — only the *schedule* of the functional work differs (waves
    over all rays instead of warp-at-a-time).
    """
    from repro.tracing.path_tracer import ShadingEngine

    width = setup.image_width
    height = setup.image_height
    pixels = width * height
    spp = max(1, setup.samples_per_pixel)
    shading = ShadingEngine(scene, bvh, max_bounces=setup.max_bounces, seed=seed)

    # Sample-major slots, mirroring render_scene's path construction
    # exactly (same camera calls, same jitter seeding).
    paths = []
    for sample in range(spp):
        jitter = sample if spp > 1 else None
        primaries = scene.camera.primary_rays(width, height, jitter_seed=jitter)
        paths.extend(
            shading.make_primary(
                p, primaries.origins[p], primaries.directions[p], sample=sample
            )
            for p in range(pixels)
        )

    traces: Dict[Tuple[int, int], Trace] = {}
    generation = [
        (slot, shading.begin_traversal(paths[slot])) for slot in range(len(paths))
    ]
    bounds = scene.mesh.bounds()
    bounce = 0
    while generation:
        entries = [(Trace(), state) for _slot, state in generation]
        if bounce:
            # Sort keys are elementwise in each ray's origin/direction, so
            # one call over the whole generation gives every SM's rays the
            # keys a per-SM bounce barrier would compute.
            keys = ray_sort_keys(
                np.array([[s.ox, s.oy, s.oz] for _slot, s in generation]),
                np.array([[s.dx, s.dy, s.dz] for _slot, s in generation]),
                bounds.lo, bounds.hi,
            ).tolist()
            for (trace, _state), key in zip(entries, keys):
                trace.sort_key = key
        _build_traces(bvh, entries)
        next_generation = []
        for (slot, state), (trace, _state) in zip(generation, entries):
            traces[(slot, bounce)] = trace
            if shading.shade(paths[slot], state):
                next_generation.append((slot, shading.begin_traversal(paths[slot])))
        generation = next_generation
        bounce += 1

    radiance = np.array([path.radiance for path in paths])
    return RenderPlan(traces, radiance, pixels, spp)


_PLAN_CACHE_ATTR = "_soa_plan_cache"


def get_plan(scene, bvh, setup, seed: int = 0) -> RenderPlan:
    """:func:`build_plan`, cached on the BVH object.

    The cache key is every input the plan depends on: the render
    geometry parameters and the shading seed.  (GPU/cache configuration
    and policy are deliberately absent — plans are timing-free.)  The
    scene is checked by identity via a weakref: a BVH is always paired
    with the scene it was built from, but a mismatched call must not
    serve a stale plan.
    """
    key = (
        seed,
        setup.image_width,
        setup.image_height,
        max(1, setup.samples_per_pixel),
        setup.max_bounces,
    )
    cache = getattr(bvh, _PLAN_CACHE_ATTR, None)
    if cache is None:
        cache = OrderedDict()
        setattr(bvh, _PLAN_CACHE_ATTR, cache)
    entry = cache.get(key)
    if entry is not None:
        scene_ref, plan = entry
        if scene_ref() is scene:
            cache.move_to_end(key)
            return plan
        del cache[key]
    plan = build_plan(scene, bvh, setup, seed)
    cache[key] = (weakref.ref(scene), plan)
    limit = settings.get("REPRO_SOA_PLAN_CACHE")
    while len(cache) > limit:
        cache.popitem(last=False)
    return plan
