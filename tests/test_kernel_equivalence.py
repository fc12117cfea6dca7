"""Batch intersection kernels must be bit-identical to the scalar loops.

The wave tracer (:func:`repro.gpusim.soa.trace_states`) uses the
vectorized kernels of :mod:`repro.geometry.batch` where ``single_step``
advances one ray at a time, and the two must agree bit for bit, so the contract is
exact float equality — not approximate agreement.  These tests exercise the kernels
property-style against scalar re-implementations and against the real
traversal code on real BVHs, including the awkward inputs: axis-parallel
rays, degenerate triangles and tight ``t``-window clipping.
"""

import functools

import numpy as np
import pytest

from repro.bvh import build_scene_bvh, init_traversal, single_step
from repro.bvh import traversal as tv
from repro.geometry import (
    intersect_aabb_batch,
    intersect_gaussian_batch,
    intersect_tri_batch,
    safe_inverse,
)
from repro.geometry.batch import DET_EPS, INV_CLAMP
from repro.gpusim.soa import trace_states

from tests.conftest import random_soup


# ---------------------------------------------------------------------------
# scalar references (transcribed from the traversal inner loops)


def _scalar_slab(o, inv, box, tmin, t_hit):
    """The exact slab test `_expand_node` performs per child."""
    near = -float("inf")
    far = float("inf")
    t1 = (box[0] - o[0]) * inv[0]
    t2 = (box[3] - o[0]) * inv[0]
    if t1 > t2:
        t1, t2 = t2, t1
    near, far = t1, t2
    t1 = (box[1] - o[1]) * inv[1]
    t2 = (box[4] - o[1]) * inv[1]
    if t1 > t2:
        t1, t2 = t2, t1
    if t1 > near:
        near = t1
    if t2 < far:
        far = t2
    t1 = (box[2] - o[2]) * inv[2]
    t2 = (box[5] - o[2]) * inv[2]
    if t1 > t2:
        t1, t2 = t2, t1
    if t1 > near:
        near = t1
    if t2 < far:
        far = t2
    if near < tmin:
        near = tmin
    if far > t_hit:
        far = t_hit
    return near <= far, near


def _scalar_mt(o, d, v0, e1, e2):
    """The exact Moller-Trumbore candidate test `_intersect_leaf` performs."""
    px = d[1] * e2[2] - d[2] * e2[1]
    py = d[2] * e2[0] - d[0] * e2[2]
    pz = d[0] * e2[1] - d[1] * e2[0]
    det = e1[0] * px + e1[1] * py + e1[2] * pz
    if -DET_EPS < det < DET_EPS:
        return False, 0.0
    inv = 1.0 / det
    tx = o[0] - v0[0]
    ty = o[1] - v0[1]
    tz = o[2] - v0[2]
    u = (tx * px + ty * py + tz * pz) * inv
    if u < 0.0 or u > 1.0:
        return False, 0.0
    qx = ty * e1[2] - tz * e1[1]
    qy = tz * e1[0] - tx * e1[2]
    qz = tx * e1[1] - ty * e1[0]
    v = (d[0] * qx + d[1] * qy + d[2] * qz) * inv
    if v < 0.0 or u + v > 1.0:
        return False, 0.0
    t = (e2[0] * qx + e2[1] * qy + e2[2] * qz) * inv
    return True, t


def _scalar_gaussian(o, d, center, prec, qmax):
    """The exact peak-response test `_intersect_leaf_gaussian` performs."""
    m00, m01, m02, m11, m12, m22 = prec
    wx = o[0] - center[0]
    wy = o[1] - center[1]
    wz = o[2] - center[2]
    dx, dy, dz = d[0], d[1], d[2]
    mdx = m00 * dx + m01 * dy + m02 * dz
    mdy = m01 * dx + m11 * dy + m12 * dz
    mdz = m02 * dx + m12 * dy + m22 * dz
    dmd = dx * mdx + dy * mdy + dz * mdz
    if dmd < DET_EPS:
        return False, 0.0, 0.0
    inv = 1.0 / dmd
    wmd = wx * mdx + wy * mdy + wz * mdz
    t = -(wmd * inv)
    mwx = m00 * wx + m01 * wy + m02 * wz
    mwy = m01 * wx + m11 * wy + m12 * wz
    mwz = m02 * wx + m12 * wy + m22 * wz
    wmw = wx * mwx + wy * mwy + wz * mwz
    q = wmw - (wmd * wmd) * inv
    return q <= qmax, t, q


def _random_rays(rng, n):
    origins = rng.uniform(-5.0, 5.0, (n, 3))
    directions = rng.normal(size=(n, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return origins, directions


# ---------------------------------------------------------------------------
# safe_inverse


class TestSafeInverse:
    def test_matches_scalar_on_random_and_special_values(self):
        rng = np.random.default_rng(7)
        values = np.concatenate([
            rng.normal(size=64),
            rng.uniform(-1e-12, 1e-12, 16),  # inside the epsilon band
            np.array([0.0, -0.0, 1e-13, -1e-13, 1e-35, -1e-35, 1e35, -1e35]),
        ])
        batch = safe_inverse(values.reshape(-1, 1))[:, 0]
        for i, d in enumerate(values):
            assert batch[i] == tv._safe_inv(float(d)), d

    def test_zero_maps_to_positive_clamp(self):
        inv = safe_inverse(np.array([[0.0, -0.0, 5e-13]]))
        assert inv[0, 0] == INV_CLAMP
        # -0.0 >= 0 in Python, so the scalar helper returns +clamp too.
        assert inv[0, 1] == tv._safe_inv(-0.0)
        assert inv[0, 2] == INV_CLAMP

    def test_tiny_reciprocal_is_clamped(self):
        inv = safe_inverse(np.array([[1e-31, -1e-31]]))
        # 1/1e-31 = 1e31 > clamp; 1e-31 is inside the epsilon band anyway.
        assert abs(inv[0, 0]) <= INV_CLAMP
        assert abs(inv[0, 1]) <= INV_CLAMP


# ---------------------------------------------------------------------------
# AABB kernel


class TestAABBKernel:
    def test_matches_scalar_on_random_pairs(self):
        rng = np.random.default_rng(11)
        n = 256
        origins, directions = _random_rays(rng, n)
        invs = safe_inverse(directions)
        lo = rng.uniform(-4.0, 3.0, (n, 3))
        hi = lo + rng.uniform(0.0, 3.0, (n, 3))
        boxes = np.concatenate([lo, hi], axis=1)
        tmin = rng.uniform(0.0, 0.5, n)
        t_hit = rng.uniform(0.5, 20.0, n)
        mask, near = intersect_aabb_batch(origins, invs, boxes, tmin, t_hit)
        for i in range(n):
            ref_hit, ref_near = _scalar_slab(
                origins[i], invs[i], boxes[i], float(tmin[i]), float(t_hit[i])
            )
            assert bool(mask[i]) == ref_hit
            if ref_hit:
                assert float(near[i]) == ref_near

    def test_axis_parallel_rays(self):
        """Rays with zero direction components use the clamped inverses."""
        rng = np.random.default_rng(13)
        n = 96
        origins = rng.uniform(-2.0, 2.0, (n, 3))
        directions = np.zeros((n, 3))
        axes = rng.integers(0, 3, n)
        directions[np.arange(n), axes] = rng.choice([-1.0, 1.0], n)
        # Zero a second component explicitly for a few rays (it already is).
        invs = safe_inverse(directions)
        boxes = np.concatenate(
            [origins - 0.5, origins + rng.uniform(0.1, 1.0, (n, 3))], axis=1
        )
        mask, near = intersect_aabb_batch(origins, invs, boxes, 1e-4, 100.0)
        for i in range(n):
            ref_hit, ref_near = _scalar_slab(
                origins[i], invs[i], boxes[i], 1e-4, 100.0
            )
            assert bool(mask[i]) == ref_hit
            if ref_hit:
                assert float(near[i]) == ref_near

    def test_t_window_clipping(self):
        """tmin / t_hit clipping decides hits exactly as the scalar code."""
        origin = np.array([[0.0, 0.0, 0.0]])
        inv = safe_inverse(np.array([[1.0, 0.0, 0.0]]))
        box = np.array([[2.0, -1.0, -1.0, 4.0, 1.0, 1.0]])
        # Window entirely before the box: miss.
        mask, _ = intersect_aabb_batch(origin, inv, box, 0.0, np.array([1.5]))
        assert not bool(mask[0])
        # Window touching the box entry exactly: hit (near <= far uses <=).
        mask, near = intersect_aabb_batch(origin, inv, box, 0.0, np.array([2.0]))
        assert bool(mask[0]) and float(near[0]) == 2.0
        # tmin beyond the box exit: miss.
        mask, _ = intersect_aabb_batch(origin, inv, box, np.array([4.5]), 100.0)
        assert not bool(mask[0])
        # tmin inside the box: hit with near clamped up to tmin.
        mask, near = intersect_aabb_batch(origin, inv, box, np.array([3.0]), 100.0)
        assert bool(mask[0]) and float(near[0]) == 3.0

    def test_padded_groups_match_rows(self):
        """(G, K, 6) grouped evaluation equals the flat row evaluation."""
        rng = np.random.default_rng(17)
        g, k = 12, 4
        origins, directions = _random_rays(rng, g)
        invs = safe_inverse(directions)
        lo = rng.uniform(-4.0, 3.0, (g, k, 3))
        boxes = np.concatenate([lo, lo + rng.uniform(0.0, 3.0, (g, k, 3))], axis=2)
        tmin = rng.uniform(0.0, 0.5, g)
        t_hit = rng.uniform(0.5, 20.0, g)
        mask_g, near_g = intersect_aabb_batch(origins, invs, boxes, tmin, t_hit)
        assert mask_g.shape == (g, k)
        mask_r, near_r = intersect_aabb_batch(
            np.repeat(origins, k, axis=0),
            np.repeat(invs, k, axis=0),
            boxes.reshape(-1, 6),
            np.repeat(tmin, k),
            np.repeat(t_hit, k),
        )
        assert np.array_equal(mask_g.reshape(-1), mask_r)
        assert np.array_equal(near_g.reshape(-1), near_r)


# ---------------------------------------------------------------------------
# triangle kernel


class TestTriangleKernel:
    def test_matches_scalar_on_random_pairs(self):
        rng = np.random.default_rng(19)
        n = 256
        origins, directions = _random_rays(rng, n)
        v0 = rng.uniform(-3.0, 3.0, (n, 3))
        e1 = rng.normal(size=(n, 3))
        e2 = rng.normal(size=(n, 3))
        mask, t, u, v = intersect_tri_batch(origins, directions, v0, e1, e2)
        for i in range(n):
            ref_hit, ref_t = _scalar_mt(origins[i], directions[i], v0[i], e1[i], e2[i])
            assert bool(mask[i]) == ref_hit
            if ref_hit:
                assert float(t[i]) == ref_t

    def test_degenerate_triangles_never_candidates(self):
        """Zero-area triangles (det within eps) are rejected, not NaN."""
        rng = np.random.default_rng(23)
        n = 32
        origins, directions = _random_rays(rng, n)
        v0 = rng.uniform(-1.0, 1.0, (n, 3))
        zeros = np.zeros((n, 3))
        shared = rng.normal(size=(n, 3))
        for e1, e2 in [
            (zeros, zeros),              # point triangles (the padding rows)
            (shared, shared),            # collinear edges
            (shared, shared * 2.0),      # parallel edges
        ]:
            mask, t, u, v = intersect_tri_batch(origins, directions, v0, e1, e2)
            assert not mask.any()
            assert np.isfinite(t).all()
            assert np.isfinite(u).all()
            assert np.isfinite(v).all()

    def test_hit_through_triangle_interior(self):
        """A ray straight through a known triangle reports the exact t."""
        v0 = np.array([[0.0, 0.0, 2.0]])
        e1 = np.array([[2.0, 0.0, 0.0]])
        e2 = np.array([[0.0, 2.0, 0.0]])
        origin = np.array([[0.5, 0.5, 0.0]])
        direction = np.array([[0.0, 0.0, 1.0]])
        mask, t, u, v = intersect_tri_batch(origin, direction, v0, e1, e2)
        assert bool(mask[0])
        assert float(t[0]) == 2.0
        assert float(u[0]) == 0.25 and float(v[0]) == 0.25

    def test_barycentric_edge_inclusion(self):
        """u, v boundaries are inclusive exactly like the scalar tests."""
        v0 = np.array([[0.0, 0.0, 2.0]])
        e1 = np.array([[2.0, 0.0, 0.0]])
        e2 = np.array([[0.0, 2.0, 0.0]])
        direction = np.array([[0.0, 0.0, 1.0]])
        for ox, oy in [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (1.0, 1.0)]:
            origin = np.array([[ox, oy, 0.0]])
            mask, _, _, _ = intersect_tri_batch(origin, direction, v0, e1, e2)
            ref_hit, _ = _scalar_mt(
                origin[0], direction[0], v0[0], e1[0], e2[0]
            )
            assert bool(mask[0]) == ref_hit

    def test_padded_groups_match_rows(self):
        rng = np.random.default_rng(29)
        g, k = 10, 4
        origins, directions = _random_rays(rng, g)
        v0 = rng.uniform(-3.0, 3.0, (g, k, 3))
        e1 = rng.normal(size=(g, k, 3))
        e2 = rng.normal(size=(g, k, 3))
        mask_g, t_g, _, _ = intersect_tri_batch(origins, directions, v0, e1, e2)
        assert mask_g.shape == (g, k)
        mask_r, t_r, _, _ = intersect_tri_batch(
            np.repeat(origins, k, axis=0),
            np.repeat(directions, k, axis=0),
            v0.reshape(-1, 3), e1.reshape(-1, 3), e2.reshape(-1, 3),
        )
        assert np.array_equal(mask_g.reshape(-1), mask_r)
        assert np.array_equal(t_g.reshape(-1), t_r)


# ---------------------------------------------------------------------------
# gaussian kernel


def _random_precisions(rng, shape):
    """Random SPD precision matrices as upper-triangle rows (..., 6)."""
    b = rng.normal(size=shape + (3, 3))
    m = b @ np.swapaxes(b, -1, -2) + 0.05 * np.eye(3)
    return np.stack(
        [m[..., 0, 0], m[..., 0, 1], m[..., 0, 2],
         m[..., 1, 1], m[..., 1, 2], m[..., 2, 2]],
        axis=-1,
    )


class TestGaussianKernel:
    def test_matches_scalar_on_random_pairs(self):
        rng = np.random.default_rng(37)
        n = 256
        origins, directions = _random_rays(rng, n)
        centers = rng.uniform(-3.0, 3.0, (n, 3))
        precisions = _random_precisions(rng, (n,))
        qmax = rng.uniform(0.25, 9.0, n)
        mask, t, q = intersect_gaussian_batch(
            origins, directions, centers, precisions, qmax
        )
        hits = 0
        for i in range(n):
            ref_hit, ref_t, ref_q = _scalar_gaussian(
                origins[i], directions[i], centers[i], precisions[i], qmax[i]
            )
            assert bool(mask[i]) == ref_hit
            if ref_hit:
                hits += 1
                assert float(t[i]) == ref_t
                assert float(q[i]) == ref_q
        assert hits > 0  # the comparison must actually exercise hits

    def test_known_isotropic_splat(self):
        """Identity precision: t is the perpendicular foot, q its distance^2."""
        center = np.array([[0.0, 0.0, 5.0]])
        prec = np.array([[1.0, 0.0, 0.0, 1.0, 0.0, 1.0]])  # M = I
        direction = np.array([[0.0, 0.0, 1.0]])
        # Ray through the center: q = 0 at t = 5.
        mask, t, q = intersect_gaussian_batch(
            np.array([[0.0, 0.0, 0.0]]), direction, center, prec, np.array([0.0])
        )
        assert bool(mask[0]) and float(t[0]) == 5.0 and float(q[0]) == 0.0
        # Ray offset by 1 in x: q = 1, so the qmax = 1 boundary is inclusive.
        mask, t, q = intersect_gaussian_batch(
            np.array([[1.0, 0.0, 0.0]]), direction, center, prec, np.array([1.0])
        )
        assert bool(mask[0]) and float(t[0]) == 5.0 and float(q[0]) == 1.0
        mask, _, _ = intersect_gaussian_batch(
            np.array([[1.0, 0.0, 0.0]]), direction, center, prec,
            np.array([0.999]),
        )
        assert not bool(mask[0])

    def test_padding_rows_self_reject(self):
        """Leaf padding (qmax = -1, M = 0) never becomes a candidate."""
        rng = np.random.default_rng(41)
        n = 32
        origins, directions = _random_rays(rng, n)
        centers = rng.uniform(-1.0, 1.0, (n, 3))
        zeros = np.zeros((n, 6))
        mask, t, q = intersect_gaussian_batch(
            origins, directions, centers, zeros, np.full(n, -1.0)
        )
        assert not mask.any()
        assert np.isfinite(t).all()
        assert np.isfinite(q).all()
        # Even a generous qmax cannot resurrect a zero matrix: d.Md = 0
        # fails the positivity test on its own.
        mask, _, _ = intersect_gaussian_batch(
            origins, directions, centers, zeros, np.full(n, 100.0)
        )
        assert not mask.any()

    def test_padded_groups_match_rows(self):
        rng = np.random.default_rng(43)
        g, k = 10, 4
        origins, directions = _random_rays(rng, g)
        centers = rng.uniform(-3.0, 3.0, (g, k, 3))
        precisions = _random_precisions(rng, (g, k))
        qmax = rng.uniform(0.25, 9.0, (g, k))
        mask_g, t_g, q_g = intersect_gaussian_batch(
            origins, directions, centers, precisions, qmax
        )
        assert mask_g.shape == (g, k)
        mask_r, t_r, q_r = intersect_gaussian_batch(
            np.repeat(origins, k, axis=0),
            np.repeat(directions, k, axis=0),
            centers.reshape(-1, 3),
            precisions.reshape(-1, 6),
            qmax.reshape(-1),
        )
        assert np.array_equal(mask_g.reshape(-1), mask_r)
        assert np.array_equal(t_g.reshape(-1), t_r)
        assert np.array_equal(q_g.reshape(-1), q_r)


# ---------------------------------------------------------------------------
# traversal helpers on a real BVH


@pytest.fixture(scope="module")
def kernel_bvh():
    return build_scene_bvh(random_soup(220, seed=5))


@pytest.fixture(scope="module")
def gaussian_bvh():
    from repro.scenes.gaussians import GAUSSIAN_SCENES, build_gaussian_set

    return build_scene_bvh(build_gaussian_set(GAUSSIAN_SCENES[0], scale=0.3))


def _rays_into(bvh, n, seed):
    rng = np.random.default_rng(seed)
    box = bvh.wide.root_bounds
    center = box.centroid()
    radius = float(np.linalg.norm(box.extent())) * 0.8 + 1.0
    phi = rng.uniform(0, 2 * np.pi, n)
    costheta = rng.uniform(-1, 1, n)
    sintheta = np.sqrt(1 - costheta**2)
    origins = center + radius * np.stack(
        [sintheta * np.cos(phi), sintheta * np.sin(phi), costheta], axis=1
    )
    targets = center + rng.uniform(-0.5, 0.5, (n, 3)) * box.extent()
    directions = targets - origins
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return origins, directions


def _drain(bvh, states):
    """Step every state to completion with the scalar ``single_step``."""
    for state in states:
        while single_step(bvh, state) is not None:
            pass


def _trace(bvh, states, chunk):
    """Trace ``states`` with the wave tracer, ``chunk`` rays per call (0:
    one call for the whole batch)."""
    size = chunk or len(states)
    for begin in range(0, len(states), size):
        trace_states(bvh, states[begin : begin + size])


def _assert_same_results(scalar, traced):
    for a, b in zip(scalar, traced):
        assert a.all_hits == b.all_hits
        assert a.t_hit == b.t_hit
        assert a.hit_prim == b.hit_prim
        assert a.nodes_visited == b.nodes_visited
        assert a.leaf_visits == b.leaf_visits
        assert a.triangle_tests == b.triangle_tests
        assert a.culled == b.culled
        assert b.finished()


# ``chunk`` 0 traces every ray in one call (a render bounce or a query
# batch); 16 traces them 16 at a time, the small waves of vkrt's
# per-warp calls.
CHUNKS = [0, 16]


@pytest.mark.parametrize("chunk", CHUNKS)
class TestTraversalEquivalence:
    """Full traversals agree exactly between ``single_step`` and the wave
    tracer, whose slab and Moller-Trumbore tests run through the batch
    kernels."""

    def test_full_traversal_states_identical(self, kernel_bvh, chunk):
        n = 48
        origins, directions = _rays_into(kernel_bvh, n, seed=31)

        def fresh_states():
            return [
                init_traversal(kernel_bvh, origins[i], directions[i], tmin=1e-4)
                for i in range(n)
            ]

        scalar = fresh_states()
        traced = fresh_states()
        _drain(kernel_bvh, scalar)
        _trace(kernel_bvh, traced, chunk)
        assert any(s.hit_prim >= 0 for s in scalar)
        _assert_same_results(scalar, traced)


@pytest.mark.parametrize("chunk", CHUNKS)
class TestGaussianTraversalEquivalence:
    """Splat traversals agree exactly between ``single_step`` and the wave
    tracer.

    Same contract as :class:`TestTraversalEquivalence`, over a BVH whose
    leaves hold gaussian rows instead of triangles — ``single_step``
    dispatches ``_intersect_leaf_gaussian`` while the tracer goes through
    ``intersect_gaussian_batch``.
    """

    def test_full_traversal_states_identical(self, gaussian_bvh, chunk):
        assert gaussian_bvh.prim_kind == "gaussian"
        n = 48
        origins, directions = _rays_into(gaussian_bvh, n, seed=47)

        def fresh_states():
            return [
                init_traversal(gaussian_bvh, origins[i], directions[i], tmin=1e-4)
                for i in range(n)
            ]

        scalar = fresh_states()
        traced = fresh_states()
        _drain(gaussian_bvh, scalar)
        _trace(gaussian_bvh, traced, chunk)
        hit_count = sum(1 for s in scalar if s.hit_prim >= 0)
        assert hit_count > 0  # rays aimed at the splat cloud must hit it
        _assert_same_results(scalar, traced)


@functools.lru_cache(maxsize=None)
def _any_hit_workloads():
    """Any-hit states of the three Section 8 query workloads, 128 each."""
    from repro.rtquery import MeshClassifier, NeighborIndex, RangeIndex
    from repro.scenes import icosphere

    rng = np.random.default_rng(29)
    n = 128
    index = RangeIndex(rng.uniform(0.0, 1000.0, 2000))
    lows = rng.uniform(0.0, 950.0, n)
    points = rng.uniform(-5.0, 5.0, (300, 3))
    neighbors = NeighborIndex(points, 0.8)
    near = rng.uniform(-5.0, 5.0, (n, 3))
    classifier = MeshClassifier(icosphere(3, radius=2.0))
    inside = rng.uniform(-2.5, 2.5, (n, 3))
    return {
        "range_index": (
            index.bvh, lambda i: index.make_query_state(lows[i], lows[i] + 50.0)
        ),
        "neighbor_index": (
            neighbors.bvh, lambda i: neighbors.make_query_state(near[i])
        ),
        "mesh_classifier": (
            classifier.bvh, lambda i: classifier.make_query_state(inside[i])
        ),
    }


@pytest.mark.parametrize("workload", ["range_index", "neighbor_index", "mesh_classifier"])
@pytest.mark.parametrize("chunk", CHUNKS)
def test_any_hit_states_keep_their_hits_in_batch(workload, chunk):
    """States collecting all hits keep every hit in the wave tracer's
    leaf test: no closest-hit pruning, hits in scalar scan order."""
    bvh, make_state = _any_hit_workloads()[workload]
    n = 128
    scalar = [make_state(i) for i in range(n)]
    traced = [make_state(i) for i in range(n)]
    _drain(bvh, scalar)
    _trace(bvh, traced, chunk)
    assert sum(len(s.all_hits) for s in scalar) > 0
    _assert_same_results(scalar, traced)
