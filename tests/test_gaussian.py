"""Gaussian splat pipeline: scenes, geometry, BVH and engine exactness.

The splat workload (docs/GAUSSIAN.md) threads a second primitive kind
through the whole stack: ``repro.scenes.gaussians`` generates the
scenes, :class:`~repro.geometry.gaussian.GaussianSet` speaks the mesh
protocol the BVH build consumes, traversal dispatches on
``bvh.prim_kind`` and the timing engines price leaves with the
alpha-evaluation cost model.  These tests pin the pieces the kernel
equivalence suite does not: scene determinism, typed lookup errors, the
leaf-row layout, the qmax contract — and plan-replay bit-exactness
against the scalar reference renderer (``tests/scalar_reference.py``) on
two splat scenes under every policy.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.bvh import build_scene_bvh, full_traverse
from repro.errors import SceneError
from repro.experiments import default_context
from repro.experiments.runner import ExperimentContext, scene_and_bvh
from repro.geometry.gaussian import ALPHA_HIT_MIN, GaussianSet
from repro.memtrace import PLAN_GPU_FIELDS, replay_trace
from repro.memtrace.store import record_trace
from repro.scenes import load_scene, scene_names
from repro.scenes.gaussians import (
    GAUSSIAN_SCENES,
    build_gaussian_set,
    gaussian_scene_names,
    gaussian_scene_spec,
    is_gaussian_scene,
)
from repro.tracing import render_scene
from tests.scalar_reference import reference_render

SCENES = ("GSPL1", "GSPL2")
POLICIES = ("baseline", "prefetch", "vtq")


@pytest.fixture(scope="module")
def ctx():
    base = default_context(fast=True)
    return ExperimentContext(
        setup=base.setup, scene_list=base.scene_list, use_disk_cache=False
    )


@pytest.fixture(scope="module")
def small_set():
    return build_gaussian_set(GAUSSIAN_SCENES[0], scale=0.3)


# ---------------------------------------------------------------------------
# scene registry and generator


class TestSceneRegistry:
    def test_names_ascend_in_primitive_count(self):
        names = gaussian_scene_names()
        assert names == ["GSPL1", "GSPL2", "GSPL3"]
        budgets = [gaussian_scene_spec(n).splats for n in names]
        assert budgets == sorted(budgets)

    def test_membership_predicate(self):
        assert is_gaussian_scene("GSPL1")
        assert not is_gaussian_scene("BUNNY")
        assert not is_gaussian_scene("")

    def test_unknown_name_is_a_typed_error(self):
        with pytest.raises(SceneError, match="unknown gaussian scene 'GSPL9'"):
            gaussian_scene_spec("GSPL9")

    def test_scene_names_gate(self):
        """Splat scenes are opt-in: absent by default, present with the flag."""
        default = scene_names(include_extra=True)
        assert not any(is_gaussian_scene(n) for n in default)
        gated = scene_names(include_extra=True, include_gaussian=True)
        assert set(gaussian_scene_names()) <= set(gated)

    def test_generator_is_deterministic(self):
        spec = gaussian_scene_spec("GSPL1")
        a = build_gaussian_set(spec, scale=0.25)
        b = build_gaussian_set(spec, scale=0.25)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.precisions, b.precisions)
        assert np.array_equal(a.opacities, b.opacities)
        assert np.array_equal(a.colors, b.colors)

    def test_density_scales_with_scale(self):
        spec = gaussian_scene_spec("GSPL2")
        assert spec.target_gaussians(1.0) == spec.splats
        assert spec.target_gaussians(0.5) == spec.splats // 2
        assert spec.target_gaussians(0.0) == 64  # floor, never empty

    def test_load_scene_dispatches_on_gaussian_names(self, ctx):
        scene = load_scene("GSPL1", scale=ctx.setup.scene_scale)
        assert scene.mesh.kind == "gaussian"
        assert scene.spec.name == "GSPL1"
        assert scene.spec.family == "gaussian"


class TestGaussianSet:
    def test_mesh_protocol_shapes(self, small_set):
        n = small_set.gaussian_count
        assert small_set.triangle_count == n
        assert small_set.triangle_bounds().shape == (n, 6)
        assert small_set.triangle_centroids().shape == (n, 3)

    def test_bounds_contain_every_splat_extent(self, small_set):
        per_prim = small_set.triangle_bounds()
        lo = per_prim[:, :3]
        hi = per_prim[:, 3:]
        assert (hi >= lo).all()
        # Oriented extents enclose the centers with positive margin: an
        # anisotropic gaussian always has nonzero support on every axis.
        assert (lo < small_set.centers).all()
        assert (hi > small_set.centers).all()
        box = small_set.bounds()
        assert (lo >= np.asarray(box.lo) - 1e-12).all()
        assert (hi <= np.asarray(box.hi) + 1e-12).all()

    def test_precisions_are_spd(self, small_set):
        r = small_set.precisions
        mats = np.zeros((len(r), 3, 3))
        mats[:, 0, 0], mats[:, 0, 1], mats[:, 0, 2] = r[:, 0], r[:, 1], r[:, 2]
        mats[:, 1, 1], mats[:, 1, 2], mats[:, 2, 2] = r[:, 3], r[:, 4], r[:, 5]
        mats[:, 1, 0], mats[:, 2, 0], mats[:, 2, 1] = r[:, 1], r[:, 2], r[:, 4]
        eigvals = np.linalg.eigvalsh(mats)
        assert (eigvals > 0).all()

    def test_qmax_is_the_log_space_alpha_threshold(self, small_set):
        expected = 2.0 * (np.log(small_set.opacities) - np.log(ALPHA_HIT_MIN))
        assert np.array_equal(small_set.qmax, expected)
        # Every registered opacity clears the hit floor, so every splat
        # is hittable at its peak.
        assert (small_set.qmax > 0).all()

    def test_covariance_roundtrip(self):
        rng = np.random.default_rng(53)
        b = rng.normal(size=(8, 3, 3))
        cov = b @ np.swapaxes(b, -1, -2) + 0.1 * np.eye(3)
        gset = GaussianSet.from_covariance(
            rng.uniform(-1, 1, (8, 3)), cov,
            rng.uniform(0.3, 0.9, 8), rng.uniform(0.1, 1.0, (8, 3)),
        )
        assert np.allclose(gset.covariances(), cov, rtol=1e-9, atol=1e-12)
        # precision rows really are the inverse covariance
        m = np.zeros((8, 3, 3))
        r = gset.precisions
        m[:, 0, 0], m[:, 0, 1], m[:, 0, 2] = r[:, 0], r[:, 1], r[:, 2]
        m[:, 1, 1], m[:, 1, 2], m[:, 2, 2] = r[:, 3], r[:, 4], r[:, 5]
        m[:, 1, 0], m[:, 2, 0], m[:, 2, 1] = r[:, 1], r[:, 2], r[:, 4]
        assert np.allclose(m @ cov, np.eye(3), atol=1e-8)


# ---------------------------------------------------------------------------
# BVH over splats


class TestGaussianBVH:
    def test_prim_kind_and_leaf_rows(self, small_set):
        bvh = build_scene_bvh(small_set)
        assert bvh.prim_kind == "gaussian"
        seen = set()
        for rows in bvh.leaf_tris:
            for row in rows:
                assert len(row) == 11  # cx cy cz m00..m22 qmax prim
                prim = row[-1]
                assert 0 <= prim < small_set.gaussian_count
                seen.add(prim)
                assert row[:3] == tuple(small_set.centers[prim])
                assert row[9] == small_set.qmax[prim]
        assert len(seen) == small_set.gaussian_count  # every splat in a leaf

    def test_compressed_leaves_refused(self, small_set):
        with pytest.raises(ValueError, match="triangle codec"):
            build_scene_bvh(small_set, compressed_leaves=True)

    def test_full_traverse_hits_the_cloud(self, small_set):
        bvh = build_scene_bvh(small_set)
        box = small_set.bounds()
        center = np.asarray(box.centroid())
        eye = center + np.array([0.0, 0.0, float(np.linalg.norm(box.extent()))])
        direction = center - eye
        direction /= np.linalg.norm(direction)
        hit = full_traverse(bvh, eye, direction)
        assert hit.hit and hit.prim_id >= 0
        assert hit.t > 0.0
        assert hit.triangle_tests > 0  # the counter doubles as alpha tests


# ---------------------------------------------------------------------------
# plan-replay bit-exactness on splat scenes


class TestSoABitExactnessOnSplats:
    @pytest.mark.parametrize("scene_name", SCENES)
    @pytest.mark.parametrize("policy", POLICIES + ("sorted",))
    def test_stats_image_cycles(self, ctx, scene_name, policy):
        scene, bvh = scene_and_bvh(scene_name, ctx.setup)
        assert bvh.prim_kind == "gaussian"
        reference = reference_render(scene, bvh, ctx.setup, policy=policy)
        replay = render_scene(scene, bvh, ctx.setup, policy=policy)
        assert replay.stats.snapshot() == reference.stats.snapshot()
        assert replay.image.tobytes() == reference.image.tobytes()
        assert replay.cycles == reference.cycles
        assert replay.per_sm_cycles == reference.per_sm_cycles

    def test_policies_agree_on_image_not_cycles(self, ctx):
        """Timing policies reorder splat work, never change the render."""
        scene, bvh = scene_and_bvh("GSPL1", ctx.setup)
        results = {
            p: render_scene(scene, bvh, ctx.setup, policy=p) for p in POLICIES
        }
        images = {r.image.tobytes() for r in results.values()}
        assert len(images) == 1
        cycles = {p: r.cycles for p, r in results.items()}
        assert len(set(cycles.values())) == len(cycles)


# ---------------------------------------------------------------------------
# leaf-cost model: replaying a splat trace at new leaf costs


class TestLeafCostReplay:
    def test_alpha_cost_axes_are_replay_safe(self):
        """The stored plan does not depend on the leaf costs."""
        assert "gaussian_alpha_cycles" not in PLAN_GPU_FIELDS
        assert "gaussian_blend_cycles" not in PLAN_GPU_FIELDS

    def test_splat_trace_replays_bit_exact_and_reprices(self, ctx):
        scene, bvh = scene_and_bvh("GSPL1", ctx.setup)
        trace, live = record_trace(
            scene, bvh, ctx.setup, "baseline", scene_name="GSPL1"
        )
        same = replay_trace(trace)
        assert same.stats.snapshot() == live.stats.snapshot()
        assert same.cycles == live.cycles
        # Doubling the per-candidate alpha cost must reprice the replay
        # against fresh live runs at the overridden config, bit for bit.
        doubled = ctx.setup.gpu.gaussian_alpha_cycles * 2
        repriced = replay_trace(trace, {"gaussian_alpha_cycles": doubled})
        assert repriced.cycles > live.cycles
        gpu = dataclasses.replace(ctx.setup.gpu, gaussian_alpha_cycles=doubled)
        fresh = render_scene(
            scene, bvh, dataclasses.replace(ctx.setup, gpu=gpu),
            policy="baseline",
        )
        assert repriced.cycles == fresh.cycles
        assert repriced.stats.snapshot() == fresh.stats.snapshot()

    def test_alpha_axes_are_inert_on_triangle_traces(self, ctx):
        """Triangle workloads pay no leaf costs, so the alpha axes
        replay as no-ops there."""
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        trace, live = record_trace(
            scene, bvh, ctx.setup, "baseline", scene_name="BUNNY"
        )
        repriced = replay_trace(trace, {"gaussian_alpha_cycles": 999.0})
        assert repriced.cycles == live.cycles
        assert repriced.stats.snapshot() == live.stats.snapshot()


# ---------------------------------------------------------------------------
# end-to-end: the case runner prices splats through the metrics dict


def test_run_case_metrics_stable_across_engines(ctx):
    """The case runner's metrics equal those of the scalar reference."""
    from repro.experiments import runner

    served = runner.run_case("GSPL2", "vtq", ctx, vtq=None)
    scene, bvh = scene_and_bvh("GSPL2", ctx.setup)
    expected = runner.extract_metrics(
        reference_render(scene, bvh, ctx.setup, policy="vtq"), ctx.setup
    )
    expected.update(scene="GSPL2", policy="vtq")
    assert json.dumps(served, sort_keys=True) == json.dumps(expected, sort_keys=True)
