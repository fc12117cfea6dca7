"""Cross-module property tests: the whole BVH pipeline against oracles.

These use hypothesis to generate meshes and rays, then check that the
full pipeline (SAH build -> wide collapse -> treelets -> layout ->
traversal) agrees with brute force, for both traversal orders, both
partition strategies, both leaf layouts and for the timing engines.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bvh import TraversalOrder, build_scene_bvh, full_traverse
from repro.bvh.builder import BuildConfig
from repro.geometry import TriangleMesh, rays_triangle_soup_intersect

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def mesh_strategy():
    """Random small triangle soups, including degenerate clusters."""

    @st.composite
    def build(draw):
        n = draw(st.integers(4, 60))
        seed = draw(st.integers(0, 10_000))
        spread = draw(st.floats(0.1, 10.0))
        rng = np.random.default_rng(seed)
        anchors = rng.uniform(-spread, spread, size=(n, 1, 3))
        tris = anchors + rng.uniform(-0.5, 0.5, size=(n, 3, 3))
        return TriangleMesh(tris.reshape(-1, 3), np.arange(3 * n).reshape(n, 3))

    return build()


def rays_for(mesh, count, seed):
    rng = np.random.default_rng(seed)
    bounds = mesh.bounds()
    center = bounds.centroid()
    radius = float(np.linalg.norm(bounds.extent())) + 1.0
    origins = center + rng.normal(size=(count, 3)) * radius
    targets = center + rng.uniform(-0.5, 0.5, (count, 3)) * bounds.extent()
    directions = targets - origins
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    directions = np.where(norms > 1e-12, directions / norms, [1.0, 0, 0])
    return origins, directions


class TestPipelineProperties:
    @SETTINGS
    @given(mesh_strategy(), st.integers(0, 1000))
    def test_traversal_matches_bruteforce(self, mesh, ray_seed):
        bvh = build_scene_bvh(mesh, treelet_budget_bytes=512)
        origins, directions = rays_for(mesh, 6, ray_seed)
        tris = mesh.triangle_vertices()
        idx, t = rays_triangle_soup_intersect(
            origins, directions, tris, np.full(6, 1e-4), np.full(6, np.inf)
        )
        for i in range(6):
            rec = full_traverse(bvh, origins[i], directions[i])
            assert rec.hit == (idx[i] >= 0)
            if rec.hit:
                assert rec.t == pytest.approx(t[i], rel=1e-9, abs=1e-9)

    @SETTINGS
    @given(mesh_strategy(), st.sampled_from(["pack", "subtree"]),
           st.integers(256, 4096))
    def test_partition_strategy_never_changes_results(self, mesh, strategy, budget):
        from repro.bvh.builder import build_binary_bvh
        from repro.bvh.layout import LayoutConfig, build_layout
        from repro.bvh.scene_bvh import _prepare_tables
        from repro.bvh.treelets import partition_treelets
        from repro.bvh.wide import collapse_to_wide

        binary = build_binary_bvh(mesh, BuildConfig())
        wide = collapse_to_wide(binary, 4)
        cfg = LayoutConfig()
        part = partition_treelets(
            wide, budget_bytes=budget, strategy=strategy,
            node_bytes=cfg.node_bytes, triangle_bytes=cfg.triangle_bytes,
            leaf_header_bytes=cfg.leaf_header_bytes,
        )
        layout = build_layout(wide, part, cfg)
        bvh = _prepare_tables(mesh, wide, part, layout)
        reference = build_scene_bvh(mesh, treelet_budget_bytes=1024)
        origins, directions = rays_for(mesh, 4, budget)
        for i in range(4):
            a = full_traverse(bvh, origins[i], directions[i])
            b = full_traverse(reference, origins[i], directions[i])
            assert a.hit == b.hit
            if a.hit:
                assert a.prim_id == b.prim_id

    @SETTINGS
    @given(mesh_strategy())
    def test_orders_and_layouts_agree(self, mesh):
        raw = build_scene_bvh(mesh, treelet_budget_bytes=512)
        packed = build_scene_bvh(
            mesh, treelet_budget_bytes=512, compressed_leaves=True
        )
        origins, directions = rays_for(mesh, 4, 7)
        for i in range(4):
            results = [
                full_traverse(raw, origins[i], directions[i],
                              order=TraversalOrder.DEPTH_FIRST),
                full_traverse(raw, origins[i], directions[i],
                              order=TraversalOrder.TREELET),
                full_traverse(packed, origins[i], directions[i]),
            ]
            hits = {r.hit for r in results}
            assert len(hits) == 1
            if results[0].hit:
                assert len({r.prim_id for r in results}) == 1

    @SETTINGS
    @given(mesh_strategy(), st.integers(0, 500))
    def test_engines_agree_on_random_scenes(self, mesh, seed):
        """Baseline and VTQ units replaying traced states match the scalar
        reference units stepping live states: hit records, cycles and
        every counter."""
        from repro.core import VTQConfig, VTQRTUnit
        from repro.gpusim import (
            BaselineRTUnit, MemorySystem, SimRay, SimStats, TraceWarp,
        )
        from repro.gpusim.config import scaled_config
        from repro.gpusim.soa import ReplayState, trace_states
        from repro.bvh.traversal import init_traversal
        from tests.scalar_reference import ScalarBaselineRTUnit, ScalarVTQRTUnit

        bvh = build_scene_bvh(mesh, treelet_budget_bytes=512)
        origins, directions = rays_for(mesh, 16, seed)
        config = scaled_config()
        vtq = VTQConfig(queue_threshold=4)
        units = {
            "baseline": (BaselineRTUnit, ScalarBaselineRTUnit),
            "vtq": (VTQRTUnit, ScalarVTQRTUnit),
        }
        for engine_kind, classes in units.items():
            outcomes = []
            for unit, live in zip(classes, (False, True)):
                stats = SimStats()
                mem = MemorySystem(config, stats)
                states = [
                    init_traversal(bvh, origins[i], directions[i]) for i in range(16)
                ]
                if live:
                    lanes = states
                else:
                    batch = trace_states(bvh, states)
                    lanes = [ReplayState(batch, i) for i in range(len(states))]
                rays = [SimRay(i, i, 0, 0, lane) for i, lane in enumerate(lanes)]
                if engine_kind == "baseline":
                    engine = unit(bvh, config, mem, stats)
                    engine.submit(TraceWarp(rays, 0))
                    cycles = engine.run()
                else:
                    engine = unit(bvh, config, vtq, mem, stats)
                    engine.submit(TraceWarp(rays, 0))
                    cycles = engine.run(lambda r, c: None)
                outcomes.append((
                    [(s.hit_prim, s.t_hit) for s in states],
                    cycles,
                    stats.snapshot(),
                ))
            assert outcomes[0] == outcomes[1]
