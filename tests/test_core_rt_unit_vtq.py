"""Tests for the VTQ RT unit: completeness, correctness and mechanisms."""

import pytest

from repro.bvh.traversal import full_traverse, init_traversal
from repro.core import VTQConfig, VTQRTUnit
from repro.gpusim import MemorySystem, SimRay, SimStats, TraceWarp, TraversalMode
from repro.gpusim.config import scaled_config
from repro.gpusim.soa import ReplayState, trace_states

from tests.test_bvh_traversal import make_rays


def make_engine(bvh, vtq=None, config=None):
    config = config or scaled_config()
    stats = SimStats()
    mem = MemorySystem(config, stats)
    vtq = vtq or VTQConfig().scaled_to(config.max_virtual_rays_per_sm)
    return VTQRTUnit(bvh, config, vtq, mem, stats), stats


def make_states(bvh, n, seed):
    """``n`` fresh traversal states of random rays into ``bvh``."""
    origins, directions = make_rays(bvh, n, seed)
    return [init_traversal(bvh, origins[i], directions[i]) for i in range(n)]


def make_sim_rays(bvh, n, seed, cta=0, base_id=0, states=None):
    """Rays replaying the traced batch of ``states`` (default: ``n``
    random rays) — what the policy units consume."""
    if states is None:
        states = make_states(bvh, n, seed)
    batch = trace_states(bvh, states)
    return [
        SimRay(base_id + i, base_id + i, cta, 0, ReplayState(batch, i))
        for i in range(len(states))
    ]


def submit_all(engine, rays, cta=0, ready=0.0):
    for i in range(0, len(rays), 32):
        engine.submit(TraceWarp(rays[i : i + 32], cta, ready_cycle=ready))


class TestCompleteness:
    """Every submitted ray must complete exactly once — the invariant the
    whole dynamic-mode machinery must preserve."""

    @pytest.mark.parametrize("n,seed", [(32, 1), (96, 2), (200, 3)])
    def test_all_rays_complete_once(self, soup_bvh, n, seed):
        engine, _ = make_engine(soup_bvh)
        rays = make_sim_rays(soup_bvh, n, seed)
        submit_all(engine, rays)
        done = []
        engine.run(lambda r, c: done.append(r.ray_id))
        assert sorted(done) == [r.ray_id for r in rays]
        assert engine._rays_in_unit == 0
        assert engine.queues.empty()

    @pytest.mark.parametrize("kwargs", [
        dict(group_underpopulated=False, repack_enabled=False, queue_threshold=1),
        dict(repack_enabled=False),
        dict(preload_enabled=False),
        dict(treelet_mode_enabled=False),
        dict(queue_threshold=8),
        dict(repack_threshold=8),
        dict(divergence_threshold=1),
        dict(count_table_entries=2),
        dict(queue_table_entries=1),
    ])
    def test_all_variants_complete(self, soup_bvh, kwargs):
        engine, _ = make_engine(soup_bvh, vtq=VTQConfig(**kwargs))
        rays = make_sim_rays(soup_bvh, 128, seed=4)
        submit_all(engine, rays)
        done = []
        engine.run(lambda r, c: done.append(r.ray_id))
        assert len(done) == 128

    def test_functional_results_exact(self, soup_bvh):
        """Traced states carry the exact hits, and the unit retires every
        ray replaying them."""
        engine, _ = make_engine(soup_bvh)
        states = make_states(soup_bvh, 64, seed=5)
        refs = [
            full_traverse(soup_bvh, (s.ox, s.oy, s.oz), (s.dx, s.dy, s.dz))
            for s in states
        ]
        rays = make_sim_rays(soup_bvh, 64, seed=5, states=states)
        submit_all(engine, rays)
        done = []
        engine.run(lambda r, c: done.append(r.ray_id))
        assert sorted(done) == list(range(64))
        assert all(ray.finished() for ray in rays)
        for state, ref in zip(states, refs):
            rec = state.hit_record()
            assert rec.hit == ref.hit
            if rec.hit:
                assert rec.t == ref.t
                assert rec.prim_id == ref.prim_id

    def test_callback_resubmission(self, soup_bvh):
        """Secondary warps submitted from the completion callback finish too."""
        engine, _ = make_engine(soup_bvh)
        first = make_sim_rays(soup_bvh, 32, seed=6)
        submit_all(engine, first)
        done = []
        injected = []

        def cb(ray, cycle):
            done.append(ray.ray_id)
            if not injected and len(done) == 32:
                injected.append(True)
                more = make_sim_rays(soup_bvh, 32, seed=7, base_id=1000)
                submit_all(engine, more, ready=cycle + 100)

        engine.run(cb)
        assert len(done) == 64


class TestMechanisms:
    def test_treelet_mode_used_when_rays_coherent(self, soup_bvh):
        engine, stats = make_engine(soup_bvh, vtq=VTQConfig(queue_threshold=8))
        rays = make_sim_rays(soup_bvh, 256, seed=8)
        submit_all(engine, rays)
        engine.run(lambda r, c: None)
        assert stats.mode_cycles[TraversalMode.TREELET_STATIONARY] > 0
        assert stats.mode_cycles[TraversalMode.INITIAL_RAY_STATIONARY] > 0

    def test_treelet_mode_disabled_routes_to_final(self, soup_bvh):
        engine, stats = make_engine(
            soup_bvh, vtq=VTQConfig(treelet_mode_enabled=False)
        )
        rays = make_sim_rays(soup_bvh, 64, seed=9)
        submit_all(engine, rays)
        engine.run(lambda r, c: None)
        assert stats.mode_cycles[TraversalMode.TREELET_STATIONARY] == 0
        assert stats.mode_cycles[TraversalMode.FINAL_RAY_STATIONARY] > 0

    def test_repacking_counted(self, soup_bvh):
        engine, stats = make_engine(
            soup_bvh,
            vtq=VTQConfig(queue_threshold=1 << 30, repack_threshold=28),
        )
        rays = make_sim_rays(soup_bvh, 256, seed=10)
        submit_all(engine, rays)
        engine.run(lambda r, c: None)
        assert stats.warp_repacks > 0

    def test_no_repacks_when_disabled(self, soup_bvh):
        engine, stats = make_engine(soup_bvh, vtq=VTQConfig(repack_enabled=False))
        rays = make_sim_rays(soup_bvh, 128, seed=11)
        submit_all(engine, rays)
        engine.run(lambda r, c: None)
        assert stats.warp_repacks == 0

    def test_repacking_raises_simt_efficiency(self, soup_bvh):
        """The core Figure 13 mechanism, in miniature."""
        base_cfg = dict(queue_threshold=1 << 30)  # force pure final phase
        on, stats_on = make_engine(
            soup_bvh, vtq=VTQConfig(repack_threshold=22, **base_cfg)
        )
        off, stats_off = make_engine(
            soup_bvh, vtq=VTQConfig(repack_enabled=False, **base_cfg)
        )
        for engine in (on, off):
            rays = make_sim_rays(soup_bvh, 256, seed=12)
            submit_all(engine, rays)
            engine.run(lambda r, c: None)
        assert stats_on.simt_efficiency() > stats_off.simt_efficiency()

    def test_preload_reduces_cycles(self, soup_bvh):
        results = {}
        for preload in (True, False):
            engine, stats = make_engine(
                soup_bvh, vtq=VTQConfig(queue_threshold=8, preload_enabled=preload)
            )
            rays = make_sim_rays(soup_bvh, 256, seed=13)
            submit_all(engine, rays)
            engine.run(lambda r, c: None)
            results[preload] = engine.cycle
        assert results[True] <= results[False]

    def test_ray_cap_still_completes(self, soup_bvh):
        from dataclasses import replace

        config = replace(scaled_config(), max_virtual_rays_per_sm=64)
        engine, _ = make_engine(soup_bvh, config=config,
                                vtq=VTQConfig().scaled_to(64))
        rays = make_sim_rays(soup_bvh, 192, seed=14)
        submit_all(engine, rays)
        done = []
        engine.run(lambda r, c: done.append(r))
        assert len(done) == 192

    def test_idle_gap_advances_cycle(self, soup_bvh):
        engine, _ = make_engine(soup_bvh)
        rays = make_sim_rays(soup_bvh, 32, seed=15)
        submit_all(engine, rays, ready=9000.0)
        engine.run(lambda r, c: None)
        assert engine.cycle > 9000.0


class TestRobustness:
    """Hypothesis-driven: the engine conserves rays under arbitrary
    submission patterns."""

    def test_random_submission_patterns(self, soup_bvh):
        from hypothesis import HealthCheck, given, settings, strategies as st

        @settings(max_examples=15, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(
            st.lists(
                st.tuples(
                    st.integers(1, 32),       # rays in warp
                    st.floats(0.0, 5000.0),   # ready cycle
                    st.integers(0, 7),        # cta id
                ),
                min_size=1,
                max_size=12,
            ),
            st.integers(1, 200),  # queue threshold
            st.integers(1, 32),   # repack threshold
        )
        def run(warp_specs, queue_threshold, repack_threshold):
            engine, _ = make_engine(
                soup_bvh,
                vtq=VTQConfig(
                    queue_threshold=queue_threshold,
                    repack_threshold=repack_threshold,
                ),
            )
            expected = 0
            base = 0
            for n, ready, cta in warp_specs:
                rays = make_sim_rays(soup_bvh, n, seed=base + 7, cta=cta,
                                     base_id=base)
                base += n
                expected += n
                engine.submit(TraceWarp(rays, cta, ready_cycle=ready))
            done = []
            engine.run(lambda r, c: done.append(r.ray_id))
            assert len(done) == expected
            assert len(set(done)) == expected
            assert engine.queues.empty()
            assert engine._rays_in_unit == 0

        run()
