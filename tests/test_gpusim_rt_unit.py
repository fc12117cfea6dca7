"""Tests for the warp-step cost model and the baseline RT unit.

The baseline unit replays traced states (``make_sim_rays``).  The
warp-step tests drive the scalar reference's :func:`warp_step` over live
traversal states (``make_live_rays``): it prices one step with the same
:func:`repro.gpusim.warp.step_latency` the units charge.
"""

import pytest

from repro.bvh.traversal import full_traverse, init_traversal
from repro.gpusim import (
    BaselineRTUnit,
    MemorySystem,
    SimRay,
    SimStats,
    TraceWarp,
    TraversalMode,
)
from repro.gpusim.config import scaled_config

from tests.scalar_reference import warp_step
from tests.test_bvh_traversal import make_rays
from tests.test_core_rt_unit_vtq import make_sim_rays, make_states


@pytest.fixture
def env(soup_bvh):
    config = scaled_config()
    stats = SimStats()
    mem = MemorySystem(config, stats)
    return soup_bvh, config, mem, stats


def make_live_rays(bvh, n, seed, cta=0):
    origins, directions = make_rays(bvh, n, seed)
    return [
        SimRay(i, i, cta, 0, init_traversal(bvh, origins[i], directions[i]))
        for i in range(n)
    ]


class TestWarpStep:
    def test_single_step_latency_positive(self, env):
        bvh, config, mem, stats = env
        rays = make_live_rays(bvh, 8, seed=1)
        latency, stepped, _ = warp_step(
            bvh, rays, mem, config, stats, 0.0, TraversalMode.FINAL_RAY_STATIONARY
        )
        assert latency > 0
        assert len(stepped) == 8

    def test_simt_recorded(self, env):
        bvh, config, mem, stats = env
        rays = make_live_rays(bvh, 8, seed=2)
        warp_step(bvh, rays, mem, config, stats, 0.0, TraversalMode.FINAL_RAY_STATIONARY)
        assert stats.simt_steps == 1
        assert stats.simt_active_sum == pytest.approx(8 / 32)

    def test_empty_when_all_finished(self, env):
        bvh, config, mem, stats = env
        rays = make_live_rays(bvh, 4, seed=3)
        for ray in rays:
            while not ray.finished():
                warp_step(
                    bvh, [ray], mem, config, stats, 0.0,
                    TraversalMode.FINAL_RAY_STATIONARY,
                )
        latency, stepped, _ = warp_step(
            bvh, rays, mem, config, stats, 0.0, TraversalMode.FINAL_RAY_STATIONARY
        )
        assert latency == 0.0 and stepped == []

    def test_mode_cycles_attributed(self, env):
        bvh, config, mem, stats = env
        rays = make_live_rays(bvh, 4, seed=4)
        warp_step(bvh, rays, mem, config, stats, 0.0, TraversalMode.TREELET_STATIONARY)
        assert stats.mode_cycles[TraversalMode.TREELET_STATIONARY] > 0


class TestBaselineRTUnit:
    def test_traversal_matches_reference(self, env):
        """Traced states carry the reference hits; the unit retires every
        ray replaying them."""
        bvh, config, mem, stats = env
        states = make_states(bvh, 32, seed=5)
        references = [
            full_traverse(bvh, (s.ox, s.oy, s.oz), (s.dx, s.dy, s.dz))
            for s in states
        ]
        rays = make_sim_rays(bvh, 32, seed=5, states=states)
        unit = BaselineRTUnit(bvh, config, mem, stats)
        unit.submit(TraceWarp(rays, cta_id=0))
        unit.run()
        assert stats.rays_completed == 32
        for ray, state, ref in zip(rays, states, references):
            assert ray.finished()
            rec = state.hit_record()
            assert rec.hit == ref.hit
            if rec.hit:
                assert rec.t == ref.t

    def test_cycles_monotonic_with_work(self, env):
        bvh, config, mem, stats = env
        unit = BaselineRTUnit(bvh, config, mem, stats)
        unit.submit(TraceWarp(make_sim_rays(bvh, 8, seed=6), 0))
        one = unit.run()
        unit.submit(TraceWarp(make_sim_rays(bvh, 8, seed=7), 0))
        two = unit.run()
        assert two > one

    def test_ready_cycle_delays_start(self, env):
        bvh, config, mem, stats = env
        unit = BaselineRTUnit(bvh, config, mem, stats)
        unit.submit(TraceWarp(make_sim_rays(bvh, 4, seed=8), 0, ready_cycle=5000.0))
        assert unit.run() > 5000.0

    def test_completion_callback_fires_per_warp(self, env):
        bvh, config, mem, stats = env
        unit = BaselineRTUnit(bvh, config, mem, stats)
        unit.submit(TraceWarp(make_sim_rays(bvh, 4, seed=9), 0))
        unit.submit(TraceWarp(make_sim_rays(bvh, 4, seed=10), 1))
        seen = []
        unit.run(lambda warp, cycle: seen.append(warp.cta_id))
        assert sorted(seen) == [0, 1]

    def test_callback_can_submit_more(self, env):
        bvh, config, mem, stats = env
        unit = BaselineRTUnit(bvh, config, mem, stats)
        unit.submit(TraceWarp(make_sim_rays(bvh, 4, seed=11), 0))
        resubmitted = []

        def cb(warp, cycle):
            if not resubmitted:
                resubmitted.append(True)
                unit.submit(TraceWarp(make_sim_rays(bvh, 4, seed=12), 1, ready_cycle=cycle))

        unit.run(cb)
        assert stats.warps_processed == 2

    def test_warps_serialized(self, env):
        """Warp buffer size 1: second warp's rays see first warp's cache state."""
        bvh, config, mem, stats = env
        rays_a = make_sim_rays(bvh, 16, seed=13)
        unit = BaselineRTUnit(bvh, config, mem, stats)
        unit.submit(TraceWarp(rays_a, 0))
        unit.run()
        misses_cold = stats.cache_accesses[("l1", "bvh")] - stats.cache_hits[("l1", "bvh")]
        # Identical rays again: now mostly warm.
        rays_b = make_sim_rays(bvh, 16, seed=13)
        unit.submit(TraceWarp(rays_b, 0))
        unit.run()
        misses_total = stats.cache_accesses[("l1", "bvh")] - stats.cache_hits[("l1", "bvh")]
        assert misses_total - misses_cold < misses_cold


class TestFractionalStall:
    """The warp-step cost model: hits are cheap, misses scale with the
    fraction of lanes that missed."""

    def make_env(self):
        config = scaled_config()
        stats = SimStats()
        mem = MemorySystem(config, stats)
        return config, mem, stats

    def test_all_hit_step_costs_hit_latency(self, soup_bvh):
        config, mem, stats = self.make_env()
        rays = make_live_rays(soup_bvh, 8, seed=20)
        # Warm every line the first step will touch.
        for ray in rays:
            item = ray.state.current_stack[-1][0]
            for line in soup_bvh.item_lines[item]:
                mem.l1.insert(line)
        latency, stepped, _ = warp_step(
            soup_bvh, rays, mem, config, stats, 0.0,
            TraversalMode.FINAL_RAY_STATIONARY,
        )
        assert latency == config.l1_latency + config.intersection_latency

    def test_cold_root_step_coalesces(self, soup_bvh):
        """All 8 lanes start at the root: one lane's miss fills the line
        for the rest (coalescing), so only 1/8 of lanes stall."""
        config, mem, stats = self.make_env()
        rays = make_live_rays(soup_bvh, 8, seed=21)
        latency, _, _ = warp_step(
            soup_bvh, rays, mem, config, stats, 0.0,
            TraversalMode.FINAL_RAY_STATIONARY,
        )
        expected = (
            config.l1_latency
            + (config.dram_latency - config.l1_latency) / 8
            + config.intersection_latency
        )
        assert latency == pytest.approx(expected)

    def test_partial_miss_costs_between(self, soup_bvh):
        """One warm lane plus one cold lane at *different* nodes lands
        between the all-hit and all-miss costs."""
        config, mem, stats = self.make_env()
        rays = make_live_rays(soup_bvh, 2, seed=22)
        # Advance ray B alone so its stack top differs from the root.
        warp_step(
            soup_bvh, [rays[1]], mem, config, stats, 0.0,
            TraversalMode.FINAL_RAY_STATIONARY,
        )
        if not rays[1].state.current_stack:
            # Its next work was deferred to the treelet stack; pull it in.
            rays[1].state.advance_treelet()
        assert rays[1].state.current_stack
        mem.l1.flush()
        mem.l2.flush()
        # Warm only ray A's next item.
        item_a = rays[0].state.current_stack[-1][0]
        for line in soup_bvh.item_lines[item_a]:
            mem.l1.insert(line)
        item_b = rays[1].state.current_stack[-1][0]
        assert set(soup_bvh.item_lines[item_b]) - set(soup_bvh.item_lines[item_a])
        latency, _, _ = warp_step(
            soup_bvh, rays, mem, config, stats, 0.0,
            TraversalMode.FINAL_RAY_STATIONARY,
        )
        lo = config.l1_latency + config.intersection_latency
        hi = config.dram_latency + config.intersection_latency
        assert lo < latency < hi

    def test_miss_serialization_knob(self, soup_bvh):
        from dataclasses import replace

        stats_a, stats_b = SimStats(), SimStats()
        config = scaled_config()
        config_ser = replace(config, miss_serialization_cycles=50)
        rays_a = make_live_rays(soup_bvh, 16, seed=23)
        rays_b = make_live_rays(soup_bvh, 16, seed=23)
        lat_a, _, _ = warp_step(
            soup_bvh, rays_a, MemorySystem(config, stats_a), config, stats_a,
            0.0, TraversalMode.FINAL_RAY_STATIONARY,
        )
        lat_b, _, _ = warp_step(
            soup_bvh, rays_b, MemorySystem(config_ser, stats_b), config_ser,
            stats_b, 0.0, TraversalMode.FINAL_RAY_STATIONARY,
        )
        assert lat_b > lat_a
