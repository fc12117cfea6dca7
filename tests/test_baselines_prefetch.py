"""Tests for the Treelet Prefetching baseline (Chou et al., MICRO 2023)."""

from repro.baselines import PrefetchRTUnit
from repro.gpusim import MemorySystem, SimStats, TraceWarp
from repro.gpusim.config import scaled_config

from tests.test_core_rt_unit_vtq import make_sim_rays, make_states


def make_unit(bvh):
    config = scaled_config()
    stats = SimStats()
    mem = MemorySystem(config, stats)
    return PrefetchRTUnit(bvh, config, mem, stats), stats


class TestPrefetchUnit:
    def test_functional_results_unchanged(self, soup_bvh):
        """Traced states carry the reference hits; the unit retires every
        ray replaying them."""
        from repro.bvh.traversal import full_traverse

        unit, stats = make_unit(soup_bvh)
        states = make_states(soup_bvh, 32, seed=1)
        refs = [
            full_traverse(soup_bvh, (s.ox, s.oy, s.oz), (s.dx, s.dy, s.dz))
            for s in states
        ]
        rays = make_sim_rays(soup_bvh, 32, seed=1, states=states)
        unit.submit(TraceWarp(rays, 0))
        unit.run()
        assert stats.rays_completed == 32
        for state, ref in zip(states, refs):
            rec = state.hit_record()
            assert rec.hit == ref.hit
            if rec.hit:
                assert rec.t == ref.t

    def test_prefetches_issued(self, soup_bvh):
        unit, stats = make_unit(soup_bvh)
        unit.submit(TraceWarp(make_sim_rays(soup_bvh, 32, seed=2), 0))
        unit.run()
        assert stats.prefetch_lines > 0

    def test_some_prefetches_unused(self, soup_bvh):
        """Chou et al. report 43.5% unused; we only require a nonzero share."""
        unit, stats = make_unit(soup_bvh)
        for i in range(4):
            unit.submit(TraceWarp(make_sim_rays(soup_bvh, 32, seed=3 + i), 0))
        unit.run()
        assert stats.prefetch_unused_lines > 0
        assert 0.0 < stats.prefetch_unused_fraction() < 1.0

    def test_prefetch_traffic_counted(self, soup_bvh):
        unit, stats = make_unit(soup_bvh)
        unit.submit(TraceWarp(make_sim_rays(soup_bvh, 32, seed=7), 0))
        unit.run()
        assert stats.traffic_bytes["prefetch"] > 0

    def test_repeat_prefetch_of_resident_treelet_is_free(self, soup_bvh):
        unit, stats = make_unit(soup_bvh)
        treelet = soup_bvh.root_treelet
        unit._issue_prefetch(treelet)
        before = stats.prefetch_lines
        unit._issue_prefetch(treelet)  # lines already resident
        assert stats.prefetch_lines == before

    def test_votes_count_current_and_next_treelets(self, soup_bvh):
        unit, _ = make_unit(soup_bvh)
        rays = make_sim_rays(soup_bvh, 8, seed=8)
        unit._refresh_votes(rays)
        # Fresh rays all sit at the root treelet.
        assert unit._votes[soup_bvh.root_treelet] == 8

    def test_votes_empty_population(self, soup_bvh):
        unit, _ = make_unit(soup_bvh)
        unit._refresh_votes([])
        assert not unit._votes

    def test_demand_miss_triggers_treelet_prefetch(self, soup_bvh):
        unit, stats = make_unit(soup_bvh)
        rays = make_sim_rays(soup_bvh, 8, seed=9)
        unit._refresh_votes(rays)
        line = soup_bvh.treelet_lines[soup_bvh.root_treelet][0]
        unit._on_demand_miss(line)
        assert stats.prefetch_lines > 0
        assert all(
            unit.mem.l1.contains(l)
            for l in soup_bvh.treelet_lines[soup_bvh.root_treelet]
        )

    def test_unpopular_treelet_not_prefetched(self, soup_bvh):
        unit, stats = make_unit(soup_bvh)
        unit.min_votes = 4
        unit._votes.clear()
        line = soup_bvh.treelet_lines[soup_bvh.root_treelet][0]
        unit._on_demand_miss(line)
        assert stats.prefetch_lines == 0
