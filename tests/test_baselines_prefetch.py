"""Tests for the Treelet Prefetching baseline (Chou et al., MICRO 2023)."""

import functools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines import PrefetchRTUnit
from repro.gpusim import MemorySystem, SimStats, TraceWarp
from repro.gpusim.config import scaled_config
from repro.gpusim.soa import ReplayState, trace_states
from repro.gpusim.warp import SimRay
from repro.rtquery import NeighborIndex, RangeIndex

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


# -- lines shared between treelets ----------------------------------------------
#
# A cache line that straddles a treelet boundary belongs to both treelets'
# line sets, so two outstanding prefetches can both hold it.  The unit keeps
# its line -> holder index up to date on issue and settle; the references
# below rebuild the map from every outstanding treelet at each step, the
# treelet issued last winning, and share no bookkeeping with the unit.


@functools.lru_cache(maxsize=None)
def range_index_bvh():
    """The RangeIndex BVH of tests/test_engine_golden.py (1 KB treelets)."""
    rng = np.random.default_rng(11)
    return RangeIndex(rng.uniform(0.0, 1000.0, 1000)).bvh


class RebuiltIndexReference:
    """Used/unused accounting with the line -> holder map rebuilt per step."""

    def __init__(self):
        self.outstanding = {}  # treelet -> {line: used}, issue order
        self.prefetch_lines = 0
        self.unused_lines = 0

    def issue(self, treelet, new_lines):
        self.outstanding[treelet] = {line: False for line in new_lines}
        self.prefetch_lines += len(new_lines)

    def settle(self, keep=()):
        for treelet in list(self.outstanding):
            if treelet not in keep:
                used = self.outstanding.pop(treelet)
                self.unused_lines += sum(1 for flag in used.values() if not flag)

    def note(self, lines):
        holder = {}
        for used in self.outstanding.values():
            for line in used:
                holder[line] = used
        for line in lines:
            if line in holder:
                holder[line][line] = True


class AtItem:
    """A live ray whose stack top is ``item``: the state surface the
    prefetcher's access observer reads."""

    def __init__(self, item):
        self.state = self
        self.current_stack = ((item,),)

    def finished(self):
        return False


def drive(bvh, events):
    """Apply ``events`` to a unit and the reference; compare after each."""
    unit, stats = make_unit(bvh)
    ref = RebuiltIndexReference()
    l1 = unit.mem.l1
    for kind, arg in events:
        if kind == "issue":
            if arg in unit._outstanding:
                continue  # the demand-miss hook never re-issues
            new_lines = [l for l in bvh.treelet_lines[arg] if not l1.contains(l)]
            unit._issue_prefetch(arg)
            ref.issue(arg, new_lines)
        elif kind == "evict":
            l1.invalidate(arg)
        elif kind == "settle":
            unit._settle_outstanding(keep=set(arg))
            ref.settle(set(arg))
        elif kind == "drop":  # settle one treelet, keep the rest
            keep = set(ref.outstanding) - {arg}
            unit._settle_outstanding(keep=keep)
            ref.settle(keep)
        else:  # "step": rays sit at these items
            unit._note_accesses([AtItem(item) for item in arg])
            ref.note([line for item in arg for line in bvh.item_lines[item]])
        assert stats.prefetch_lines == ref.prefetch_lines
        assert stats.prefetch_unused_lines == ref.unused_lines
    unit._settle_outstanding()
    ref.settle()
    assert stats.prefetch_lines == ref.prefetch_lines
    assert stats.prefetch_unused_lines == ref.unused_lines
    return stats


def shared_line_items(bvh):
    """``(line, (first, second), items)`` for every line two adjacent
    treelets both hold, with the items whose lines include it."""
    out = []
    lines = bvh.treelet_lines
    for first in range(len(lines) - 1):
        if lines[first] and lines[first + 1] and lines[first][-1] == lines[first + 1][0]:
            line = lines[first][-1]
            items = [i for i, item in enumerate(bvh.item_lines) if line in item]
            out.append((line, (first, first + 1), items))
    return out


class TestSharedLines:
    def test_the_bvh_has_shared_lines(self):
        bvh = range_index_bvh()
        boundary = shared_line_items(bvh)
        assert len(boundary) >= 8
        assert bvh.line_treelets(32).shared == {
            line: owners for line, owners, _items in boundary
        }

    def test_settled_holder_falls_back_to_the_other_treelet(self):
        """Both treelets hold the boundary line (the L1 lost it between
        their issues); when the one that holds the index settles, a ray
        touching the line marks it used in the survivor."""
        bvh = range_index_bvh()
        for line, (first, second), items in shared_line_items(bvh)[:8]:
            for a, b in ((first, second), (second, first)):
                stats = drive(bvh, [
                    ("issue", a), ("evict", line), ("issue", b),
                    ("settle", [a]), ("step", items), ("settle", []),
                ])
                assert stats.prefetch_lines > 0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(0, 2),  # boundary
        st.integers(0, 1),  # side issued first
        st.booleans(),  # the L1 loses the boundary line in between
        st.sampled_from(["first", "second", "all", None]),  # what settles
        st.lists(st.integers(0, 2), max_size=2),  # boundaries rays step over
    ), min_size=1, max_size=6))
    def test_random_overlapping_prefetches(self, rounds):
        """Rounds of overlapping issues on both sides of a boundary, with
        or without the shared line evicted between them, then a settle
        and rays stepping over boundary items; rounds build on what the
        earlier ones left outstanding."""
        bvh = range_index_bvh()
        boundary = shared_line_items(bvh)[:3]
        events = []
        for k, side, evict, settle, steps in rounds:
            line, owners, _items = boundary[k]
            first, second = owners[side], owners[1 - side]
            events.append(("issue", first))
            if evict:
                events.append(("evict", line))
            events.append(("issue", second))
            if settle == "first":
                events.append(("drop", first))
            elif settle == "second":
                events.append(("drop", second))
            elif settle == "all":
                events.append(("settle", []))
            events.append(("step", [i for j in steps for i in boundary[j][2]]))
        drive(bvh, events)


class RebuildingPrefetchRTUnit(PrefetchRTUnit):
    """The prefetcher with its holder map rebuilt from every outstanding
    treelet at each step and its fills made one ``Cache.insert`` at a time."""

    def _issue_prefetch(self, treelet):
        l1 = self.mem.l1
        new_lines = [l for l in self.bvh.treelet_lines[treelet] if not l1.contains(l)]
        for line in new_lines:
            l1.insert(line)
        self.stats.prefetch_lines += len(new_lines)
        self.stats.traffic_bytes["prefetch"] += len(new_lines) * self.config.line_bytes
        self.stats.traffic_bytes["dram"] += len(new_lines) * self.config.line_bytes
        self._outstanding[treelet] = {line: False for line in new_lines}

    def _settle_outstanding(self, keep=None):
        keep = keep or set()
        for treelet in list(self._outstanding):
            if treelet not in keep:
                for used in self._outstanding.pop(treelet).values():
                    if not used:
                        self.stats.prefetch_unused_lines += 1

    def _note_accesses(self, rays):
        holder = {}
        for used in self._outstanding.values():
            for line in used:
                holder[line] = used
        for ray in rays:
            state = ray.state
            if state.finished() or not state.current_stack:
                continue
            for line in self.bvh.item_lines[state.current_stack[-1][0]]:
                if line in holder:
                    holder[line][line] = True


def run_queries(unit_class, bvh, states):
    config = scaled_config()
    stats = SimStats()
    unit = unit_class(bvh, config, MemorySystem(config, stats), stats)
    batch = trace_states(bvh, states)
    rays = [SimRay(i, i, 0, 0, ReplayState(batch, i)) for i in range(len(states))]
    for start in range(0, len(rays), config.warp_size):
        unit.submit(TraceWarp(rays[start : start + config.warp_size], 0))
    return unit.run(), stats


def test_replay_matches_rebuilt_index_on_query_batches():
    """Whole query batches through the unit and the rebuilding reference:
    cycles and every counter agree, prefetch lines and unused lines
    included, on BVHs whose treelets share lines."""
    rng = np.random.default_rng(11)
    index = RangeIndex(rng.uniform(0.0, 1000.0, 1000))
    lows = rng.uniform(0.0, 990.0, 256)
    points = rng.uniform(-5.0, 5.0, (300, 3))
    neighbors = NeighborIndex(points, 0.8)
    near = rng.uniform(-5.0, 5.0, (256, 3))
    workloads = [
        (index.bvh, lambda i: index.make_query_state(lows[i], lows[i] + 10.0, ray_id=i)),
        (neighbors.bvh, lambda i: neighbors.make_query_state(near[i], ray_id=i)),
    ]
    for bvh, factory in workloads:
        assert bvh.line_treelets(32).shared
        cycles, stats = run_queries(PrefetchRTUnit, bvh, [factory(i) for i in range(256)])
        ref_cycles, ref_stats = run_queries(
            RebuildingPrefetchRTUnit, bvh, [factory(i) for i in range(256)]
        )
        assert stats.prefetch_lines > 0 and stats.prefetch_unused_lines > 0
        assert cycles == ref_cycles
        assert stats.snapshot() == ref_stats.snapshot()
