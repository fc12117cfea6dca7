"""Tests for the treelet count/queue tables and Section 6.5's area math."""

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core import TreeletCountTable, TreeletQueueTable, TreeletQueues, area_overheads
from repro.core.config import VTQConfig
from repro.gpusim import SimStats


class FakeRay:
    def __init__(self, rid):
        self.ray_id = rid

    def __repr__(self):
        return f"FakeRay({self.ray_id})"


class TestCountTable:
    def test_increment_and_largest(self):
        t = TreeletCountTable(10)
        t.increment(5, 3)
        t.increment(7, 1)
        assert t.largest() == (5, 3)

    def test_decrement_removes_at_zero(self):
        t = TreeletCountTable(10)
        t.increment(5, 2)
        t.decrement(5, 2)
        assert 5 not in t
        assert t.largest() == (None, 0)

    def test_decrement_unknown_raises(self):
        with pytest.raises(KeyError):
            TreeletCountTable(10).decrement(1)

    def test_eviction_of_smallest_when_full(self):
        t = TreeletCountTable(2)
        t.increment(1, 5)
        t.increment(2, 1)
        evicted = t.increment(3, 3)
        assert evicted == 2  # smallest count
        assert 3 in t and 1 in t

    def test_peak_entries_tracked(self):
        t = TreeletCountTable(10)
        for i in range(7):
            t.increment(i)
        assert t.peak_entries == 7

    def test_first_entries_in_insertion_order(self):
        t = TreeletCountTable(10)
        t.increment(9)
        t.increment(3)
        assert t.first_entries() == [9, 3]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TreeletCountTable(0)


class TestQueueTable:
    def test_entries_used_ceil_division(self):
        q = TreeletQueueTable(128, rays_per_entry=32)
        for i in range(33):
            q.push(1, FakeRay(i))
        assert q.entries_used() == 2  # 33 rays -> 2 entries (Figure 9 duplicates)

    def test_overflow_detection(self):
        q = TreeletQueueTable(1, rays_per_entry=2)
        assert q.push(1, FakeRay(0))
        assert q.push(1, FakeRay(1))
        assert not q.push(2, FakeRay(2))  # second entry exceeds capacity
        assert q.overflow_events == 1

    def test_pop_front_fifo(self):
        q = TreeletQueueTable(128)
        for i in range(5):
            q.push(1, FakeRay(i))
        popped = q.pop_front(1, 3)
        assert [r.ray_id for r in popped] == [0, 1, 2]
        assert q.queue_length(1) == 2

    def test_pop_empty(self):
        q = TreeletQueueTable(128)
        assert q.pop_front(1, 4) == []

    def test_pop_removes_empty_queue(self):
        q = TreeletQueueTable(128)
        q.push(1, FakeRay(0))
        q.pop_front(1, 1)
        assert 1 not in q


class TestTreeletQueues:
    def make(self, **kw):
        config = VTQConfig(**kw)
        return TreeletQueues(config, SimStats())

    def test_push_pop_roundtrip(self):
        q = self.make()
        for i in range(40):
            q.push(3, FakeRay(i))
        assert q.largest() == (3, 40)
        warp = q.pop_warp(3, 32)
        assert len(warp) == 32
        assert q.largest() == (3, 8)
        assert q.total_rays() == 8

    def test_pop_any_table_order(self):
        q = self.make()
        q.push(5, FakeRay(0))
        q.push(9, FakeRay(1))
        q.push(5, FakeRay(2))
        rays = q.pop_any(2)
        # Treelet 5 was inserted first; its rays drain first.
        assert [r.ray_id for r in rays] == [0, 2]
        assert q.total_rays() == 1

    def test_pop_any_includes_stray(self):
        q = self.make(count_table_entries=1)
        q.push(1, FakeRay(0))
        q.push(2, FakeRay(1))  # evicts treelet 1 -> ray 0 becomes stray
        assert len(q.stray) == 1
        rays = q.pop_any(5)
        assert {r.ray_id for r in rays} == {0, 1}
        assert q.empty()

    def test_eviction_recorded_in_stats(self):
        stats = SimStats()
        q = TreeletQueues(VTQConfig(count_table_entries=1), stats)
        q.push(1, FakeRay(0))
        q.push(2, FakeRay(1))
        assert stats.count_table_evictions == 1

    def test_consistency_invariant(self):
        """count table total always equals queue-table ray count."""
        q = self.make()
        for i in range(100):
            q.push(i % 7, FakeRay(i))
        q.pop_warp(0, 5)
        q.pop_any(17)
        in_queues = sum(
            q.queue_table.queue_length(t) for t in q.count_table.first_entries()
        )
        assert q.count_table.total() == in_queues

    @settings(max_examples=30)
    @given(st.lists(st.tuples(st.integers(0, 5), st.booleans()), max_size=120))
    def test_property_no_ray_lost(self, ops):
        """Any push/pop interleaving conserves rays."""
        q = self.make()
        pushed = 0
        popped = 0
        for treelet, do_pop in ops:
            if do_pop:
                popped += len(q.pop_any(3))
            else:
                q.push(treelet, FakeRay(pushed))
                pushed += 1
        assert q.total_rays() == pushed - popped


class QueueModel:
    """A plain model of ``TreeletQueues`` that keeps no running state.

    Treelets sit in a list in count-table insertion order, each with its
    FIFO list of rays; every derived quantity (counts, occupied entries,
    the largest queue, the eviction victim) is recomputed from those
    lists whenever it is needed.
    """

    def __init__(self, count_entries, queue_entries, rays_per_entry):
        self.count_entries = count_entries
        self.queue_entries = queue_entries
        self.rays_per_entry = rays_per_entry
        self.order = []  # treelets, oldest count-table entry first
        self.rays = {}  # treelet -> queued rays, oldest first
        self.stray = []
        self.peak_entries = 0
        self.overflows = 0
        self.evictions = 0

    def entries(self):
        per = self.rays_per_entry
        return sum(-(-len(self.rays[t]) // per) for t in self.order)

    def largest(self):
        if not self.order:
            return None, 0
        counts = [len(self.rays[t]) for t in self.order]
        best = max(counts)
        return self.order[counts.index(best)], best

    def total_rays(self):
        return sum(len(self.rays[t]) for t in self.order) + len(self.stray)

    def push(self, treelet, ray):
        if treelet not in self.rays:
            if len(self.order) >= self.count_entries:
                counts = [len(self.rays[t]) for t in self.order]
                victim = self.order[counts.index(min(counts))]
                self.order.remove(victim)
                self.stray.extend(self.rays.pop(victim))
                self.evictions += 1
            self.order.append(treelet)
            self.rays[treelet] = []
        self.rays[treelet].append(ray)
        used = self.entries()
        self.peak_entries = max(self.peak_entries, used)
        if used > self.queue_entries:
            self.overflows += 1

    def pop_warp(self, treelet, count):
        queue = self.rays.get(treelet, [])
        taken, rest = queue[:count], queue[count:]
        if rest:
            self.rays[treelet] = rest
        elif treelet in self.rays:
            del self.rays[treelet]
            self.order.remove(treelet)
        return taken

    def pop_any(self, count):
        out, self.stray = self.stray[:count], self.stray[count:]
        while len(out) < count and self.order:
            out += self.pop_warp(self.order[0], count - len(out))
        return out


class QueuesMachine(RuleBasedStateMachine):
    """Random push / pop_warp / pop_any against :class:`QueueModel`.

    Capacities are tiny, so count-table evictions and queue-table
    overflows both happen; every counter the tables keep running is
    compared with the model's from-scratch value after each operation.
    """

    def __init__(self):
        super().__init__()
        self.queues = None
        self.next_ray = 0

    @initialize(count_entries=st.integers(1, 4), queue_entries=st.integers(1, 5),
                rays_per_entry=st.integers(1, 3))
    def make(self, count_entries, queue_entries, rays_per_entry):
        config = VTQConfig(
            count_table_entries=count_entries,
            queue_table_entries=queue_entries,
            rays_per_queue_entry=rays_per_entry,
        )
        self.stats = SimStats()
        self.queues = TreeletQueues(config, self.stats)
        self.model = QueueModel(count_entries, queue_entries, rays_per_entry)

    @rule(treelet=st.integers(0, 5))
    def push(self, treelet):
        ray = FakeRay(self.next_ray)
        self.next_ray += 1
        self.queues.push(treelet, ray)
        self.model.push(treelet, ray)

    @rule(treelet=st.integers(0, 5), count=st.integers(1, 5))
    def pop_warp(self, treelet, count):
        got = self.queues.pop_warp(treelet, count)
        assert got == self.model.pop_warp(treelet, count)

    @rule(count=st.integers(1, 7))
    def pop_any(self, count):
        got = self.queues.pop_any(count)
        assert got == self.model.pop_any(count)

    @invariant()
    def tallies_match_the_model(self):
        if self.queues is None:
            return
        q, m = self.queues, self.model
        assert q.total_rays() == m.total_rays()
        assert q.empty() == (m.total_rays() == 0)
        assert q.largest() == m.largest()
        assert q.queue_table.entries_used() == m.entries()
        assert q.queue_table.peak_entries == m.peak_entries
        assert q.queue_table.overflow_events == m.overflows
        assert self.stats.queue_table_overflows == m.overflows
        assert self.stats.count_table_evictions == m.evictions
        assert q.count_table.total() == sum(q.count_table.counts.values())


TestQueuesAgainstModel = QueuesMachine.TestCase
TestQueuesAgainstModel.settings = settings(max_examples=150, stateful_step_count=60,
                                           deadline=None)


class TestAreaOverheads:
    def test_paper_numbers(self):
        """Section 6.5: 2.2 KB count table, 6.29 KB queue table, 128 KB rays."""
        out = area_overheads(VTQConfig(), max_virtual_rays=4096)
        assert out["count_table_bytes"] == pytest.approx(2.27 * 1024, rel=0.03)
        assert out["queue_table_bytes"] == pytest.approx(6.29 * 1024, rel=0.01)
        assert out["ray_data_bytes"] == 128 * 1024

    def test_scales_with_ray_budget(self):
        small = area_overheads(VTQConfig(), max_virtual_rays=1024)
        large = area_overheads(VTQConfig(), max_virtual_rays=4096)
        assert small["ray_data_bytes"] < large["ray_data_bytes"]
        assert small["queue_table_bytes"] < large["queue_table_bytes"]
