"""Tests for the cache models."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpusim import Cache


class TestBasics:
    def test_miss_then_hit(self):
        c = Cache("l1", 1024, 32)
        assert not c.access(5)
        assert c.access(5)

    def test_lookup_does_not_allocate(self):
        c = Cache("l1", 1024, 32)
        assert not c.lookup(5)
        assert not c.lookup(5)

    def test_insert_returns_victim(self):
        c = Cache("l1", 64, 32)  # 2 lines, fully assoc
        assert c.insert(1) is None
        assert c.insert(2) is None
        assert c.insert(3) == 1  # LRU of {1, 2}

    def test_lru_order_updated_by_hit(self):
        c = Cache("l1", 64, 32)
        c.insert(1)
        c.insert(2)
        c.access(1)  # 1 becomes MRU
        assert c.insert(3) == 2

    def test_capacity_lines(self):
        assert Cache("l1", 16 * 1024, 32).capacity_lines == 512

    def test_fully_assoc_default(self):
        c = Cache("l1", 1024, 32)
        assert c.num_sets == 1
        assert c.assoc == 32

    def test_set_assoc_distribution(self):
        c = Cache("l2", 128 * 1024, 32, assoc=16)
        assert c.num_sets == (128 * 1024 // 32) // 16
        assert c.assoc == 16

    def test_set_conflict_eviction(self):
        c = Cache("l2", 4 * 32, 32, assoc=1)  # 4 sets, direct mapped
        c.insert(0)
        c.insert(4)  # same set as 0
        assert not c.contains(0)
        assert c.contains(4)

    def test_invalidate(self):
        c = Cache("l1", 1024, 32)
        c.insert(7)
        assert c.invalidate(7)
        assert not c.contains(7)
        assert not c.invalidate(7)

    def test_flush_keeps_stats(self):
        c = Cache("l1", 1024, 32)
        c.access(1)
        c.flush()
        assert c.resident_lines == 0
        assert c.accesses == 1

    def test_insert_many_counts_new(self):
        c = Cache("l1", 1024, 32)
        c.insert(1)
        assert c.insert_many([1, 2, 3]) == 2

    def test_miss_rate(self):
        c = Cache("l1", 1024, 32)
        c.access(1)
        c.access(1)
        assert c.miss_rate() == pytest.approx(0.5)
        assert Cache("x", 1024, 32).miss_rate() == 0.0

    def test_reserved_bytes_reduce_capacity(self):
        full = Cache("l2", 1024, 32)
        reserved = Cache("l2", 1024, 32, reserved_bytes=512)
        assert reserved.capacity_lines == full.capacity_lines // 2

    def test_validation(self):
        with pytest.raises(ValueError):
            Cache("x", 0, 32)
        with pytest.raises(ValueError):
            Cache("x", 1024, 32, assoc=0)
        with pytest.raises(ValueError):
            Cache("x", 1024, 32, reserved_bytes=1024)
        with pytest.raises(ValueError):
            Cache("x", 32, 32, reserved_bytes=16)

    def test_repr(self):
        assert "l1" in repr(Cache("l1", 1024, 32))


class TestProperties:
    @settings(max_examples=30)
    @given(st.lists(st.integers(0, 100), min_size=1, max_size=300))
    def test_occupancy_never_exceeds_capacity(self, lines):
        c = Cache("l1", 8 * 32, 32)  # 8 lines
        for line in lines:
            c.access(line)
        assert c.resident_lines <= c.capacity_lines

    @settings(max_examples=30)
    @given(st.lists(st.integers(0, 20), min_size=1, max_size=100))
    def test_working_set_within_capacity_all_hits_after_warmup(self, lines):
        """A working set smaller than capacity never misses after first touch."""
        c = Cache("l1", 32 * 32, 32)  # 32 lines >= 21 distinct
        seen = set()
        for line in lines:
            hit = c.access(line)
            assert hit == (line in seen)
            seen.add(line)

    @settings(max_examples=30)
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=200))
    def test_hits_never_exceed_accesses(self, lines):
        c = Cache("l1", 4 * 32, 32, assoc=2)
        for line in lines:
            c.access(line)
        assert 0 <= c.hits <= c.accesses


def _state(cache):
    """Resident lines per set in LRU order, plus the cache's counters."""
    sets = {idx: list(s) for idx, s in cache._sets.items() if s}
    return sets, cache.accesses, cache.hits, cache.insertions, cache.evictions


class TestBulkHelpers:
    """``insert_many`` and ``absent`` against one-line-at-a-time calls."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([None, 2]),
        st.lists(st.integers(0, 40), max_size=30),
        st.lists(st.lists(st.integers(0, 40), max_size=24), max_size=6),
    )
    def test_insert_many_matches_single_inserts(self, assoc, warm, bursts):
        """Bursts that are distinct and absent (the bulk-eviction path),
        bursts that overlap resident lines or repeat a line, and bursts
        larger than the cache all leave the same sets and counters as
        inserting their lines one by one."""
        bulk = Cache("l1", 8 * 32, 32, assoc)
        single = Cache("l1", 8 * 32, 32, assoc)
        for line in warm:
            bulk.insert(line)
            single.insert(line)
        for burst in bursts:
            if burst and burst[0] % 2:
                burst = [line for line in dict.fromkeys(burst) if not single.contains(line)]
            new = 0
            for line in burst:
                new += not single.contains(line)
                single.insert(line)
            assert bulk.insert_many(burst) == new
            assert _state(bulk) == _state(single)

    def test_insert_many_new_count(self):
        c = Cache("l1", 4 * 32, 32)
        c.insert_many([1, 2])
        assert c.insert_many([2, 3, 4, 5, 6]) == 4  # distinct, 2 resident
        assert c.insert_many([7, 8, 9, 10, 11, 12]) == 6  # bulk, overfills
        assert list(c._sets[0]) == [9, 10, 11, 12]
        assert c.evictions == 2 + 6

    @given(st.sampled_from([None, 2]), st.lists(st.integers(0, 40), max_size=30),
           st.lists(st.integers(0, 40), max_size=20))
    def test_absent_matches_contains(self, assoc, warm, probe):
        c = Cache("l1", 8 * 32, 32, assoc)
        for line in warm:
            c.insert(line)
        before = _state(c)
        assert c.absent(probe) == [line for line in probe if not c.contains(line)]
        assert _state(c) == before
