"""Statistics shared by all timing models.

``SimStats`` collects the quantities the paper's figures report:

* cache accesses / hits / misses per level, split by access kind;
* a *windowed timeline* of L1 BVH miss rates (Figure 11);
* SIMT-efficiency samples (Figures 1b, 13b);
* cycles and intersection tests attributed to each traversal mode
  (Figures 14, 15);
* traffic and event counts feeding the energy model (Figure 17).

All readers — ``snapshot()``, ``miss_rate()``, the mode-fraction
helpers, ``WindowedRate.series()`` and ``merge()``'s reads of the other
object — are side-effect-free: lookups use ``.get`` and never insert
defaultdict keys, so reading a statistic cannot change the object's
serialized form (``tests/test_obs_equivalence.py`` pins this with
byte-identity regressions; ``docs/OBSERVABILITY.md`` has the story).
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple


class TraversalMode(enum.Enum):
    """The three phases of dynamic treelet queues (Section 3.2)."""

    INITIAL_RAY_STATIONARY = "initial_ray_stationary"
    TREELET_STATIONARY = "treelet_stationary"
    FINAL_RAY_STATIONARY = "final_ray_stationary"


@dataclass
class WindowedRate:
    """Accumulates (hit, miss) events into fixed-width cycle windows."""

    window_cycles: float = 5000.0
    hits: Dict[int, int] = field(default_factory=lambda: defaultdict(int))
    misses: Dict[int, int] = field(default_factory=lambda: defaultdict(int))

    def record(self, cycle: float, hit: bool) -> None:
        window = int(cycle // self.window_cycles)
        if hit:
            self.hits[window] += 1
        else:
            self.misses[window] += 1

    def series(self) -> List[Tuple[float, float]]:
        """``(window_start_cycle, miss_rate)`` points in time order.

        A pure reader: ``.get`` lookups never insert defaultdict keys, so
        calling it does not change the object's serialized form.
        """
        windows = sorted(set(self.hits) | set(self.misses))
        out = []
        for w in windows:
            h = self.hits.get(w, 0)
            m = self.misses.get(w, 0)
            if h + m:
                out.append((w * self.window_cycles, m / (h + m)))
        return out


@dataclass
class SimStats:
    """All counters one simulation run produces."""

    # Cache behaviour, keyed by (level, kind) e.g. ("l1", "bvh").
    cache_accesses: Dict[Tuple[str, str], int] = field(
        default_factory=lambda: defaultdict(int)
    )
    cache_hits: Dict[Tuple[str, str], int] = field(
        default_factory=lambda: defaultdict(int)
    )
    dram_accesses: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    traffic_bytes: Dict[str, int] = field(default_factory=lambda: defaultdict(int))

    # Timeline of L1 BVH miss rate (Figure 11).
    l1_bvh_timeline: WindowedRate = field(default_factory=WindowedRate)

    # SIMT efficiency: sum of active-lane fractions and step count.
    simt_active_sum: float = 0.0
    simt_steps: int = 0

    # Per-mode cycle and intersection-test attribution (Figures 14, 15).
    mode_cycles: Dict[TraversalMode, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    mode_tests: Dict[TraversalMode, int] = field(
        default_factory=lambda: defaultdict(int)
    )

    # Totals.
    total_cycles: float = 0.0
    rays_traced: int = 0
    rays_completed: int = 0
    warps_processed: int = 0
    node_visits: int = 0
    leaf_visits: int = 0
    triangle_tests: int = 0

    # Mechanism-specific counters.
    treelet_queue_pushes: int = 0
    treelet_queue_pops: int = 0
    warp_repacks: int = 0
    treelet_fetch_lines: int = 0
    prefetch_lines: int = 0
    prefetch_unused_lines: int = 0
    cta_saves: int = 0
    cta_restores: int = 0
    queue_table_overflows: int = 0
    count_table_evictions: int = 0
    queue_table_peak_entries: int = 0
    count_table_peak_entries: int = 0

    # -- recording helpers ------------------------------------------------------

    def record_cache(self, level: str, kind: str, hit: bool) -> None:
        self.cache_accesses[(level, kind)] += 1
        if hit:
            self.cache_hits[(level, kind)] += 1

    def record_simt(self, active: int, warp_size: int) -> None:
        self.simt_active_sum += active / warp_size
        self.simt_steps += 1

    def record_mode(self, mode: TraversalMode, cycles: float, tests: int = 0) -> None:
        self.mode_cycles[mode] += cycles
        self.mode_tests[mode] += tests

    # -- derived metrics -----------------------------------------------------

    def miss_rate(self, level: str, kind: str = "bvh") -> float:
        """Miss rate of ``kind`` accesses at ``level``; 0.0 when unused.

        Reads with ``.get`` so querying an unused level/kind never
        inserts a key into the defaultdict-backed counters.
        """
        acc = self.cache_accesses.get((level, kind), 0)
        if acc == 0:
            return 0.0
        return 1.0 - self.cache_hits.get((level, kind), 0) / acc

    def simt_efficiency(self) -> float:
        """Mean active-lane fraction over all warp steps (paper Sec 6.3)."""
        if self.simt_steps == 0:
            return 0.0
        return self.simt_active_sum / self.simt_steps

    def mode_cycle_fractions(self) -> Dict[TraversalMode, float]:
        total = sum(self.mode_cycles.values())
        if total == 0:
            return {mode: 0.0 for mode in TraversalMode}
        return {
            mode: self.mode_cycles.get(mode, 0.0) / total for mode in TraversalMode
        }

    def mode_test_fractions(self) -> Dict[TraversalMode, float]:
        total = sum(self.mode_tests.values())
        if total == 0:
            return {mode: 0.0 for mode in TraversalMode}
        return {mode: self.mode_tests.get(mode, 0) / total for mode in TraversalMode}

    def prefetch_unused_fraction(self) -> float:
        if self.prefetch_lines == 0:
            return 0.0
        return self.prefetch_unused_lines / self.prefetch_lines

    def snapshot(self) -> Dict:
        """A plain-dict, JSON-serializable view of every raw counter.

        Purely observational — building it inserts no defaultdict keys —
        and canonical: two stats objects hold the same counters iff their
        snapshots compare equal, which is what the merge/read purity
        regression tests (and the observability bridge) rely on.
        """
        return {
            "cache_accesses": {
                f"{level}/{kind}": count
                for (level, kind), count in sorted(self.cache_accesses.items())
            },
            "cache_hits": {
                f"{level}/{kind}": count
                for (level, kind), count in sorted(self.cache_hits.items())
            },
            "dram_accesses": dict(sorted(self.dram_accesses.items())),
            "traffic_bytes": dict(sorted(self.traffic_bytes.items())),
            "l1_bvh_timeline": {
                "window_cycles": self.l1_bvh_timeline.window_cycles,
                "hits": dict(sorted(self.l1_bvh_timeline.hits.items())),
                "misses": dict(sorted(self.l1_bvh_timeline.misses.items())),
            },
            "simt_active_sum": self.simt_active_sum,
            "simt_steps": self.simt_steps,
            "mode_cycles": {
                mode.value: cycles for mode, cycles in sorted(
                    self.mode_cycles.items(), key=lambda item: item[0].value
                )
            },
            "mode_tests": {
                mode.value: tests for mode, tests in sorted(
                    self.mode_tests.items(), key=lambda item: item[0].value
                )
            },
            "total_cycles": self.total_cycles,
            "rays_traced": self.rays_traced,
            "rays_completed": self.rays_completed,
            "warps_processed": self.warps_processed,
            "node_visits": self.node_visits,
            "leaf_visits": self.leaf_visits,
            "triangle_tests": self.triangle_tests,
            "treelet_queue_pushes": self.treelet_queue_pushes,
            "treelet_queue_pops": self.treelet_queue_pops,
            "warp_repacks": self.warp_repacks,
            "treelet_fetch_lines": self.treelet_fetch_lines,
            "prefetch_lines": self.prefetch_lines,
            "prefetch_unused_lines": self.prefetch_unused_lines,
            "cta_saves": self.cta_saves,
            "cta_restores": self.cta_restores,
            "queue_table_overflows": self.queue_table_overflows,
            "count_table_evictions": self.count_table_evictions,
            "queue_table_peak_entries": self.queue_table_peak_entries,
            "count_table_peak_entries": self.count_table_peak_entries,
        }

    def merge(self, other: "SimStats") -> None:
        """Fold another SM's stats into this one (cycles take the max).

        ``other`` is only read — never mutated: all lookups iterate its
        existing keys or use ``.get``, so merging leaves the merged-from
        object byte-identical.
        """
        for key, value in other.cache_accesses.items():
            self.cache_accesses[key] += value
        for key, value in other.cache_hits.items():
            self.cache_hits[key] += value
        for key, value in other.dram_accesses.items():
            self.dram_accesses[key] += value
        for key, value in other.traffic_bytes.items():
            self.traffic_bytes[key] += value
        for window, count in other.l1_bvh_timeline.hits.items():
            self.l1_bvh_timeline.hits[window] += count
        for window, count in other.l1_bvh_timeline.misses.items():
            self.l1_bvh_timeline.misses[window] += count
        self.simt_active_sum += other.simt_active_sum
        self.simt_steps += other.simt_steps
        for mode, value in other.mode_cycles.items():
            self.mode_cycles[mode] += value
        for mode, tests in other.mode_tests.items():
            self.mode_tests[mode] += tests
        self.total_cycles = max(self.total_cycles, other.total_cycles)
        self.rays_traced += other.rays_traced
        self.rays_completed += other.rays_completed
        self.warps_processed += other.warps_processed
        self.node_visits += other.node_visits
        self.leaf_visits += other.leaf_visits
        self.triangle_tests += other.triangle_tests
        self.treelet_queue_pushes += other.treelet_queue_pushes
        self.treelet_queue_pops += other.treelet_queue_pops
        self.warp_repacks += other.warp_repacks
        self.treelet_fetch_lines += other.treelet_fetch_lines
        self.prefetch_lines += other.prefetch_lines
        self.prefetch_unused_lines += other.prefetch_unused_lines
        self.cta_saves += other.cta_saves
        self.cta_restores += other.cta_restores
        self.queue_table_overflows += other.queue_table_overflows
        self.count_table_evictions += other.count_table_evictions
        self.queue_table_peak_entries = max(
            self.queue_table_peak_entries, other.queue_table_peak_entries
        )
        self.count_table_peak_entries = max(
            self.count_table_peak_entries, other.count_table_peak_entries
        )


class StatsFold:
    """Deferred accumulator for the batched BVH memory path.

    The policy units price thousands of cache lines per phase; paying a
    defaultdict lookup per line for counters nobody reads mid-phase
    would be most of their overhead.  This fold batches them in plain
    ints and commits into a :class:`SimStats` with ``flush()``.

    The commit is *presence-exact*: every write is guarded by ``if
    delta``, so a counter key exists in the stats dicts iff per-line
    :meth:`MemorySystem.access` calls would have inserted it, and ``snapshot()`` (which sorts keys)
    compares bit-identical.  All folded quantities are integers, so the
    deferred addition is order-independent; float accumulators
    (``simt_active_sum``, ``mode_cycles``) are *not* folded here — the
    engines thread those through ordered locals instead, because float
    addition is not associative.

    Timeline windows need one extra rule: an engine's cycle counter is
    monotonically non-decreasing, so the fold keeps only the *current*
    window's hit/miss tallies and flushes them whenever the window
    advances (``set_window``).
    """

    __slots__ = (
        "stats", "window_cycles", "window", "win_hits", "win_misses",
        "l1_acc", "l1_hit", "l2_acc", "l2_hit",
        "dram_n", "bytes_l2_to_l1", "bytes_dram",
    )

    def __init__(self, stats: SimStats):
        self.stats = stats
        self.window_cycles = stats.l1_bvh_timeline.window_cycles
        self.window: int | None = None
        self.win_hits = 0
        self.win_misses = 0
        self.l1_acc = 0
        self.l1_hit = 0
        self.l2_acc = 0
        self.l2_hit = 0
        self.dram_n = 0
        self.bytes_l2_to_l1 = 0
        self.bytes_dram = 0

    def set_window(self, window: int) -> None:
        """Make ``window`` current, committing the previous window's tallies."""
        if window != self.window:
            self._flush_window()
            self.window = window

    def _flush_window(self) -> None:
        if self.window is None:
            return
        timeline = self.stats.l1_bvh_timeline
        if self.win_hits:
            timeline.hits[self.window] += self.win_hits
            self.win_hits = 0
        if self.win_misses:
            timeline.misses[self.window] += self.win_misses
            self.win_misses = 0

    def flush(self) -> None:
        """Commit everything accumulated so far into the stats object."""
        self._flush_window()
        self.window = None
        stats = self.stats
        if self.l1_acc:
            stats.cache_accesses[("l1", "bvh")] += self.l1_acc
            self.l1_acc = 0
        if self.l1_hit:
            stats.cache_hits[("l1", "bvh")] += self.l1_hit
            self.l1_hit = 0
        if self.l2_acc:
            stats.cache_accesses[("l2", "bvh")] += self.l2_acc
            self.l2_acc = 0
        if self.l2_hit:
            stats.cache_hits[("l2", "bvh")] += self.l2_hit
            self.l2_hit = 0
        if self.dram_n:
            stats.dram_accesses["bvh"] += self.dram_n
            self.dram_n = 0
        if self.bytes_l2_to_l1:
            stats.traffic_bytes["l2_to_l1"] += self.bytes_l2_to_l1
            self.bytes_l2_to_l1 = 0
        if self.bytes_dram:
            stats.traffic_bytes["dram"] += self.bytes_dram
            self.bytes_dram = 0
