"""The memory hierarchy seen by one SM's RT unit.

Each SM owns a private L1; all SMs share one L2 (pass the same ``Cache``
object to every SM's ``MemorySystem``).  SM timelines are simulated
independently, so the shared L2 observes accesses in an interleaving that
is not globally time-ordered — this is a standard scale-model approximation
and only perturbs L2 hit rates, not the L1-level effects the paper's
mechanisms target.

Access rules (Sections 4.2-4.3 of the paper):

* BVH accesses go L1 -> L2 -> DRAM, allocating on the way back.
* Ray-data accesses **bypass the L1** ("to avoid evicting treelet data")
  and live in a reserved L2 region sized for the virtual-ray population;
  rays beyond the reserve spill to DRAM.
* CTA state (ray virtualization save/restore) streams to/from DRAM.
* Treelet fetches are bursts: one DRAM round trip plus a per-line
  transfer cost, filling the L1 directly.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Iterable, Optional, Tuple

from repro.gpusim.cache import Cache
from repro.gpusim.config import GPUConfig
from repro.gpusim.stats import SimStats


class AccessKind(enum.Enum):
    """What a memory transaction is for (drives routing and statistics)."""

    BVH = "bvh"
    RAY_DATA = "ray_data"
    CTA_STATE = "cta_state"
    QUEUE_TABLE = "queue_table"


_L2_BVH = ("l2", AccessKind.BVH.value)
_L2_RAY_DATA = ("l2", AccessKind.RAY_DATA.value)


class MemorySystem:
    """One SM's view of the memory hierarchy."""

    def __init__(
        self,
        config: GPUConfig,
        stats: SimStats,
        shared_l2: Optional[Cache] = None,
    ):
        self.config = config
        self.stats = stats
        self.l1 = Cache("l1", config.l1_bytes, config.line_bytes, config.l1_assoc)
        if shared_l2 is not None:
            self.l2 = shared_l2
        else:
            self.l2 = make_shared_l2(config)
        # Optional observer invoked on every L1 BVH demand miss (the
        # treelet prefetcher hangs off this).
        self.l1_miss_hook = None
        # Optional banked DRAM model (per SM; see repro.gpusim.dram).
        if config.detailed_dram:
            from repro.gpusim.dram import DRAMModel

            self.dram = DRAMModel(config)
        else:
            self.dram = None
        # Ray-data pricing constants (GPUConfig is frozen).
        self._ray_capacity = ray_data_reserve_bytes(config) // config.ray_record_bytes
        self._ray_slots = max(config.max_virtual_rays_per_sm, 1)
        self._ray_bytes = config.ray_record_bytes
        self._l2_lat = float(config.l2_latency)
        self._dram_lat = float(config.dram_latency)

    def _dram_latency(self, line: int, cycle: float) -> float:
        if self.dram is not None:
            return self.dram.access(line, cycle)
        return float(self.config.dram_latency)

    # -- single-line access ------------------------------------------------------

    def access(self, line: int, kind: AccessKind, cycle: float) -> float:
        """One line-granular read; returns its latency in cycles."""
        config = self.config
        if kind is AccessKind.RAY_DATA:
            raise ValueError("use ray_data_access() for ray data")
        if kind is AccessKind.CTA_STATE:
            self.stats.traffic_bytes["dram"] += config.line_bytes
            self.stats.dram_accesses[kind.value] += 1
            return float(config.dram_latency)

        hit_l1 = self.l1.lookup(line)
        self.stats.record_cache("l1", kind.value, hit_l1)
        if kind is AccessKind.BVH:
            self.stats.l1_bvh_timeline.record(cycle, hit_l1)
            if not hit_l1 and self.l1_miss_hook is not None:
                self.l1_miss_hook(line)
        if hit_l1:
            return float(config.l1_latency)

        hit_l2 = self.l2.lookup(line)
        self.stats.record_cache("l2", kind.value, hit_l2)
        self.l1.insert(line)
        self.stats.traffic_bytes["l2_to_l1"] += config.line_bytes
        if hit_l2:
            return float(config.l2_latency)

        self.l2.insert(line)
        self.stats.dram_accesses[kind.value] += 1
        self.stats.traffic_bytes["dram"] += config.line_bytes
        return self._dram_latency(line, cycle)

    def access_lines(
        self, lines: Iterable[int], kind: AccessKind, cycle: float
    ) -> Tuple[float, int]:
        """Access several lines of one item.

        The lines overlap in the memory system, so the latency is the max;
        the L1-miss count is returned alongside so the warp step can charge
        miss-port serialization across lanes.
        """
        latency = 0.0
        misses = 0
        for line in lines:
            line_latency = self.access(line, kind, cycle)
            if line_latency > self.config.l1_latency:
                misses += 1
            latency = max(latency, line_latency)
        return latency, misses

    def access_lines_batch(self, lane_lines, cycle: float, fold) -> Tuple[float, int, int]:
        """Batched BVH access path for the policy units.

        ``lane_lines`` is one line tuple per stepped lane (in lane order);
        ``fold`` is a :class:`repro.gpusim.stats.StatsFold` that absorbs
        the deferred counters.  Returns ``(max_latency, missing_lanes,
        misses)`` — exactly what :func:`repro.gpusim.warp.step_latency`
        needs.

        This inlines the L1/L2 probe-insert sequence of :meth:`access` for
        every line of every lane, preserving the *exact* order of cache
        mutations, miss-hook firings (the treelet prefetcher's demand-miss
        observer runs live, mid-batch, so its L1 insertions are visible to
        later lanes) and DRAM model calls.  Only the statistics writes are
        deferred — all integer counters, folded with presence-exact
        guards, so ``SimStats.snapshot()`` is bit-identical to the scalar
        path.
        """
        config = self.config
        l1 = self.l1
        l2 = self.l2
        l1_sets = l1._sets
        l1_num_sets = l1.num_sets
        l1_assoc = l1.assoc
        l2_sets = l2._sets
        l2_num_sets = l2.num_sets
        l2_assoc = l2.assoc
        l1_lat = float(config.l1_latency)
        l2_lat = float(config.l2_latency)
        dram_lat = float(config.dram_latency)
        l1_threshold = config.l1_latency
        line_bytes = config.line_bytes
        hook = self.l1_miss_hook
        dram = self.dram

        fold.set_window(int(cycle // fold.window_cycles))

        # Per-call tallies.  Several of the counters the scalar path keeps
        # separately are arithmetically tied together, so only the
        # independent ones are counted in the loop and the rest derived
        # afterwards: every line is one L1 probe (``total``), every L1
        # miss is one L2 probe and one L2->L1 fill (``n_l1_miss``), and
        # every L2 miss is one L2 insertion and one DRAM access
        # (``dram_n``).
        total = 0
        n_l1_miss = 0
        l2_hit = 0
        dram_n = 0
        c1_ins = 0
        c1_ev = 0
        c2_ev = 0

        max_latency = 0.0
        missing_lanes = 0
        misses = 0
        if l1_num_sets == 1:
            # The common configuration: a fully-associative L1 has one
            # set, so its lookup hoists out of the loop entirely and the
            # hit path reduces to a membership test plus an LRU touch.
            s1 = l1_sets.get(0)
            if s1 is None:
                s1 = OrderedDict()
                l1_sets[0] = s1
            s1_move = s1.move_to_end
            for lines in lane_lines:
                # Every line costs at least the L1 hit latency; only
                # misses can raise the lane's latency above it.
                lane_latency = l1_lat if lines else 0.0
                lane_misses = 0
                total += len(lines)
                for line in lines:
                    if line in s1:
                        s1_move(line)
                        continue
                    n_l1_miss += 1
                    if hook is not None:
                        # May insert lines into the L1 (prefetch) — the
                        # membership re-check below mirrors Cache.insert.
                        hook(line)
                    idx2 = line % l2_num_sets
                    s2 = l2_sets.get(idx2)
                    if s2 is None:
                        s2 = OrderedDict()
                        l2_sets[idx2] = s2
                    if line in s2:
                        s2.move_to_end(line)
                        l2_hit += 1
                        hit_l2 = True
                    else:
                        hit_l2 = False
                    if line in s1:
                        s1_move(line)
                    else:
                        if len(s1) >= l1_assoc:
                            s1.popitem(last=False)
                            c1_ev += 1
                        s1[line] = True
                        c1_ins += 1
                    if hit_l2:
                        line_latency = l2_lat
                    else:
                        if len(s2) >= l2_assoc:
                            s2.popitem(last=False)
                            c2_ev += 1
                        s2[line] = True
                        dram_n += 1
                        line_latency = dram.access(line, cycle) if dram is not None else dram_lat
                    if line_latency > l1_threshold:
                        lane_misses += 1
                    if line_latency > lane_latency:
                        lane_latency = line_latency
                if lane_misses:
                    missing_lanes += 1
                    misses += lane_misses
                if lane_latency > max_latency:
                    max_latency = lane_latency
        else:
            for lines in lane_lines:
                lane_latency = l1_lat if lines else 0.0
                lane_misses = 0
                total += len(lines)
                for line in lines:
                    idx = line % l1_num_sets
                    s1 = l1_sets.get(idx)
                    if s1 is None:
                        s1 = OrderedDict()
                        l1_sets[idx] = s1
                    if line in s1:
                        s1.move_to_end(line)
                        continue
                    n_l1_miss += 1
                    if hook is not None:
                        hook(line)
                    idx2 = line % l2_num_sets
                    s2 = l2_sets.get(idx2)
                    if s2 is None:
                        s2 = OrderedDict()
                        l2_sets[idx2] = s2
                    if line in s2:
                        s2.move_to_end(line)
                        l2_hit += 1
                        hit_l2 = True
                    else:
                        hit_l2 = False
                    if line in s1:
                        s1.move_to_end(line)
                    else:
                        if len(s1) >= l1_assoc:
                            s1.popitem(last=False)
                            c1_ev += 1
                        s1[line] = True
                        c1_ins += 1
                    if hit_l2:
                        line_latency = l2_lat
                    else:
                        if len(s2) >= l2_assoc:
                            s2.popitem(last=False)
                            c2_ev += 1
                        s2[line] = True
                        dram_n += 1
                        line_latency = dram.access(line, cycle) if dram is not None else dram_lat
                    if line_latency > l1_threshold:
                        lane_misses += 1
                    if line_latency > lane_latency:
                        lane_latency = line_latency
                if lane_misses:
                    missing_lanes += 1
                    misses += lane_misses
                if lane_latency > max_latency:
                    max_latency = lane_latency

        # Commit the per-call tallies: Cache's own int counters directly
        # (nothing reads them mid-phase and integer addition commutes),
        # SimStats counters into the fold.
        l1_hit = total - n_l1_miss
        l1.accesses += total
        l1.hits += l1_hit
        l1.insertions += c1_ins
        l1.evictions += c1_ev
        l2.accesses += n_l1_miss
        l2.hits += l2_hit
        l2.insertions += dram_n
        l2.evictions += c2_ev
        fold.l1_acc += total
        fold.l1_hit += l1_hit
        fold.l2_acc += n_l1_miss
        fold.l2_hit += l2_hit
        fold.win_hits += l1_hit
        fold.win_misses += n_l1_miss
        fold.dram_n += dram_n
        fold.bytes_l2_to_l1 += line_bytes * n_l1_miss
        fold.bytes_dram += line_bytes * dram_n
        return max_latency, missing_lanes, misses

    # -- ray data ---------------------------------------------------------------

    def ray_data_access(self, ray_id: int, cycle: float, write: bool = False) -> float:
        """Load or store one ray record, bypassing the L1 (Section 4.2).

        The reserved L2 region holds one record per *live* ray slot; since
        live ray ids are recycled modulo the virtual-ray budget, a ray is
        in the reserve when its slot index fits the reserved capacity, and
        spills to DRAM otherwise ("also stored in memory if evicted").
        """
        stats = self.stats
        record = self._ray_bytes
        stats.traffic_bytes["ray_data"] += record
        stats.cache_accesses[_L2_RAY_DATA] += 1
        if ray_id % self._ray_slots < self._ray_capacity:
            stats.cache_hits[_L2_RAY_DATA] += 1
            return self._l2_lat
        stats.dram_accesses["ray_data"] += 1
        stats.traffic_bytes["dram"] += record
        return self._dram_lat

    # -- bursts ------------------------------------------------------------------

    def fetch_treelet(self, lines: Iterable[int], cycle: float) -> float:
        """Burst-fill a whole treelet into the L1 (Section 4.2, step 5).

        Only lines not already resident are transferred.  The burst costs
        one DRAM round trip plus a pipelined per-line transfer; lines found
        in the L2 cost an L2 round trip instead.
        """
        config = self.config
        l1 = self.l1
        l2 = self.l2
        missing = l1.absent(lines)
        if not missing:
            return 0.0
        # One fused L2 pass: each line's probe is followed at once by its
        # fill on a miss, the order the per-line lookup/insert calls made.
        sets2 = l2._sets
        n2 = l2.num_sets
        assoc2 = l2.assoc
        hits = 0
        evictions = 0
        for line in missing:
            idx = line % n2
            s2 = sets2.get(idx)
            if s2 is None:
                s2 = sets2[idx] = OrderedDict()
            if line in s2:
                s2.move_to_end(line)
                hits += 1
            else:
                if len(s2) >= assoc2:
                    s2.popitem(last=False)
                    evictions += 1
                s2[line] = True
        count = len(missing)
        fills = count - hits
        l2.accesses += count
        l2.hits += hits
        l2.insertions += fills
        l2.evictions += evictions
        l1.insert_many(missing)
        # Presence-exact commit (see StatsFold): a key is touched only
        # when the per-line path would have touched it.
        stats = self.stats
        stats.cache_accesses[_L2_BVH] += count
        if hits:
            stats.cache_hits[_L2_BVH] += hits
        if fills:
            stats.dram_accesses["bvh"] += fills
            stats.traffic_bytes["dram"] += config.line_bytes * fills
        stats.traffic_bytes["l2_to_l1"] += config.line_bytes * count
        stats.treelet_fetch_lines += count
        base = config.dram_latency if fills else config.l2_latency
        return float(base + config.dram_line_transfer * count)

    def cta_state_transfer(self, num_bytes: int) -> float:
        """Stream a CTA's saved state to or from DRAM (Section 4.1).

        Returns the latency of the transfer: one round trip plus the
        pipelined line transfers.
        """
        config = self.config
        lines = (num_bytes + config.line_bytes - 1) // config.line_bytes
        self.stats.traffic_bytes["dram"] += lines * config.line_bytes
        self.stats.dram_accesses[AccessKind.CTA_STATE.value] += lines
        return float(config.dram_latency + config.dram_line_transfer * lines)


def ray_data_reserve_bytes(config: GPUConfig) -> int:
    """Actual L2 bytes reserved for ray data.

    The paper sizes the reserve for the full virtual-ray population (128 KB
    for 4096 rays); we additionally cap it at half the L2 so the normal
    cache keeps some capacity when the configured L2 is small.
    """
    return min(config.ray_data_reserved_bytes, config.l2_bytes // 2)


def make_shared_l2(config: GPUConfig) -> Cache:
    """The L2 shared by all SMs, with the ray-data reserve carved out."""
    return Cache(
        "l2",
        config.l2_bytes,
        config.line_bytes,
        config.l2_assoc,
        reserved_bytes=ray_data_reserve_bytes(config),
    )
