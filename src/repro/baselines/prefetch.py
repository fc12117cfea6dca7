"""Treelet Prefetching (Chou et al., MICRO 2023).

The prefetcher watches the rays in the RT unit and, when enough of them
are inside or headed into the same treelet, prefetches that *entire*
treelet into the L1.  Chou et al. report a 30% speedup — and that 43.5%
of prefetched data is never used, since it is impossible to know which
nodes inside a treelet a ray will actually visit.  Both effects are
first-class here: used/unused lines are tracked per prefetch, and the
prefetch traffic is charged against DRAM.

Model notes:

* With a warp buffer of size one (Table 1), "rays in the RT unit" are the
  current warp's rays.  The popularity vote counts each ray's *current*
  treelet and the treelet at the front of its treelet stack (the one it
  enters next) — the two places Chou et al.'s two-stack traversal order
  says its upcoming accesses live.
* A prefetch fires when a demand miss lands in a treelet whose vote count
  reaches ``min_votes``: the first ray to arrive pulls the whole treelet
  in for the others.  Unpopular treelets are never prefetched (fetching
  32 lines for one ray is the naive-treelet mistake the paper's own
  Figure 12 demonstrates).
* Prefetches are asynchronous: they install lines without stalling the
  demand access, but their DRAM traffic and (un)used-line statistics are
  tracked — the bandwidth cost the paper criticizes.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set

from repro.gpusim.config import GPUConfig
from repro.gpusim.memory import AccessKind, MemorySystem
from repro.gpusim.rt_unit import BaselineRTUnit
from repro.gpusim.stats import SimStats, TraversalMode
from repro.gpusim.warp import SimRay, TraceWarp, warp_step


class PrefetchRTUnit(BaselineRTUnit):
    """Baseline RT unit plus the most-popular-treelet prefetcher."""

    def __init__(
        self,
        bvh,
        config: GPUConfig,
        mem: MemorySystem,
        stats: SimStats,
        reevaluate_steps: int = 4,
        min_votes: int = 1,
        cycle_budget: Optional[float] = None,
    ):
        super().__init__(bvh, config, mem, stats, cycle_budget=cycle_budget)
        self.reevaluate_steps = reevaluate_steps
        # Votes a treelet needs before a demand miss in it triggers a
        # whole-treelet prefetch.  The default of 1 prefetches every
        # treelet the rays enter — which is also what produces Chou et
        # al.'s signature cost: a large fraction of prefetched lines are
        # never used.  Raising it makes the prefetcher conservative.
        self.min_votes = min_votes
        self._votes: Counter = Counter()
        # line -> used?  for unused-prefetch accounting, per treelet
        self._outstanding: Dict[int, Dict[int, bool]] = {}
        # line -> treelet (or None outside the BVH image): pure memo over
        # the static layout, so repeated demand misses skip the bisect.
        self._treelet_of_line: Dict[int, Optional[int]] = {}
        mem.l1_miss_hook = self._on_demand_miss

    # -- prefetch machinery ------------------------------------------------------

    def _refresh_votes(self, rays: List[SimRay]) -> None:
        """Re-count which treelets the RT unit's rays care about."""
        votes: Counter = Counter()
        for ray in rays:
            state = ray.state
            if state.finished():
                continue
            if state.has_current_work():
                votes[state.current_treelet] += 1
            nxt = state.next_treelet()
            if nxt is not None:
                votes[nxt] += 1
        self._votes = votes

    def _popular_treelets(self) -> Set[int]:
        """Treelets whose current vote count clears ``min_votes``."""
        return {t for t, v in self._votes.items() if v >= self.min_votes}

    def _on_demand_miss(self, line: int) -> None:
        """A BVH demand miss: prefetch its treelet if it is popular."""
        try:
            treelet = self._treelet_of_line[line]
        except KeyError:
            try:
                treelet = self.bvh.layout.treelet_of_address(
                    line * self.config.line_bytes
                )
            except ValueError:  # pragma: no cover - access outside BVH image
                treelet = None
            self._treelet_of_line[line] = treelet
        if treelet is None:  # pragma: no cover - access outside BVH image
            return
        if treelet in self._outstanding:
            return  # already prefetched and still being tracked
        if self._votes.get(treelet, 0) < self.min_votes:
            return
        self._issue_prefetch(treelet)

    def _issue_prefetch(self, treelet: int) -> None:
        """Install the treelet's lines; account traffic and unused lines."""
        lines = self.bvh.treelet_lines[treelet]
        new_lines = [line for line in lines if not self.mem.l1.contains(line)]
        self.mem.l1.insert_many(new_lines)
        self.stats.prefetch_lines += len(new_lines)
        self.stats.traffic_bytes["prefetch"] += len(new_lines) * self.config.line_bytes
        self.stats.traffic_bytes["dram"] += len(new_lines) * self.config.line_bytes
        self._outstanding[treelet] = {line: False for line in new_lines}

    def _settle_outstanding(self, keep: Optional[Set[int]] = None) -> None:
        """Close out used/unused accounting for stale prefetches."""
        keep = keep or set()
        for treelet in list(self._outstanding):
            if treelet in keep:
                continue
            for line, used in self._outstanding.pop(treelet).items():
                if not used:
                    self.stats.prefetch_unused_lines += 1

    def _note_accesses(self, rays: List[SimRay]) -> None:
        """Mark prefetched lines as used when a ray is about to touch them."""
        if not self._outstanding:
            return
        flat = {}
        for per_treelet in self._outstanding.values():
            flat.update(dict.fromkeys(per_treelet, per_treelet))
        for ray in rays:
            state = ray.state
            if state.finished() or not state.current_stack:
                continue
            item = state.current_stack[-1][0]
            for line in self.bvh.item_lines[item]:
                holder = flat.get(line)
                if holder is not None:
                    holder[line] = True

    def _note_candidate_lines(self, rays: List[SimRay]) -> List[int]:
        """The lines :meth:`_note_accesses` would consider for ``rays``.

        Unlike ``_note_accesses`` itself this does not depend on what is
        currently outstanding (a cache-dependent fact), so the memory-trace
        recorder can capture the candidates unconditionally and replay can
        re-apply them against its own outstanding table.
        """
        lines: List[int] = []
        for ray in rays:
            state = ray.state
            if state.finished() or not state.current_stack:
                continue
            item = state.current_stack[-1][0]
            lines.extend(self.bvh.item_lines[item])
        return lines

    # -- overridden processing ------------------------------------------------------

    def process_warp(self, warp: TraceWarp) -> None:
        active = warp.active_rays()
        launched = len(active)
        steps = 0
        while active:
            if steps % self.reevaluate_steps == 0:
                # With a warp buffer of one, "rays in the RT unit" are the
                # current warp's rays.
                self._refresh_votes(active)
                # Stop tracking prefetches for treelets nobody wants now.
                self._settle_outstanding(keep=self._popular_treelets())
            # Items at the rays' stack tops are what the next step fetches;
            # mark any the prefetcher brought in as used.
            self._note_accesses(active)
            latency, stepped, _ = warp_step(
                self.bvh, active, self.mem, self.config, self.stats,
                self.cycle, self._mode,
            )
            if not stepped:
                break
            self.cycle += latency
            steps += 1
            active = [r for r in active if not r.finished()]
        # Rays can finish inside a step and be excluded from ``stepped``;
        # refilter before counting completions.
        active = [r for r in active if not r.finished()]
        self.stats.rays_completed += launched - len(active)
        self.stats.warps_processed += 1

    def run(self, on_complete=None) -> float:
        recorder = self.mem.recorder
        if recorder is not None:
            recorder.note_prefetch_params(self.reevaluate_steps, self.min_votes)
        result = super().run(on_complete)
        self._settle_outstanding()
        return result
