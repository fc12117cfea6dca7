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
* Rays carry :class:`~repro.gpusim.soa.ReplayState` cursors, as in every
  policy unit; the votes read only their state surface.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set

from repro.gpusim.config import GPUConfig
from repro.gpusim.memory import MemorySystem
from repro.gpusim.rt_unit import BaselineRTUnit
from repro.gpusim.stats import SimStats
from repro.gpusim.warp import SimRay, TraceWarp, gaussian_leaf_cycles, step_latency


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
        # treelet -> {line: used?} per outstanding prefetch, in issue order.
        self._outstanding: Dict[int, Dict[int, bool]] = {}
        self._issue_seq: Dict[int, int] = {}
        self._issues = 0
        # line -> the used-map of the outstanding treelet issued last that
        # holds the line: the one _note_accesses marks.  Kept up to date on
        # issue and settle (see _drop) rather than rebuilt per step.
        self._holder: Dict[int, Dict[int, bool]] = {}
        self._lines = bvh.line_treelets(config.line_bytes)
        self._owner = self._lines.owner
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
            treelet = self._owner[line]
        except IndexError:  # pragma: no cover - access past the BVH image
            return
        if treelet is None:  # pragma: no cover - access before the BVH image
            return
        if treelet in self._outstanding:
            return  # already prefetched and still being tracked
        if self._votes.get(treelet, 0) < self.min_votes:
            return
        self._issue_prefetch(treelet)

    def _issue_prefetch(self, treelet: int) -> None:
        """Install the treelet's lines; account traffic and unused lines."""
        l1 = self.mem.l1
        new_lines = l1.absent(self.bvh.treelet_lines[treelet])
        l1.insert_many(new_lines)
        self.stats.prefetch_lines += len(new_lines)
        self.stats.traffic_bytes["prefetch"] += len(new_lines) * self.config.line_bytes
        self.stats.traffic_bytes["dram"] += len(new_lines) * self.config.line_bytes
        if treelet in self._outstanding:
            self._drop(treelet)  # a re-issue replaces the record, uncounted
        used = dict.fromkeys(new_lines, False)
        self._outstanding[treelet] = used
        self._issues += 1
        self._issue_seq[treelet] = self._issues
        # Issued last, this treelet now holds every one of its lines.
        self._holder.update(dict.fromkeys(new_lines, used))

    def _drop(self, treelet: int) -> Dict[int, bool]:
        """Stop tracking an outstanding treelet; returns its used-map.

        Each line it held passes to the remaining outstanding treelet
        issued last that also holds it.  Only a line two treelets share
        can have such a fallback.
        """
        outstanding = self._outstanding
        used = outstanding.pop(treelet)
        del self._issue_seq[treelet]
        holder = self._holder
        shared = self._lines.shared
        for line in used:
            owners = shared.get(line)
            if owners is None:
                del holder[line]
            elif holder.get(line) is used:
                others = [t for t in owners if line in outstanding.get(t, ())]
                if others:
                    holder[line] = outstanding[max(others, key=self._issue_seq.get)]
                else:
                    del holder[line]
        return used

    def _settle_outstanding(self, keep: Optional[Set[int]] = None) -> None:
        """Close out used/unused accounting for stale prefetches."""
        keep = keep or set()
        for treelet in list(self._outstanding):
            if treelet in keep:
                continue
            used = self._drop(treelet)
            self.stats.prefetch_unused_lines += len(used) - sum(used.values())

    def _note_accesses(self, rays: List[SimRay]) -> None:
        """Mark prefetched lines as used when a ray is about to touch them."""
        holder = self._holder
        if not holder:
            return
        item_lines = self.bvh.item_lines
        for ray in rays:
            state = ray.state
            if state.finished():
                continue
            stack = state.current_stack
            if not stack:
                continue
            for line in item_lines[stack[-1][0]]:
                used = holder.get(line)
                if used is not None:
                    used[line] = True

    # -- overridden processing ------------------------------------------------------

    def process_warp(self, warp: TraceWarp) -> None:
        """Baseline traversal plus the prefetcher's per-step bookkeeping.

        Every ``reevaluate_steps`` steps the votes are re-counted over the
        warp's rays (with a warp buffer of one, "rays in the RT unit" are
        the current warp's rays) and prefetches of treelets nobody wants
        now are settled.  Before each step the items at the rays' stack
        tops, which the step fetches, mark prefetched lines as used.  The
        demand-miss hook fires live from inside the batched access path,
        so prefetch issue order (and its effect on later lanes' hits) is
        exact.
        """
        config = self.config
        stats = self.stats
        mem = self.mem
        fold = self.fold
        mode = self._mode
        warp_size = config.warp_size
        reevaluate = self.reevaluate_steps
        active = [r for r in warp.rays if not r.state.done]
        launched = len(active)
        cycle = self.cycle
        mode_c = stats.mode_cycles.get(mode, 0.0)
        mode_t = stats.mode_tests.get(mode, 0)
        simt_sum = stats.simt_active_sum
        simt_steps = 0
        nodes = 0
        leaves = 0
        tris = 0
        steps = 0
        gaussian = getattr(self.bvh, "prim_kind", "triangle") == "gaussian"
        while active:
            if steps % reevaluate == 0:
                self._refresh_votes(active)
                self._settle_outstanding(keep=self._popular_treelets())
            self._note_accesses(active)
            lane_lines = []
            tests = 0
            step_leaves = 0
            nxt = []
            # ray-stationary pop inlined, minus the ci/_ctre resets: ray-stationary
            # replay never enters a chain, so both stay at their initial
            # values (0 / None) for the ray's whole life.
            for ray in active:
                st = ray.state
                p = st.p
                n = st.n
                if p >= n:
                    st.done = True
                    st.chw = False
                    continue
                cols = st.cols
                p1 = p + 1
                st.p = p1
                chw = cols.curwork[p1]
                st.chw = chw
                lane_lines.append(cols.lines[p])
                if cols.isleaf[p]:
                    leaves += 1
                    step_leaves += 1
                    tests += cols.tests[p]
                else:
                    nodes += 1
                if p1 == n and not chw and not st.tail:
                    st.done = True
                else:
                    nxt.append(ray)
            if not lane_lines:
                break
            max_latency, missing_lanes, misses = mem.access_lines_batch(
                lane_lines, cycle, fold
            )
            latency = step_latency(
                config, len(lane_lines), max_latency, missing_lanes, misses,
                gaussian_leaf_cycles(config, tests, step_leaves) if gaussian else 0.0,
            )
            simt_sum += len(lane_lines) / warp_size
            simt_steps += 1
            mode_c += latency
            mode_t += tests
            tris += tests
            cycle += latency
            steps += 1
            active = nxt
        self.cycle = cycle
        remaining = sum(1 for ray in active if not ray.state.done)
        stats.rays_completed += launched - remaining
        stats.warps_processed += 1
        stats.simt_active_sum = simt_sum
        stats.simt_steps += simt_steps
        stats.node_visits += nodes
        stats.leaf_visits += leaves
        stats.triangle_tests += tris
        if steps:
            stats.mode_cycles[mode] = mode_c
            stats.mode_tests[mode] = mode_t

    def run(self, on_complete=None) -> float:
        result = super().run(on_complete)
        self._settle_outstanding()
        return result
