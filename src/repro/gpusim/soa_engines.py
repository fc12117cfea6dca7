"""SoA replay engines: the timing half of the SoA warp engine.

These engines are the subclasses of the scalar policy units that
``render_scene`` runs — every policy, every render.  They consume
:class:`~repro.gpusim.soa.Trace` records (via :class:`ReplayState`)
instead of live ``RayTraversalState`` objects.
All functional work — popping, slab tests, triangle intersection,
shading — happened once in :func:`repro.gpusim.soa.build_plan`; what
remains per policy is the pure timing loop: consume the next visit of
every active lane, price all lanes' cache lines through one
:meth:`MemorySystem.access_lines_batch` call, charge the warp
:func:`~repro.gpusim.warp.step_latency`, and make the same scheduling
decisions (parking, queueing, repacking, prefetch votes) the scalar
unit makes, from the trace's recorded position metadata.

The bit-exactness discipline (enforced by ``tests/test_soa_engine.py``):

* every cache mutation, miss-hook firing and DRAM model call happens in
  the scalar engine's exact order (``access_lines_batch`` inlines the
  per-line sequence; ray-data and treelet-fetch accesses stay live);
* integer counters are deferred into plain locals or the engine's
  :class:`~repro.gpusim.stats.StatsFold` and committed with
  presence-exact guards at phase boundaries;
* float accumulators (``cycle``, ``simt_active_sum``,
  ``mode_cycles[...]``) are threaded through *ordered* locals — seeded
  from the current value, accumulated in the scalar op order, written
  back at phase end — because float addition is not associative.  The
  vtq completion callbacks mutate ``engine.cycle`` (CTA save/restore
  bandwidth), so the local cycle is synced to ``self.cycle`` around
  every ``_complete`` sweep;
* phase boundaries (where folds are committed) are exactly where the
  scalar engines can observe stats mid-run: the cycle-budget check at
  the top of the run loop, and the end of the run.

A memory-trace recorder (``mem.recorder``, :mod:`repro.memtrace`) is fed
from the replay loops here: per-warp ``begin_warp``/``step``/
``end_warp``, the prefetcher's ``pf_refresh``/``pf_note`` and the VTQ
phases' ray-data and treelet-fetch ops, each emitted just before the
memory calls it describes (``step`` after its lanes are priced).  The
remaining emission points (``submit``, the VTQ idle jumps, CTA
save/restore) live in code these engines inherit.

Subclass names deliberately contain the parent names
(``SoABaselineRTUnit`` etc.) so fault specs matching on engine class
names (``faults.SIM_STALL`` keys) keep firing.
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines.prefetch import PrefetchRTUnit
from repro.core.rt_unit_vtq import VTQRTUnit
from repro.gpusim.rt_unit import BaselineRTUnit
from repro.gpusim.stats import StatsFold, TraversalMode
from repro.gpusim.warp import TraceWarp, gaussian_leaf_cycles, step_latency


def _record_step(recorder, mode, lane_lines, tests, leaf_lanes, gaussian) -> None:
    """Emit one warp step to a memory-trace recorder.

    Leaf-cost operands are recorded only on gaussian workloads, so
    triangle traces stay byte-identical to the trace format's v1 shape.
    """
    if gaussian:
        recorder.step(mode, lane_lines, tests=tests, leaf_lanes=leaf_lanes)
    else:
        recorder.step(mode, lane_lines)


class ReplayState:
    """A ray's traversal state reconstructed from a :class:`Trace`.

    Duck-types the slice of ``RayTraversalState`` the policy units read
    — ``finished() / has_current_work() / current_treelet /
    next_treelet() / enter_treelet() / current_stack`` — while the
    engines advance it with :meth:`consume` (ray-stationary pop) or
    :meth:`consume_tq` (treelet-stationary pop).

    Invariants mirrored from the live state machine:

    * ``p`` is the next visit to consume; position metadata for the
      *current* park point is ``tr.*[p]``.
    * A chain at ``p`` means the live pop crossed ``chains[p][ci:]``
      treelet boundaries before reaching visit ``p``; ray-stationary
      pops cross silently, treelet-stationary pops park at each boundary
      (``consume_tq`` returns None until ``enter_treelet`` has walked
      the whole chain).
    * Past the last visit (``p == n``) the ray drains ``tr.tail`` — the
      treelets the live retiring pop advanced through — one
      ``enter_treelet`` per treelet-phase requeue, and finishes when the
      tail is exhausted.
    """

    __slots__ = ("tr", "p", "n", "ci", "chw", "tail_i", "done", "_ctre")

    def __init__(self, tr):
        self.tr = tr
        self.p = 0
        self.n = len(tr.isleaf)
        self.ci = 0
        self.chw = tr.curwork[0]
        self.tail_i = 0
        self.done = False
        self._ctre: Optional[int] = None

    # -- the RayTraversalState surface the policy units read ---------------------

    def finished(self) -> bool:
        return self.done

    def has_current_work(self) -> bool:
        return self.chw

    @property
    def current_treelet(self) -> int:
        ctre = self._ctre
        if ctre is not None:
            return ctre
        return self.tr.cur_tre[self.p]

    @property
    def current_stack(self):
        """Just enough stack for the prefetcher's access observer
        (truthiness + top item).  Only read between ray-stationary steps,
        where the ray is never mid-chain, so the recorded top item is the
        live stack top."""
        if not self.chw:
            return ()
        return ((self.tr.top_item[self.p],),)

    def next_treelet(self) -> Optional[int]:
        tr = self.tr
        p = self.p
        if p >= self.n:
            tail = tr.tail
            ti = self.tail_i
            return tail[ti] if ti < len(tail) else None
        chains = tr.chains
        if chains is not None:
            chain = chains.get(p)
            if chain is not None and self.ci < len(chain):
                return chain[self.ci]
        t = tr.next_tre[p]
        return None if t < 0 else t

    def enter_treelet(self, treelet: int) -> int:
        """Engines only call this with ``next_treelet()``'s value, so the
        effect is fully determined: advance one chain/tail position and
        expose the entered treelet's work."""
        if self.p >= self.n:
            self.tail_i += 1
        else:
            self.ci += 1
        self.chw = True
        self._ctre = treelet
        return 1

    # -- visit consumption -------------------------------------------------------

    def consume(self) -> Optional[int]:
        """Ray-stationary pop: the next visit index, or None when the ray
        retires (treelet boundaries are crossed silently, as
        ``pop_next``'s advance loop does)."""
        p = self.p
        if p >= self.n:
            self.done = True
            self.chw = False
            return None
        self.ci = 0
        self._ctre = None
        p1 = p + 1
        self.p = p1
        tr = self.tr
        chw = tr.curwork[p1]
        self.chw = chw
        if p1 == self.n and not chw and not tr.tail:
            self.done = True
        return p

    def consume_tq(self) -> Optional[int]:
        """Treelet-stationary pop: like :meth:`consume`, but parks
        (returns None, no current work) at every treelet boundary the
        live in-treelet pop would fail at — an unentered chain position,
        or the tail."""
        p = self.p
        tr = self.tr
        if p >= self.n:
            self.chw = False
            if self.tail_i >= len(tr.tail):
                self.done = True
            return None
        chains = tr.chains
        if chains is not None:
            chain = chains.get(p)
            if chain is not None and self.ci < len(chain):
                # The live pop culls the stale current entries (if any),
                # finds the stack empty and parks at the chain boundary.
                self.chw = False
                return None
        self.ci = 0
        self._ctre = None
        p1 = p + 1
        self.p = p1
        chw = tr.curwork[p1]
        self.chw = chw
        if p1 == self.n and not chw and not tr.tail:
            self.done = True
        return p


class SoABaselineRTUnit(BaselineRTUnit):
    """Baseline RT unit replaying a render plan (rays carry ReplayState)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fold = StatsFold(self.stats)

    def run(self, on_complete=None) -> float:
        result = super().run(on_complete)
        self.fold.flush()
        return result

    def process_warp(self, warp: TraceWarp) -> None:
        start = self.cycle
        config = self.config
        stats = self.stats
        batch = self.mem.access_lines_batch
        recorder = self.mem.recorder
        if recorder is not None:
            recorder.begin_warp(warp)
        fold = self.fold
        mode = self._mode
        warp_size = config.warp_size
        cycle = self.cycle
        mode_c = stats.mode_cycles.get(mode, 0.0)
        mode_t = stats.mode_tests.get(mode, 0)
        simt_sum = stats.simt_active_sum
        simt_steps = 0
        nodes = 0
        leaves = 0
        tris = 0
        steps = 0
        launched = 0
        completed = 0
        # Nothing observes ray state mid-warp in the baseline unit, and
        # the ray-stationary replay is fully deterministic: ray i's visit
        # at warp-step s is trace position start+s.  So the per-step
        # consume() collapses to a step counter, and each ReplayState is
        # written exactly once — at retirement (p=n, no chain work, done;
        # the transient chain-work-at-end state the scalar pop passes
        # through is erased by its very next pop, which no one sees).
        gaussian = getattr(self.bvh, "prim_kind", "triangle") == "gaussian"
        live = []
        for ray in warp.rays:
            st = ray.state
            if st.done:
                continue
            launched += 1
            n = st.n
            if st.p >= n:
                st.done = True
                st.chw = False
                completed += 1
                continue
            tr = st.tr
            live.append((st, tr.lines, tr.isleaf, tr.tests, st.p, n))
        while live:
            lane_lines = []
            tests = 0
            step_leaves = 0
            nxt = []
            for entry in live:
                st, lines_l, isleaf_l, tests_l, p0, n = entry
                p = p0 + steps
                lane_lines.append(lines_l[p])
                if isleaf_l[p]:
                    leaves += 1
                    step_leaves += 1
                    tests += tests_l[p]
                else:
                    nodes += 1
                if p + 1 < n:
                    nxt.append(entry)
                else:
                    st.p = n
                    st.chw = False
                    st.done = True
                    completed += 1
            max_latency, missing_lanes, misses = batch(lane_lines, cycle, fold)
            if recorder is not None:
                _record_step(recorder, mode, lane_lines, tests, step_leaves, gaussian)
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
            live = nxt
        self.cycle = cycle
        if recorder is not None:
            recorder.end_warp(cycle)
        stats.rays_completed += completed
        stats.warps_processed += 1
        stats.simt_active_sum = simt_sum
        stats.simt_steps += simt_steps
        stats.node_visits += nodes
        stats.leaf_visits += leaves
        stats.triangle_tests += tris
        if steps:
            stats.mode_cycles[mode] = mode_c
            stats.mode_tests[mode] = mode_t
        if self.timeline is not None:
            self.timeline.record(
                "warp", "ray_stationary", start, self.cycle,
                {"cta": warp.cta_id, "rays": len(warp.rays)},
            )


class SoAPrefetchRTUnit(PrefetchRTUnit):
    """Prefetch RT unit replaying a render plan.

    The vote/outstanding machinery is inherited untouched — it reads
    only the state surface ReplayState provides — and the demand-miss
    hook fires live from inside the batched access path, so prefetch
    issue order (and its effect on later lanes' hits) is exact.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fold = StatsFold(self.stats)

    def run(self, on_complete=None) -> float:
        result = super().run(on_complete)
        self.fold.flush()
        return result

    def process_warp(self, warp: TraceWarp) -> None:
        config = self.config
        stats = self.stats
        mem = self.mem
        fold = self.fold
        mode = self._mode
        warp_size = config.warp_size
        reevaluate = self.reevaluate_steps
        recorder = mem.recorder
        if recorder is not None:
            recorder.begin_warp(warp)
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
                if recorder is not None:
                    recorder.pf_refresh(dict(self._votes))
                self._settle_outstanding(keep=self._popular_treelets())
            if recorder is not None:
                recorder.pf_note(self._note_candidate_lines(active))
            self._note_accesses(active)
            lane_lines = []
            tests = 0
            step_leaves = 0
            nxt = []
            # consume() inlined, minus the ci/_ctre resets: ray-stationary
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
                tr = st.tr
                p1 = p + 1
                st.p = p1
                chw = tr.curwork[p1]
                st.chw = chw
                lane_lines.append(tr.lines[p])
                if tr.isleaf[p]:
                    leaves += 1
                    step_leaves += 1
                    tests += tr.tests[p]
                else:
                    nodes += 1
                if p1 == n and not chw and not tr.tail:
                    st.done = True
                else:
                    nxt.append(ray)
            if not lane_lines:
                break
            max_latency, missing_lanes, misses = mem.access_lines_batch(
                lane_lines, cycle, fold
            )
            if recorder is not None:
                _record_step(recorder, mode, lane_lines, tests, step_leaves, gaussian)
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
        if recorder is not None:
            recorder.end_warp(cycle)
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


class SoAVTQRTUnit(VTQRTUnit):
    """VTQ RT unit replaying a render plan through the real queue tables.

    Queue pushes/pops, count-table evictions, CTA save/restore and the
    phase scheduler all run live on the inherited machinery (the replay
    rays flow through ``TreeletQueues`` as ordinary objects); only the
    per-warp traversal loops are replaced with trace consumption.  The
    completion callback mutates ``self.cycle`` (CTA state bandwidth), so
    the local cycle is synced around every ``_complete`` sweep.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fold = StatsFold(self.stats)

    def run(self, on_ray_complete) -> float:
        result = super().run(on_ray_complete)
        self.fold.flush()
        return result

    def _initial_phase(self, rays: List, cb) -> None:
        phase_start = self.cycle
        self._rays_in_unit += len(rays)
        mem = self.mem
        recorder = mem.recorder
        if recorder is not None:
            recorder.ray_write([ray.ray_id for ray in rays])
        for ray in rays:
            mem.ray_data_access(ray.ray_id, self.cycle, write=True)

        active = [r for r in rays if not r.state.done]
        for ray in rays:
            if ray.state.done:  # pragma: no cover - degenerate arrivals
                self._complete(ray, cb)

        config = self.config
        stats = self.stats
        fold = self.fold
        mode = TraversalMode.INITIAL_RAY_STATIONARY
        warp_size = config.warp_size
        divergence = self.vtq.divergence_threshold
        position = self._position_treelet
        mode_c = stats.mode_cycles.get(mode, 0.0)
        mode_t = stats.mode_tests.get(mode, 0)
        simt_sum = stats.simt_active_sum
        simt_steps = 0
        nodes = 0
        leaves = 0
        tris = 0
        steps = 0
        gaussian = getattr(self.bvh, "prim_kind", "triangle") == "gaussian"
        cycle = self.cycle
        while active:
            treelets = {position(r) for r in active}
            treelets.discard(None)
            if len(treelets) > divergence:
                break
            lane_lines = []
            tests = 0
            step_leaves = 0
            # consume() inlined; no ray has entered a chain yet in the
            # initial phase, so the ci/_ctre resets are no-ops and drop.
            for ray in active:
                st = ray.state
                p = st.p
                n = st.n
                if p >= n:
                    st.done = True
                    st.chw = False
                    continue
                tr = st.tr
                p1 = p + 1
                st.p = p1
                chw = tr.curwork[p1]
                st.chw = chw
                if p1 == n and not chw and not tr.tail:
                    st.done = True
                lane_lines.append(tr.lines[p])
                if tr.isleaf[p]:
                    leaves += 1
                    step_leaves += 1
                    tests += tr.tests[p]
                else:
                    nodes += 1
            if lane_lines:
                max_latency, missing_lanes, misses = mem.access_lines_batch(
                    lane_lines, cycle, fold
                )
                if recorder is not None:
                    _record_step(
                        recorder, mode, lane_lines, tests, step_leaves, gaussian
                    )
                latency = step_latency(
                    config, len(lane_lines), max_latency, missing_lanes, misses,
                    gaussian_leaf_cycles(config, tests, step_leaves)
                    if gaussian else 0.0,
                )
                simt_sum += len(lane_lines) / warp_size
                simt_steps += 1
                mode_c += latency
                mode_t += tests
                tris += tests
                cycle += latency
                steps += 1
            # Sweep finished rays before the break decision; completion
            # callbacks may move self.cycle, so sync around them.
            self.cycle = cycle
            still_active = []
            for ray in active:
                if ray.state.done:
                    self._complete(ray, cb)
                else:
                    still_active.append(ray)
            cycle = self.cycle
            active = still_active
            if not lane_lines:
                break

        self.cycle = cycle
        for ray in active:
            treelet = position(ray)
            if treelet is None:  # pragma: no cover - finished rays swept above
                self._complete(ray, cb)
            else:
                self.queues.push(treelet, ray)
        stats.warps_processed += 1
        stats.simt_active_sum = simt_sum
        stats.simt_steps += simt_steps
        stats.node_visits += nodes
        stats.leaf_visits += leaves
        stats.triangle_tests += tris
        if steps:
            stats.mode_cycles[mode] = mode_c
            stats.mode_tests[mode] = mode_t
        if self.timeline is not None:
            self.timeline.record(
                "initial warp", "initial_ray_stationary", phase_start, self.cycle,
                {"rays": len(rays), "queued": len(active)},
            )

    def _process_treelet_queue(self, treelet: int, cb) -> None:
        phase_start = self.cycle
        mem = self.mem
        stats = self.stats
        config = self.config
        fold = self.fold
        mode = TraversalMode.TREELET_STATIONARY
        recorder = mem.recorder
        if recorder is not None:
            recorder.tq_fetch(treelet)
        fetch_latency = mem.fetch_treelet(self.bvh.treelet_lines[treelet], self.cycle)
        preload = self.vtq.preload_enabled
        if preload:
            overlap = min(self._preload_credit, fetch_latency)
            fetch_latency -= overlap
        self.cycle += fetch_latency
        # The scalar engine's record_mode(TS, fetch_latency) inserts the
        # mode keys unconditionally; direct defaultdict indexing seeds the
        # locals with the same insertion before deferred accumulation.
        mode_c = stats.mode_cycles[mode]
        mode_t = stats.mode_tests[mode]
        mode_c += fetch_latency
        simt_sum = stats.simt_active_sum
        simt_steps = 0
        nodes = 0
        leaves = 0
        tris = 0
        work_cycles = 0.0
        warp_size = config.warp_size
        prev_warp_cycles = 0.0
        gaussian = getattr(self.bvh, "prim_kind", "triangle") == "gaussian"
        batch = mem.access_lines_batch
        ray_data = mem.ray_data_access
        pop_warp = self.queues.pop_warp
        cycle = self.cycle
        while True:
            rays = pop_warp(treelet, warp_size)
            if not rays:
                break
            if recorder is not None:
                recorder.ray_load_ts([ray.ray_id for ray in rays])
            load_latency = 0.0
            for ray in rays:
                lat = ray_data(ray.ray_id, cycle)
                if lat > load_latency:
                    load_latency = lat
            if preload:
                load_latency = max(0.0, load_latency - prev_warp_cycles)
            cycle += load_latency
            work_cycles += load_latency
            mode_c += load_latency
            prev_warp_cycles = 0.0

            for ray in rays:
                st = ray.state
                if not st.chw:
                    st.enter_treelet(treelet)

            active = [r for r in rays if not r.state.done]
            while active:
                lane_lines = []
                tests = 0
                step_leaves = 0
                nxt = []
                # consume_tq() inlined: park (contribute nothing) at an
                # unentered chain position or the tail, otherwise pop one
                # visit and stay only while in-treelet work remains.
                for ray in active:
                    st = ray.state
                    p = st.p
                    tr = st.tr
                    n = st.n
                    if p >= n:
                        st.chw = False
                        if st.tail_i >= len(tr.tail):
                            st.done = True
                        continue
                    chains = tr.chains
                    if chains is not None:
                        chain = chains.get(p)
                        if chain is not None and st.ci < len(chain):
                            st.chw = False
                            continue
                    st.ci = 0
                    st._ctre = None
                    p1 = p + 1
                    st.p = p1
                    chw = tr.curwork[p1]
                    st.chw = chw
                    done = p1 == n and not chw and not tr.tail
                    if done:
                        st.done = True
                    lane_lines.append(tr.lines[p])
                    if tr.isleaf[p]:
                        leaves += 1
                        step_leaves += 1
                        tests += tr.tests[p]
                    else:
                        nodes += 1
                    if chw and not done:
                        nxt.append(ray)
                if not lane_lines:
                    break
                max_latency, missing_lanes, misses = batch(lane_lines, cycle, fold)
                if recorder is not None:
                    _record_step(
                        recorder, mode, lane_lines, tests, step_leaves, gaussian
                    )
                latency = step_latency(
                    config, len(lane_lines), max_latency, missing_lanes, misses,
                    gaussian_leaf_cycles(config, tests, step_leaves)
                    if gaussian else 0.0,
                )
                simt_sum += len(lane_lines) / warp_size
                simt_steps += 1
                mode_c += latency
                mode_t += tests
                tris += tests
                cycle += latency
                work_cycles += latency
                prev_warp_cycles += latency
                active = nxt

            # Park or retire every ray of this treelet warp.
            self.cycle = cycle
            for ray in rays:
                st = ray.state
                if st.done:
                    self._complete(ray, cb)
                    continue
                nxt_treelet = st.next_treelet()
                if nxt_treelet is None:
                    self._complete(ray, cb)
                else:
                    self.queues.push(nxt_treelet, ray)
            cycle = self.cycle
            stats.warps_processed += 1

        self.cycle = cycle
        if recorder is not None:
            recorder.tq_end()
        self._preload_credit = work_cycles if preload else 0.0
        stats.mode_cycles[mode] = mode_c
        stats.mode_tests[mode] = mode_t
        stats.simt_active_sum = simt_sum
        stats.simt_steps += simt_steps
        stats.node_visits += nodes
        stats.leaf_visits += leaves
        stats.triangle_tests += tris
        if self.timeline is not None:
            self.timeline.record(
                f"treelet {treelet}", "treelet_stationary", phase_start, self.cycle,
                {"treelet": treelet},
            )

    def _process_final_warp(self, rays: List, cb) -> None:
        phase_start = self.cycle
        mem = self.mem
        stats = self.stats
        config = self.config
        fold = self.fold
        mode = TraversalMode.FINAL_RAY_STATIONARY
        recorder = mem.recorder
        if recorder is not None:
            recorder.ray_load_final([ray.ray_id for ray in rays])
        load_latency = 0.0
        for ray in rays:
            lat = mem.ray_data_access(ray.ray_id, self.cycle)
            if lat > load_latency:
                load_latency = lat
        self.cycle += load_latency
        mode_c = stats.mode_cycles[mode]
        mode_t = stats.mode_tests[mode]
        mode_c += load_latency
        simt_sum = stats.simt_active_sum
        simt_steps = 0
        nodes = 0
        leaves = 0
        tris = 0
        warp_size = config.warp_size
        repack_enabled = self.vtq.repack_enabled
        repack_threshold = self.vtq.repack_threshold
        gaussian = getattr(self.bvh, "prim_kind", "triangle") == "gaussian"
        cycle = self.cycle

        active = [r for r in rays if not r.state.done]
        for ray in rays:
            if ray.state.done:  # pragma: no cover - defensive
                self._complete(ray, cb)
        while active:
            lane_lines = []
            tests = 0
            step_leaves = 0
            # consume() inlined; final-phase rays have entered chains, so
            # the ci/_ctre resets must stay.
            for ray in active:
                st = ray.state
                p = st.p
                n = st.n
                if p >= n:
                    st.done = True
                    st.chw = False
                    continue
                st.ci = 0
                st._ctre = None
                tr = st.tr
                p1 = p + 1
                st.p = p1
                chw = tr.curwork[p1]
                st.chw = chw
                if p1 == n and not chw and not tr.tail:
                    st.done = True
                lane_lines.append(tr.lines[p])
                if tr.isleaf[p]:
                    leaves += 1
                    step_leaves += 1
                    tests += tr.tests[p]
                else:
                    nodes += 1
            if lane_lines:
                max_latency, missing_lanes, misses = mem.access_lines_batch(
                    lane_lines, cycle, fold
                )
                if recorder is not None:
                    _record_step(
                        recorder, mode, lane_lines, tests, step_leaves, gaussian
                    )
                latency = step_latency(
                    config, len(lane_lines), max_latency, missing_lanes, misses,
                    gaussian_leaf_cycles(config, tests, step_leaves)
                    if gaussian else 0.0,
                )
                simt_sum += len(lane_lines) / warp_size
                simt_steps += 1
                mode_c += latency
                mode_t += tests
                tris += tests
                cycle += latency
            self.cycle = cycle
            still_active = []
            for ray in active:
                if ray.state.done:
                    self._complete(ray, cb)
                else:
                    still_active.append(ray)
            cycle = self.cycle
            active = still_active
            if not lane_lines:
                break

            if repack_enabled and active and len(active) < repack_threshold:
                refill = self.queues.pop_any(warp_size - len(active))
                if refill:
                    if recorder is not None:
                        recorder.ray_load_refill([ray.ray_id for ray in refill])
                    refill_latency = 0.0
                    for ray in refill:
                        lat = mem.ray_data_access(ray.ray_id, cycle)
                        if lat > refill_latency:
                            refill_latency = lat
                    cycle += refill_latency
                    mode_c += refill_latency
                    stats.warp_repacks += 1
                    self.cycle = cycle
                    for ray in refill:
                        if ray.state.done:  # pragma: no cover - defensive
                            self._complete(ray, cb)
                        else:
                            active.append(ray)
                    cycle = self.cycle
        self.cycle = cycle
        stats.warps_processed += 1
        stats.mode_cycles[mode] = mode_c
        stats.mode_tests[mode] = mode_t
        stats.simt_active_sum = simt_sum
        stats.simt_steps += simt_steps
        stats.node_visits += nodes
        stats.leaf_visits += leaves
        stats.triangle_tests += tris
        if self.timeline is not None:
            self.timeline.record(
                "final warp", "final_ray_stationary", phase_start, self.cycle,
                {"initial_rays": len(rays)},
            )
