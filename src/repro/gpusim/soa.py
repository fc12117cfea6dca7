"""Traced states and render plans: the functional half of the engine.

Every policy unit splits into two very different jobs per warp step:

* the *functional* work — pop a stack entry, slab-test children,
  Moller-Trumbore triangles, update closest hits, shade; and
* the *timing* work — price each lane's cache lines, charge the warp the
  slowest lane, advance the SM's cycle counter.

Only the timing work depends on the policy (baseline / prefetch /
sorted / vtq) and on the GPU configuration; the functional work is
identical across all of them, because every policy unit visits the same
BVH items in the same per-ray order (treelet-stationary scheduling
changes *when* a ray's visits happen, never *which* or in what per-ray
sequence).

This module runs the functional work up front.  :func:`trace_states` is
a wave tracer: it holds every ray's two stacks of the treelet traversal
order as padded ``(rays, depth)`` numpy arrays with depth counters —
the per-ray ``nstack``/``tstack`` of a treelet RT core — and runs each
wave's pop, cull, treelet advance, slab test, far-first child order,
treelet routing and leaf tests as array operations over all live rays.
Its output is a columnar :class:`TraceBatch`: per ray a run of rows in
flat visit columns (item, leaf flag, test count), the position columns
the policy units schedule from, a sparse chain table and the sort keys.
The units themselves (``BaselineRTUnit``, ``PrefetchRTUnit``,
``VTQRTUnit``) are pure timing loops over :class:`ReplayState` cursors
into those columns: no geometry, no shading, no numpy.

Three drivers feed them.  :func:`build_plan` traces every bounce of a
render into a :class:`RenderPlan`, one per scene, which every policy x
cache-config combination replays; :func:`repro.rtquery.time_queries`
traces a flat query batch in one call; and
:class:`repro.vkrt.RayTracingPipeline` traces each warp's states as the
warp is submitted.

Each secondary ray's row also carries its Garanzha-Loop sort key, so
the ``sorted`` policy re-forms its bounce-barrier warps from the plan
instead of from live ray geometry.

Plans are cached on the ``SceneBVH`` object itself (a small FIFO keyed
by render parameters, ``REPRO_SOA_PLAN_CACHE`` entries), so sweeps that
run several policies over one scene build the plan once.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import List, Optional

import numpy as np

from repro import settings
from repro.bvh.traversal import TraversalOrder
from repro.errors import SimulationError
from repro.geometry.batch import (
    intersect_aabb_batch,
    intersect_gaussian_batch,
    intersect_tri_batch,
)
from repro.geometry.morton import ray_sort_keys


class TraceBatch:
    """The columnar record of one :func:`trace_states` call.

    Ray ``r`` owns rows ``start[r] .. start[r + 1] - 1``.  Row
    ``start[r] + p`` describes the ray *before* its ``p``-th pop; its
    last row is the failed retiring pop, so a ray with ``n`` visits owns
    ``n + 1`` rows.

    Visit columns (the last row of each ray carries no visit):

    ``item``
        The visited BVH item id (``-1`` on a retiring row).
    ``isleaf`` / ``tests``
        Leaf flag and primitive-test count (0 for nodes).

    Position columns (every row):

    ``curwork``
        Whether the current stack is non-empty — raw, including entries
        the next pop will cull.
    ``cur_tre`` / ``next_tre``
        The current treelet and the treelet-stack top (-1 when empty).
    ``top_item``
        Top current-stack item id (-1 when empty) — what the
        prefetcher's access observer reads.

    The chain table lists the treelets each pop entered, for the rows
    whose pop crossed a treelet boundary: row ``chain_row[c]`` entered
    ``chain_tre[chain_ptr[c]:chain_ptr[c + 1]]`` in order.  A chain on a
    ray's last row is its *tail* — the treelets its retiring pop
    advanced through.

    ``sort_key`` is each ray's Garanzha-Loop key
    (:func:`repro.geometry.morton.ray_sort_keys`) — set on secondary
    bounces only; the ``sorted`` policy orders each bounce by it.

    Every ray has at least one visit: ``init_traversal`` pushes the root
    with ``entry_t = tmin``, which can never be culled.
    """

    __slots__ = (
        "num_rays", "start", "item", "isleaf", "tests",
        "curwork", "cur_tre", "next_tre", "top_item",
        "chain_row", "chain_ptr", "chain_tre", "sort_key",
        "_tables", "_replay",
    )

    def __init__(self, start, item, isleaf, tests, curwork, cur_tre, next_tre,
                 top_item, chain_row, chain_ptr, chain_tre, tables):
        self.num_rays = len(start) - 1
        self.start = start
        self.item = item
        self.isleaf = isleaf
        self.tests = tests
        self.curwork = curwork
        self.cur_tre = cur_tre
        self.next_tre = next_tre
        self.top_item = top_item
        self.chain_row = chain_row
        self.chain_ptr = chain_ptr
        self.chain_tre = chain_tre
        self.sort_key = np.zeros(self.num_rays, np.uint64)
        self._tables = tables
        self._replay: Optional[ReplayColumns] = None

    def replay_columns(self) -> "ReplayColumns":
        """The columns as flat Python lists, built once per batch."""
        if self._replay is None:
            self._replay = ReplayColumns(self)
        return self._replay


class ReplayColumns:
    """A :class:`TraceBatch` as the flat Python lists the policy units'
    timing loops index (list indexing, never numpy scalars).

    ``lines[row]`` is the visited item's cache-line tuple, built through
    the BVH's ``item_lines``; ids are the BVH tables' shared Python ints,
    so the lists hold references, not per-row objects.  ``chains[row]``
    is the tuple of treelets a visit row's pop entered (``None`` when it
    crossed none); ``tails[r]`` is ray ``r``'s tail tuple.
    """

    __slots__ = (
        "start", "lines", "isleaf", "tests", "curwork", "cur_tre",
        "next_tre", "top_item", "chains", "tails", "sort_key",
    )

    def __init__(self, batch: TraceBatch):
        tables = batch._tables
        ints = tables.int_table
        start = batch.start
        self.start = start.tolist()
        self.lines = tables.item_line_table[batch.item].tolist()
        self.isleaf = batch.isleaf.tolist()
        self.tests = batch.tests.tolist()
        self.curwork = batch.curwork.tolist()
        self.cur_tre = ints[batch.cur_tre + 1].tolist()
        self.next_tre = ints[batch.next_tre + 1].tolist()
        self.top_item = ints[batch.top_item + 1].tolist()
        self.sort_key = batch.sort_key.tolist()
        rows = batch.chain_row
        ptr = batch.chain_ptr
        owner = np.searchsorted(start, rows, side="right") - 1
        last = rows == start.take(owner + 1) - 1
        # Most chains enter one treelet: those share the tables' 1-tuples.
        chains = np.full(len(batch.item), None, dtype=object)
        single = np.diff(ptr) == 1
        chains[rows[single]] = tables.chain_table[batch.chain_tre.take(ptr[:-1][single])]
        tre = ints[batch.chain_tre + 1].tolist()
        multi = np.flatnonzero(~single)
        for row, a, b in zip(
            rows.take(multi).tolist(), ptr.take(multi).tolist(),
            ptr.take(multi + 1).tolist(),
        ):
            chains[row] = tuple(tre[a:b])
        self.tails = [()] * batch.num_rays
        for ray, tail in zip(owner[last].tolist(), chains[rows[last]].tolist()):
            self.tails[ray] = tail
        chains[rows[last]] = None
        self.chains = chains.tolist()


class ReplayState:
    """An index cursor replaying one ray of a :class:`TraceBatch`.

    Duck-types the slice of ``RayTraversalState`` the policy units read
    — ``finished() / has_current_work() / current_treelet /
    next_treelet() / enter_treelet() / current_stack`` — plus
    ``position_treelet()``, the VTQ unit's queue key.  The units
    advance it with two pops, inlined in their hot loops:

    * the *ray-stationary* pop consumes visit row ``p`` (``p += 1``,
      ``chw = cols.curwork[p]``), crossing treelet boundaries silently
      as ``pop_next``'s advance loop does; at ``p == n`` the ray retires;
    * the *treelet-stationary* pop consumes the same way but parks —
      consumes nothing and clears ``chw`` — at every boundary the live
      in-treelet pop would fail at: an unentered chain position, or the
      tail, where the ray retires once the tail is exhausted.

    Both reset the chain cursor (``ci = 0``, ``_ctre = None``) and mark
    the ray done once its last visit is consumed with no current work
    and no tail.

    Cursor invariants:

    * ``p`` is a row index into the batch's flat columns (``cols``),
      not a per-ray position: it runs from ``start[row]`` to
      ``n = start[row + 1] - 1``, the ray's retiring row.  Position
      metadata for the *current* park point is ``cols.*[p]``.
    * A chain at ``p`` (``cols.chains[p]`` not ``None``) means the live
      pop crossed ``cols.chains[p][ci:]`` treelet boundaries before
      reaching that visit; ray-stationary pops cross silently,
      treelet-stationary pops park at each boundary until
      ``enter_treelet`` has walked the whole chain.
    * At ``p == n`` the ray drains ``tail`` — the treelets the live
      retiring pop advanced through — one ``enter_treelet`` per
      treelet-phase requeue, and finishes when the tail is exhausted.
    """

    __slots__ = ("cols", "row", "p", "n", "ci", "chw", "tail_i", "done",
                 "_ctre", "tail")

    def __init__(self, batch: TraceBatch, row: int):
        cols = batch.replay_columns()
        self.cols = cols
        self.row = row
        p = cols.start[row]
        self.p = p
        self.n = cols.start[row + 1] - 1
        self.ci = 0
        self.chw = cols.curwork[p]
        self.tail_i = 0
        self.done = False
        self._ctre: Optional[int] = None
        self.tail = cols.tails[row]

    # -- the RayTraversalState surface the policy units read ----------------------

    def finished(self) -> bool:
        return self.done

    def has_current_work(self) -> bool:
        return self.chw

    @property
    def current_treelet(self) -> int:
        ctre = self._ctre
        if ctre is not None:
            return ctre
        return self.cols.cur_tre[self.p]

    @property
    def current_stack(self):
        """Just enough stack for the prefetcher's access observer
        (truthiness + top item).  Only read between ray-stationary steps,
        where the ray is never mid-chain, so the recorded top item is the
        live stack top."""
        if not self.chw:
            return ()
        return ((self.cols.top_item[self.p],),)

    @property
    def sort_key(self) -> int:
        return self.cols.sort_key[self.row]

    def position_treelet(self) -> Optional[int]:
        """The treelet the ray works in now, else the one it enters next:
        the queue a VTQ unit files it under, in one call."""
        if self.chw:
            ctre = self._ctre
            return self.cols.cur_tre[self.p] if ctre is None else ctre
        return self.next_treelet()

    def next_treelet(self) -> Optional[int]:
        p = self.p
        if p >= self.n:
            tail = self.tail
            ti = self.tail_i
            return tail[ti] if ti < len(tail) else None
        chain = self.cols.chains[p]
        if chain is not None and self.ci < len(chain):
            return chain[self.ci]
        t = self.cols.next_tre[p]
        return None if t < 0 else t

    def enter_treelet(self, treelet: int) -> int:
        """Units only call this with ``next_treelet()``'s value, so the
        effect is fully determined: advance one chain/tail position and
        expose the entered treelet's work."""
        if self.p >= self.n:
            self.tail_i += 1
        else:
            self.ci += 1
        self.chw = True
        self._ctre = treelet
        return 1


class RenderPlan:
    """Everything policy-independent about one render.

    ``batches[b]`` is bounce ``b``'s :class:`TraceBatch` and ``slots[b]``
    the path slot of each of its rows (ascending); a slot's presence in
    bounce ``b + 1`` is the continuation signal (the path survived
    shading).  ``radiance`` is the per-slot ``(num_slots, 3)``
    accumulated radiance — produced by the real shading engine during
    plan construction, so images reconstructed from it are bit-identical
    to a live warp-at-a-time path tracer's.  Slots are sample-major:
    ``slot = sample * pixels + pixel``.
    """

    __slots__ = ("batches", "slots", "radiance", "pixels", "spp", "num_slots",
                 "_rows")

    def __init__(self, batches, slots, radiance, pixels: int, spp: int):
        self.batches: List[TraceBatch] = batches
        self.slots: List[np.ndarray] = slots
        self.radiance: np.ndarray = radiance
        self.pixels = pixels
        self.spp = spp
        self.num_slots = pixels * spp
        self._rows: Optional[List[List[int]]] = None

    def replay_state(self, slot: int, bounce: int) -> Optional[ReplayState]:
        """A cursor over ``slot``'s ray at ``bounce``, or None when the
        path ended before it."""
        rows = self._rows
        if rows is None:
            rows = self._rows = []
            for slots in self.slots:
                row_of = np.full(self.num_slots, -1, np.int64)
                row_of[slots] = np.arange(len(slots))
                rows.append(row_of.tolist())
        if bounce >= len(rows):
            return None
        row = rows[bounce][slot]
        if row < 0:
            return None
        return ReplayState(self.batches[bounce], row)

    def image_accum(self) -> np.ndarray:
        """Per-pixel radiance sums, accumulated in slot order.

        Matches a live path tracer's ``accum[path.pixel] += path.radiance``
        loop bit for bit: sample-major slots mean each pixel receives its
        samples' radiance in sample order, and the vectorized per-sample
        adds below perform the same per-element float additions in the
        same order.
        """
        accum = np.zeros((self.pixels, 3))
        radiance = self.radiance
        pixels = self.pixels
        for sample in range(self.spp):
            accum += radiance[sample * pixels : (sample + 1) * pixels]
        return accum


def _check_fresh(states) -> None:
    """Refuse states the wave tracer would silently mis-trace: it seeds
    every ray from its ray fields and the root entry alone."""
    for i, state in enumerate(states):
        if state.order is not TraversalOrder.TREELET:
            raise SimulationError(
                f"trace_states needs TREELET-order states; state {i} uses "
                f"{state.order.value}"
            )
        if state.finished():
            raise SimulationError(
                f"trace_states needs states fresh from init_traversal; "
                f"state {i} is already finished"
            )
        stack = state.current_stack
        if state.treelet_stack or len(stack) != 1 or stack[0][0] != 0:
            raise SimulationError(
                f"trace_states needs states fresh from init_traversal; "
                f"state {i} holds stack entries other than the root"
            )


def _widen(table: np.ndarray, depth: int) -> np.ndarray:
    wider = np.zeros((table.shape[0], depth), table.dtype)
    wider[:, : table.shape[1]] = table
    return wider


def _select(mask: np.ndarray):
    """Row and column of every set entry of a 2D mask, row-major.

    (``flatnonzero`` plus arithmetic: numpy's reductions and scans along
    a short last axis cost far more than the flat forms used here.)
    """
    flat = np.flatnonzero(mask)
    width = mask.shape[1]
    rows = flat // width
    return rows, flat - rows * width


def _ranks(groups: np.ndarray, count: int):
    """Each entry's rank within its group, and the group sizes, for
    entries sorted by group id (``0 <= groups < count``)."""
    sizes = np.bincount(groups, minlength=count)
    firsts = np.cumsum(sizes) - sizes
    return np.arange(len(groups)) - firsts.take(groups), sizes


class _Stacks:
    """One padded stack per ray: parallel ``(rays, depth)`` tables of
    item ids, entry distances and (treelet stack only) treelet ids, plus
    each ray's depth ``n``.  Tables are addressed flat
    (``ray * depth + slot``) with ``take``/``put``, which beat 2D fancy
    indexing several-fold at wave sizes, and double in depth on demand.
    """

    def __init__(self, count: int, treelets: bool):
        self.item = np.zeros((count, 8), np.int64)
        self.t = np.zeros((count, 8))
        self.tre = np.zeros((count, 8), np.int64) if treelets else None
        self.n = np.zeros(count, np.int64)

    @property
    def depth(self) -> int:
        return self.item.shape[1]

    def tables(self) -> list:
        return [table for table in (self.item, self.t, self.tre) if table is not None]

    def reserve(self, need: int) -> None:
        if need > self.depth:
            depth = max(need, 2 * self.depth)
            self.item = _widen(self.item, depth)
            self.t = _widen(self.t, depth)
            if self.tre is not None:
                self.tre = _widen(self.tre, depth)

    def push(self, rays, g, item, t, tre=None) -> None:
        """Push entry ``i`` onto ray ``rays[g[i]]``'s stack, entries of one
        ray in order (``g`` sorted)."""
        if not g.size:
            return
        rank, counts = _ranks(g, len(rays))
        base = self.n.take(rays)
        stacked = base + counts
        self.reserve(int(stacked.max()))
        dst = rays.take(g) * self.depth + base.take(g) + rank
        self.item.put(dst, item)
        self.t.put(dst, t)
        if tre is not None:
            self.tre.put(dst, tre)
        self.n[rays] = stacked


class _WaveTracer:
    """The state of one :func:`trace_states` call: per-ray ray fields,
    the current and treelet :class:`_Stacks`, hit state and the culled
    counter, plus the per-wave records the :class:`TraceBatch` is
    assembled from.
    """

    def __init__(self, bvh, states):
        tables = bvh.batch_tables()
        self.tables = tables
        self.node_count = bvh.node_count
        self.gaussian = getattr(bvh, "prim_kind", "triangle") == "gaussian"
        count = len(states)
        fields = np.array(
            [
                (s.ox, s.oy, s.oz, s.dx, s.dy, s.dz, s.ix, s.iy, s.iz,
                 s.tmin, s.tmax, s.t_hit, s.current_stack[0][3])
                for s in states
            ],
            dtype=np.float64,
        ).reshape(count, 13)
        self.origin = np.ascontiguousarray(fields[:, 0:3])
        self.direction = np.ascontiguousarray(fields[:, 3:6])
        self.inv = np.ascontiguousarray(fields[:, 6:9])
        self.tmin = fields[:, 9].copy()
        self.tmax = fields[:, 10].copy()
        self.t_hit = fields[:, 11].copy()
        self.hit_prim = np.array([s.hit_prim for s in states], np.int64)
        self.anyhit = np.array([s.all_hits is not None for s in states], bool)
        self.cur_tre = np.array([s.current_treelet for s in states], np.int64)
        self.culled = np.zeros(count, np.int64)
        # Every ray starts with the root entry (item 0) alone.
        self.cs = _Stacks(count, treelets=False)
        self.cs.t[:, 0] = fields[:, 12]
        self.cs.n[:] = 1
        self.ts = _Stacks(count, treelets=True)
        # Each ray's visit count so far: its next row is start + visits.
        self.visits = np.zeros(count, np.int64)
        # Per-wave records, each keyed by (ray, visit index): position
        # rows, visits, chain entries; then any-hit hits.
        self.pos_rays: List[np.ndarray] = []
        self.pos_index: List[np.ndarray] = []
        self.positions: List[tuple] = []
        self.visit_rays: List[np.ndarray] = []
        self.visit_index: List[np.ndarray] = []
        self.visit_items: List[np.ndarray] = []
        self.chain_rays: List[np.ndarray] = []
        self.chain_index: List[np.ndarray] = []
        self.chain_tres: List[np.ndarray] = []
        self.hit_rays: List[np.ndarray] = []
        self.hit_prims: List[np.ndarray] = []
        self.hit_ts: List[np.ndarray] = []

    # -- one wave -------------------------------------------------------------

    def run(self) -> None:
        """Advance every live ray by one step per wave until all retire.

        A step is what one pass of ``pop_next``'s loop does: pop the top
        entry (a visit, expanded or intersected in the same wave), skip
        culled entries, enter the next treelet, or retire.  A ray whose
        pop enters a treelet finishes that pop in a later wave, so no
        wave iterates; a visit's row is fixed by the ray's own visit
        count, not by the wave.
        """
        live = np.arange(len(self.visits))
        starting = live
        while live.size:
            self._record_positions(starting)
            rays, items, advanced = self._pop(live)
            if rays.size:
                self.visit_rays.append(rays)
                self.visit_index.append(self.visits.take(rays))
                self.visit_items.append(items)
                self.visits[rays] += 1
                leaf = items >= self.node_count
                if not leaf.all():
                    node = ~leaf
                    self._expand(rays[node], items[node])
                if leaf.any():
                    self._intersect(rays[leaf], items[leaf] - self.node_count)
            starting = rays
            live = np.concatenate((rays, advanced)) if advanced.size else rays

    def _record_positions(self, rays) -> None:
        """Position rows for the rays starting a pop: the stacks as the
        policy units observe them between visits."""
        cs_n = self.cs.n.take(rays)
        ts_n = self.ts.n.take(rays)
        curwork = cs_n > 0
        top = self.cs.item.take(rays * self.cs.depth + cs_n - 1)
        top[~curwork] = -1
        nxt = self.ts.tre.take(rays * self.ts.depth + ts_n - 1)
        nxt[ts_n == 0] = -1
        self.pos_rays.append(rays)
        self.pos_index.append(self.visits.take(rays))
        self.positions.append((curwork, self.cur_tre.take(rays), nxt, top))

    def _pop(self, live):
        """One step of ``pop_next``'s loop for every live ray.

        Returns the rays that popped an entry with the popped items, and
        the rays that entered a treelet instead (their pop continues
        next wave); rays with nothing left on either stack retire.
        """
        cs = self.cs
        depth = cs.depth
        cs_n = cs.n.take(live)
        t_hit = self.t_hit.take(live)
        # An empty stack's index (-1 on ray 0) reads a neighbouring slot;
        # the cs_n > 0 guard discards it.
        top = live * depth + cs_n - 1
        top_ok = (cs_n > 0) & ~(cs.t.take(top) > t_hit)
        rays = live[top_ok]
        items = cs.item.take(top[top_ok])
        cs.n[rays] = cs_n[top_ok] - 1
        rest = ~top_ok
        pending = live[rest]
        cs_n = cs_n[rest]
        culling = cs_n > 0
        if culling.any():
            # The top is culled: pop down to the topmost survivor.
            culled_rays = pending[culling]
            stacked = cs_n[culling]
            width = int(stacked.max())
            keep = ~(
                cs.t.take(culled_rays, axis=0)[:, :width]
                > t_hit[rest][culling, None]
            )
            keep &= np.arange(width) < stacked[:, None]
            found = keep.any(axis=1)
            last = width - 1 - keep[:, ::-1].argmax(axis=1)
            remaining = np.where(found, last, 0)
            self.culled[culled_rays] += stacked - remaining - found
            cs.n[culled_rays] = remaining
            if found.any():
                found_rays = culled_rays[found]
                rays = np.concatenate((rays, found_rays))
                items = np.concatenate(
                    (items, cs.item.take(found_rays * depth + last[found]))
                )
                popped = np.zeros(len(pending), bool)
                popped[np.flatnonzero(culling)[found]] = True
                pending = pending[~popped]
        # Current stacks are now empty: advance to the treelet-stack top,
        # or retire when the treelet stack is empty too.
        advanced = pending[self.ts.n.take(pending) > 0]
        if advanced.size:
            self._advance(advanced)
        return rays, items, advanced

    def _advance(self, rays) -> None:
        """``enter_treelet`` of each ray's treelet-stack top: a stable
        move of that treelet's entries onto the (empty) current stack."""
        ts = self.ts
        ts_n = ts.n.take(rays)
        base = rays * ts.depth
        treelet = ts.tre.take(base + ts_n - 1)
        width = int(ts_n.max())
        valid = np.arange(width) < ts_n[:, None]
        move = valid & (ts.tre.take(rays, axis=0)[:, :width] == treelet[:, None])
        g, k = _select(move)
        src = base.take(g) + k
        self.cs.push(rays, g, ts.item.take(src), ts.t.take(src))
        g, k = _select(valid & ~move)
        rank, kept = _ranks(g, len(rays))
        src = base.take(g) + k
        dst = base.take(g) + rank
        for table in ts.tables():
            table.put(dst, table.take(src))
        ts.n[rays] = kept
        self.cur_tre[rays] = treelet
        self.chain_rays.append(rays)
        self.chain_index.append(self.visits.take(rays))
        self.chain_tres.append(treelet)

    def _expand(self, rays, nodes) -> None:
        """Slab-test the popped nodes' children; push hits far-first,
        children in the current treelet onto the current stack and the
        rest onto the treelet stack."""
        tables = self.tables
        mask, near = intersect_aabb_batch(
            self.origin.take(rays, axis=0), self.inv.take(rays, axis=0),
            tables.node_boxes.take(nodes, axis=0),
            self.tmin.take(rays), self.t_hit.take(rays),
        )
        width = mask.shape[1]
        hit = mask & tables.child_valid.take(nodes, axis=0)
        # A stable sort on -near: nearest child popped first, ties in
        # child order (the scalar loop's ``hits.sort(key=-near)``).
        order = np.where(hit, -near, np.inf).argsort(axis=1, kind="stable")
        order += (np.arange(len(rays)) * width)[:, None]
        order = order.ravel()
        sel = np.flatnonzero(hit.ravel().take(order))
        src = order.take(sel)
        g = sel // width
        child = nodes.take(g) * width + (src - g * width)
        items = tables.child_item.take(child)
        treelets = tables.child_treelet.take(child)
        near = near.ravel().take(src)
        here = treelets == self.cur_tre.take(rays.take(g))
        self.cs.push(rays, g[here], items[here], near[here])
        away = ~here
        self.ts.push(rays, g[away], items[away], near[away], treelets[away])

    def _intersect(self, rays, leaves) -> None:
        """Test the popped leaves' primitives.  Closest-hit rays keep the
        first primitive reaching the minimum ``t`` in ``[tmin, t_hit)``
        (the scalar scan's strict-< update); any-hit rays record every
        hit in ``[tmin, tmax]`` in leaf order."""
        tables = self.tables
        origin = self.origin.take(rays, axis=0)
        direction = self.direction.take(rays, axis=0)
        if self.gaussian:
            mask, t, _q = intersect_gaussian_batch(
                origin, direction, tables.leaf_gc.take(leaves, axis=0),
                tables.leaf_gm.take(leaves, axis=0),
                tables.leaf_gq.take(leaves, axis=0),
            )
        else:
            mask, t, _u, _v = intersect_tri_batch(
                origin, direction, tables.leaf_v0.take(leaves, axis=0),
                tables.leaf_e1.take(leaves, axis=0),
                tables.leaf_e2.take(leaves, axis=0),
            )
        width = mask.shape[1]
        cand = mask & tables.leaf_valid.take(leaves, axis=0)
        cand &= t >= self.tmin.take(rays)[:, None]
        anyhit = self.anyhit.take(rays)
        if anyhit.any():
            g, k = _select(cand & anyhit[:, None] & (t <= self.tmax.take(rays)[:, None]))
            if g.size:
                self.hit_rays.append(rays.take(g))
                self.hit_prims.append(tables.leaf_prim.take(leaves.take(g) * width + k))
                self.hit_ts.append(t.ravel().take(g * width + k))
            cand &= ~anyhit[:, None]
        cand &= t < self.t_hit.take(rays)[:, None]
        found = np.flatnonzero(cand.any(axis=1))
        if found.size:
            k = np.where(cand.take(found, axis=0), t.take(found, axis=0), np.inf).argmin(axis=1)
            hit_rays = rays.take(found)
            self.t_hit[hit_rays] = t.ravel().take(found * width + k)
            self.hit_prim[hit_rays] = tables.leaf_prim.take(leaves.take(found) * width + k)

    # -- output -----------------------------------------------------------------

    def batch(self) -> TraceBatch:
        """Scatter the per-wave records into the flat columns."""
        start = np.zeros(len(self.visits) + 1, np.int64)
        np.cumsum(self.visits + 1, out=start[1:])
        size = int(start[-1])
        rows = start.take(np.concatenate(self.pos_rays)) + np.concatenate(self.pos_index)

        def column(values, dtype):
            out = np.empty(size, dtype)
            out[rows] = np.concatenate(values)
            return out

        curwork = column([p[0] for p in self.positions], bool)
        cur_tre = column([p[1] for p in self.positions], np.int32)
        next_tre = column([p[2] for p in self.positions], np.int32)
        top_item = column([p[3] for p in self.positions], np.int32)

        item = np.full(size, -1, np.int32)
        if self.visit_rays:
            visit_rows = start.take(np.concatenate(self.visit_rays))
            visit_rows += np.concatenate(self.visit_index)
            item[visit_rows] = np.concatenate(self.visit_items)
        isleaf = item >= self.node_count
        tests = np.zeros(size, np.int32)
        tests[isleaf] = self.tables.leaf_count[item[isleaf] - self.node_count]

        if self.chain_rays:
            chain_rows = start.take(np.concatenate(self.chain_rays))
            chain_rows += np.concatenate(self.chain_index)
            order = np.argsort(chain_rows, kind="stable")
            chain_rows = chain_rows[order]
            chain_tre = np.concatenate(self.chain_tres)[order].astype(np.int32)
            chain_row, first = np.unique(chain_rows, return_index=True)
            chain_ptr = np.append(first, len(chain_rows)).astype(np.int64)
        else:
            chain_row = np.zeros(0, np.int64)
            chain_ptr = np.zeros(1, np.int64)
            chain_tre = np.zeros(0, np.int32)
        return TraceBatch(
            start, item, isleaf, tests, curwork, cur_tre, next_tre, top_item,
            chain_row, chain_ptr, chain_tre, self.tables,
        )

    def write_back(self, states, batch: TraceBatch) -> None:
        """Leave each state finished with its functional results, as a
        live traversal would; the visit counters are sums over the
        ray's rows of ``batch``."""
        t_hit = self.t_hit.tolist()
        hit_prim = self.hit_prim.tolist()
        firsts = batch.start[:-1]
        leaf_counts = np.add.reduceat(batch.isleaf.astype(np.int64), firsts)
        leaves = leaf_counts.tolist()
        nodes = (np.diff(batch.start) - 1 - leaf_counts).tolist()
        tests = np.add.reduceat(batch.tests.astype(np.int64), firsts).tolist()
        culled = self.culled.tolist()
        treelet = self.cur_tre.tolist()
        for i, state in enumerate(states):
            state.t_hit = t_hit[i]
            state.hit_prim = hit_prim[i]
            state.nodes_visited += nodes[i]
            state.leaf_visits += leaves[i]
            state.triangle_tests += tests[i]
            state.culled += culled[i]
            state.current_treelet = treelet[i]
            state.current_stack.clear()
        if self.hit_rays:
            rays = np.concatenate(self.hit_rays)
            order = np.argsort(rays, kind="stable")
            rays = rays[order]
            prims = np.concatenate(self.hit_prims)[order].tolist()
            ts = np.concatenate(self.hit_ts)[order].tolist()
            bounds = np.flatnonzero(np.diff(rays)) + 1
            firsts = np.concatenate(([0], bounds)).tolist()
            ends = np.concatenate((bounds, [len(rays)])).tolist()
            for ray, a, b in zip(rays[firsts].tolist(), firsts, ends):
                states[ray].all_hits.extend(zip(prims[a:b], ts[a:b]))


def trace_states(bvh, states) -> TraceBatch:
    """Run every traversal state in ``states`` to completion and return
    their columnar :class:`TraceBatch` (ray ``r`` is ``states[r]``).

    All states advance in lock-step waves over array-held stacks (see
    :class:`_WaveTracer`).  Per-ray visit order is exactly
    :func:`repro.bvh.traversal.pop_next`'s, and a traversal's result
    does not depend on timing, so the finished states hold the
    functional results every policy reports: ``t_hit``, ``hit_prim``,
    ``all_hits`` and the four counters are written back, and the stacks
    are left empty.

    States must use the TREELET order and be fresh from
    ``init_traversal`` (only the root entry on the stacks): anything
    else raises :class:`~repro.errors.SimulationError`.
    """
    _check_fresh(states)
    if not states:
        return _empty_batch(bvh.batch_tables())
    tracer = _WaveTracer(bvh, states)
    tracer.run()
    batch = tracer.batch()
    tracer.write_back(states, batch)
    return batch


def _empty_batch(tables) -> TraceBatch:
    empty = np.zeros(0, np.int32)
    return TraceBatch(
        np.zeros(1, np.int64), empty, empty.astype(bool), empty,
        empty.astype(bool), empty, empty, empty,
        np.zeros(0, np.int64), np.zeros(1, np.int64), empty,
        tables,
    )


def build_plan(scene, bvh, setup, seed: int = 0) -> RenderPlan:
    """Build the policy-independent render plan for one scene render.

    Drives real ``PathState`` / ``RayTraversalState`` objects through the
    real :class:`~repro.tracing.path_tracer.ShadingEngine`, so hit
    points, bounce decisions and radiance are a live path tracer's exact
    floats — only the *schedule* of the functional work differs (waves
    over all rays instead of warp-at-a-time).
    """
    from repro.tracing.path_tracer import ShadingEngine

    width = setup.image_width
    height = setup.image_height
    pixels = width * height
    spp = max(1, setup.samples_per_pixel)
    shading = ShadingEngine(scene, bvh, max_bounces=setup.max_bounces, seed=seed)

    # Sample-major slots, mirroring render_scene's path construction
    # exactly (same camera calls, same jitter seeding).
    paths = []
    for sample in range(spp):
        jitter = sample if spp > 1 else None
        primaries = scene.camera.primary_rays(width, height, jitter_seed=jitter)
        paths.extend(
            shading.make_primary(
                p, primaries.origins[p], primaries.directions[p], sample=sample
            )
            for p in range(pixels)
        )

    batches: List[TraceBatch] = []
    slots: List[np.ndarray] = []
    generation = [
        (slot, shading.begin_traversal(paths[slot])) for slot in range(len(paths))
    ]
    bounds = scene.mesh.bounds()
    while generation:
        batch = trace_states(bvh, [state for _slot, state in generation])
        if batches:
            # Sort keys are elementwise in each ray's origin/direction, so
            # one call over the whole generation gives every SM's rays the
            # keys a per-SM bounce barrier would compute.
            batch.sort_key = ray_sort_keys(
                np.array([[s.ox, s.oy, s.oz] for _slot, s in generation]),
                np.array([[s.dx, s.dy, s.dz] for _slot, s in generation]),
                bounds.lo, bounds.hi,
            )
        # Every plan is replayed, so build its replay lists here: plan
        # build, not the first replay, pays for them.
        batch.replay_columns()
        batches.append(batch)
        slots.append(np.array([slot for slot, _state in generation], np.int64))
        next_generation = []
        for slot, state in generation:
            if shading.shade(paths[slot], state):
                next_generation.append((slot, shading.begin_traversal(paths[slot])))
        generation = next_generation

    radiance = np.array([path.radiance for path in paths])
    return RenderPlan(batches, slots, radiance, pixels, spp)


_PLAN_CACHE_ATTR = "_soa_plan_cache"


def get_plan(scene, bvh, setup, seed: int = 0) -> RenderPlan:
    """:func:`build_plan`, cached on the BVH object.

    The cache key is every input the plan depends on: the render
    geometry parameters and the shading seed.  (GPU/cache configuration
    and policy are deliberately absent — plans are timing-free.)  The
    scene is checked by identity via a weakref: a BVH is always paired
    with the scene it was built from, but a mismatched call must not
    serve a stale plan.
    """
    key = (
        seed,
        setup.image_width,
        setup.image_height,
        max(1, setup.samples_per_pixel),
        setup.max_bounces,
    )
    cache = getattr(bvh, _PLAN_CACHE_ATTR, None)
    if cache is None:
        cache = OrderedDict()
        setattr(bvh, _PLAN_CACHE_ATTR, cache)
    entry = cache.get(key)
    if entry is not None:
        scene_ref, plan = entry
        if scene_ref() is scene:
            cache.move_to_end(key)
            return plan
        del cache[key]
    plan = build_plan(scene, bvh, setup, seed)
    cache[key] = (weakref.ref(scene), plan)
    limit = settings.get("REPRO_SOA_PLAN_CACHE")
    while len(cache) > limit:
        cache.popitem(last=False)
    return plan
