"""Capture the per-warp-step memory transaction stream of a live run.

A :class:`TraceRecorder` attaches to every SM's :class:`MemorySystem`
(``mem.recorder``) for one ``render_scene`` call.  The engines call the
emitters below at each point where they touch the memory hierarchy or
make a scheduling decision; recording is purely observational — no
simulated number changes when a recorder is attached (the equivalence
tests pin this by comparing against recorder-free runs).

Two stream shapes (see :mod:`repro.memtrace.format`):

* baseline / prefetch record one op span per warp plus the warp
  genealogy (primary ready cycles, child ready deltas, parent links), so
  replay can re-run the greedy-then-oldest scheduler from scratch;
* vtq records one chronological stream per SM — its phase interleaving
  depends on arrival timing, so the schedule is pinned with explicit
  ``ADVANCE_TO`` idle jumps instead.

Recording is capped by ``REPRO_TRACE_BUDGET_BYTES`` (default 256 MiB of
uncompressed tokens): past the cap the recorder stops storing events
(bounded memory, the render itself is unaffected) and ``finish()``
raises :class:`repro.errors.TraceBudgetExceeded` unless the caller
explicitly opts into saving a partial trace, which replay then refuses.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import TraceBudgetExceeded, TraceError
from repro.memtrace.format import (
    MODE_CODES,
    OP_ADVANCE_TO,
    OP_CTA_RESTORE,
    OP_CTA_SAVE,
    OP_PF_NOTE,
    OP_PF_REFRESH,
    OP_RAY_LOAD_FINAL,
    OP_RAY_LOAD_REFILL,
    OP_RAY_LOAD_TS,
    OP_RAY_WRITE,
    OP_STEP,
    OP_TQ_END,
    OP_TQ_FETCH,
    TRACE_VERSION,
    MemTrace,
    SMTrace,
    overlay_from_stats,
)

RECORDABLE_POLICIES = ("baseline", "prefetch", "vtq")

_TOKEN_BYTES = 8  # int64 per op token / float64 per literal


class _WarpRecord:
    __slots__ = ("ops", "ready", "parent")

    def __init__(self, ready: float, parent: int):
        self.ops: List[int] = []
        self.ready = ready
        self.parent = parent


class _SMRecord:
    __slots__ = ("warps", "ops", "fops", "overlay", "cycles")

    def __init__(self):
        self.warps: List[_WarpRecord] = []
        self.ops: List[int] = []
        self.fops: List[float] = []
        self.overlay: Optional[Dict] = None
        self.cycles = 0.0


class TraceRecorder:
    """Collects one render's memory-transaction stream, SM by SM."""

    def __init__(self, policy: str, budget_bytes: Optional[int] = None):
        if policy not in RECORDABLE_POLICIES:
            raise TraceError(
                f"policy {policy!r} is not recordable; bounce barriers re-sort "
                f"rays mid-run, so only {RECORDABLE_POLICIES} can be traced"
            )
        self.policy = policy
        self.linear = policy == "vtq"
        self._budget_bytes = budget_bytes
        self._budget_tokens = (
            None if budget_bytes is None else max(1, budget_bytes // _TOKEN_BYTES)
        )
        self._tokens = 0
        self.tripped = False
        self._sms: List[_SMRecord] = []
        self._cur: Optional[_SMRecord] = None
        self._wops: Optional[List[int]] = None
        self._active: Optional[int] = None
        self._last_end = 0.0
        self._prefetch_params: Optional[Dict] = None

    # -- SM lifecycle (called from render_scene) -------------------------------

    def begin_sm(self) -> None:
        self._cur = _SMRecord()
        self._sms.append(self._cur)
        self._wops = None
        self._active = None
        self._last_end = 0.0

    def end_sm(self, stats, cycles: float) -> None:
        self._cur.overlay = overlay_from_stats(stats)
        self._cur.cycles = float(cycles)
        self._cur = None

    # -- warp genealogy (called from the baseline/prefetch RT unit) -------------

    def on_submit(self, warp) -> None:
        if self.tripped or self.linear:
            return
        parent = self._active if self._active is not None else -1
        ready = float(warp.ready_cycle)
        if parent >= 0:
            ready -= self._last_end
        warp._memtrace_idx = len(self._cur.warps)
        self._cur.warps.append(_WarpRecord(ready, parent))

    def begin_warp(self, warp) -> None:
        if self.tripped or self.linear:
            return
        self._active = warp._memtrace_idx
        self._wops = self._cur.warps[self._active].ops

    def end_warp(self, cycle: float) -> None:
        if self.tripped or self.linear:
            return
        self._last_end = float(cycle)

    def note_prefetch_params(self, reevaluate_steps: int, min_votes: int) -> None:
        self._prefetch_params = {
            "reevaluate_steps": reevaluate_steps,
            "min_votes": min_votes,
        }

    # -- op emitters ------------------------------------------------------------

    def _out(self) -> List[int]:
        return self._cur.ops if self.linear else self._wops

    def _emit(self, tokens: List[int]) -> None:
        self._tokens += len(tokens)
        if self._budget_tokens is not None and self._tokens > self._budget_tokens:
            self.tripped = True
            return
        self._out().extend(tokens)

    def step(
        self,
        mode,
        lane_lines: Sequence[Sequence[int]],
        tests: int = 0,
        leaf_lanes: int = 0,
    ) -> None:
        """One warp step.  ``tests``/``leaf_lanes`` are the leaf-cost
        operands — nonzero only on gaussian workloads, where replay
        reprices the alpha-evaluation cycles from its own config."""
        if self.tripped:
            return
        tokens = [OP_STEP, MODE_CODES[mode], tests, leaf_lanes, len(lane_lines)]
        for lines in lane_lines:
            tokens.append(len(lines))
            tokens.extend(lines)
        self._emit(tokens)

    def pf_refresh(self, votes: Dict[int, int]) -> None:
        if self.tripped:
            return
        tokens = [OP_PF_REFRESH, len(votes)]
        for treelet in sorted(votes):
            tokens.append(treelet)
            tokens.append(votes[treelet])
        self._emit(tokens)

    def pf_note(self, lines: Sequence[int]) -> None:
        if self.tripped or not lines:
            return
        self._emit([OP_PF_NOTE, len(lines), *lines])

    def ray_write(self, ray_ids: Sequence[int]) -> None:
        if self.tripped:
            return
        self._emit([OP_RAY_WRITE, len(ray_ids), *ray_ids])

    def ray_load_ts(self, ray_ids: Sequence[int]) -> None:
        if self.tripped:
            return
        self._emit([OP_RAY_LOAD_TS, len(ray_ids), *ray_ids])

    def ray_load_final(self, ray_ids: Sequence[int]) -> None:
        if self.tripped:
            return
        self._emit([OP_RAY_LOAD_FINAL, len(ray_ids), *ray_ids])

    def ray_load_refill(self, ray_ids: Sequence[int]) -> None:
        if self.tripped:
            return
        self._emit([OP_RAY_LOAD_REFILL, len(ray_ids), *ray_ids])

    def tq_fetch(self, treelet: int) -> None:
        if self.tripped:
            return
        self._emit([OP_TQ_FETCH, treelet])

    def tq_end(self) -> None:
        if self.tripped:
            return
        self._emit([OP_TQ_END])

    def cta_save(self) -> None:
        if self.tripped:
            return
        self._emit([OP_CTA_SAVE])

    def cta_restore(self) -> None:
        if self.tripped:
            return
        self._emit([OP_CTA_RESTORE])

    def advance_to(self, cycle: float) -> None:
        if self.tripped:
            return
        self._tokens += 2
        if self._budget_tokens is not None and self._tokens > self._budget_tokens:
            self.tripped = True
            return
        self._cur.ops.append(OP_ADVANCE_TO)
        self._cur.fops.append(float(cycle))

    # -- finalization -----------------------------------------------------------

    def finish(
        self,
        *,
        scene_name: str,
        setup,
        vtq,
        bvh,
        result,
        record_wall_s: float,
        allow_partial: bool = False,
    ) -> MemTrace:
        """Package everything recorded into a :class:`MemTrace`.

        Raises :class:`TraceBudgetExceeded` if recording overran its
        size budget, unless ``allow_partial`` marks the truncated stream
        as intentionally kept (replay refuses it; ``trace info`` shows it).
        """
        if self.tripped and not allow_partial:
            raise TraceBudgetExceeded(
                f"memory-trace recording of {scene_name}/{self.policy} exceeded "
                f"its size budget of {self._budget_bytes} bytes; raise "
                f"REPRO_TRACE_BUDGET_BYTES or pass --allow-partial to keep the "
                f"truncated stream",
                limit=self._budget_bytes,
                observed=self._tokens * _TOKEN_BYTES,
            )
        meta = {
            "kind": "memtrace",
            "version": TRACE_VERSION,
            "scene": scene_name,
            "policy": self.policy,
            "gpu": asdict(setup.gpu),
            "setup": {
                "image_width": setup.image_width,
                "image_height": setup.image_height,
                "scene_scale": setup.scene_scale,
                "max_bounces": setup.max_bounces,
                "samples_per_pixel": setup.samples_per_pixel,
            },
            "vtq": asdict(vtq) if vtq is not None else None,
            "prefetch": self._prefetch_params,
            "num_sms": len(self._sms),
            "overlays": [sm.overlay for sm in self._sms],
            "per_sm_cycles": [sm.cycles for sm in self._sms],
            "partial": bool(self.tripped),
            "record_wall_s": float(record_wall_s),
        }
        sms = []
        for sm in self._sms:
            if self.linear:
                sms.append(
                    SMTrace(
                        ops=np.asarray(sm.ops, dtype=np.int64),
                        fops=np.asarray(sm.fops, dtype=np.float64),
                        warp_start=np.zeros(0, dtype=np.int64),
                        warp_end=np.zeros(0, dtype=np.int64),
                        warp_ready=np.zeros(0, dtype=np.float64),
                        warp_parent=np.zeros(0, dtype=np.int64),
                    )
                )
                continue
            starts = []
            ends = []
            flat: List[int] = []
            for warp in sm.warps:
                starts.append(len(flat))
                flat.extend(warp.ops)
                ends.append(len(flat))
            sms.append(
                SMTrace(
                    ops=np.asarray(flat, dtype=np.int64),
                    fops=np.zeros(0, dtype=np.float64),
                    warp_start=np.asarray(starts, dtype=np.int64),
                    warp_end=np.asarray(ends, dtype=np.int64),
                    warp_ready=np.asarray(
                        [w.ready for w in sm.warps], dtype=np.float64
                    ),
                    warp_parent=np.asarray(
                        [w.parent for w in sm.warps], dtype=np.int64
                    ),
                )
            )
        layout = bvh.layout
        return MemTrace(
            meta=meta,
            image=result.image,
            treelet_base=np.asarray(layout.treelet_base, dtype=np.int64),
            treelet_sizes=np.asarray(layout.treelet_sizes, dtype=np.int64),
            sms=sms,
        )
