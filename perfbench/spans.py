"""Span recording from outside the program, and per-layer self time.

The traced run wraps the public calls of each layer *where its caller
bound the name* (``repro.experiments.runner.render_scene``, not
``repro.tracing.render.render_scene``), records one span per call, and
puts every original back when it ends.  Untraced runs install nothing.

Spans are kept in flat in-memory columns (the memory-pricing layer alone
makes tens of thousands per case) and written out once, when the run
ends.  Spans nest strictly — every wrapper opens and closes on one call
stack — so a span's self time is its duration minus its direct
children's durations.  Times are ``time.perf_counter()`` seconds, which
on Linux is ``CLOCK_MONOTONIC`` and so comparable across processes on
one host.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Span name -> layer.  Self time is reported by layer.
LAYER_OF = {
    "process.start": "process",
    "process.exit": "process",
    "runner.run_case": "runner",
    "scenes.load": "scenes",
    "bvh.build": "bvh",
    "soa.get_plan": "soa",
    "soa.build_plan": "soa",
    "engine.render": "engine",
    "memory.price": "memory",
    "memtrace.ensure": "memtrace",
    "memtrace.record": "memtrace",
    "memtrace.replay": "memtrace",
    "service.submit": "service",
    "service.queue_wait": "service",
    "service.exec": "service",
}

#: (module, attribute path, span name).  Each entry patches the binding
#: its caller actually looks up at call time.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.experiments.runner", "run_case", "runner.run_case"),
    ("repro.experiments.runner", "load_scene", "scenes.load"),
    ("repro.experiments.runner", "build_scene_bvh", "bvh.build"),
    ("repro.experiments.runner", "render_scene", "engine.render"),
    # memtrace's recorder imports render_scene from the package at call time.
    ("repro.tracing", "render_scene", "engine.render"),
    ("repro.tracing.render", "get_plan", "soa.get_plan"),
    ("repro.gpusim.soa", "build_plan", "soa.build_plan"),
    ("repro.gpusim.memory", "MemorySystem.access_lines_batch", "memory.price"),
    # The runner imports these from the package at call time.
    ("repro.memtrace", "ensure_trace", "memtrace.ensure"),
    ("repro.memtrace", "replay_trace", "memtrace.replay"),
    ("repro.memtrace.store", "record_trace", "memtrace.record"),
)


class Tracer:
    """In-memory span columns plus the counters the wrappers derive."""

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        """Drop every recorded span and counter."""
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.tags: Dict[int, str] = {}  # span index -> tag (e.g. policy)
        self.ops: List[str] = []  # op index -> op label
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._current_op = -1

    # -- recording ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def open(self, name: str, start: Optional[float] = None) -> int:
        index = len(self.start)
        self.name.append(self._name_id(name))
        self.start.append(time.perf_counter() if start is None else start)
        self.end.append(-1.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._current_op)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("spans closed out of order")

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        """Record a finished span (times measured elsewhere)."""
        index = len(self.start)
        self.name.append(self._name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(self._current_op)
        return index

    @contextmanager
    def operation(self, label: str, start: Optional[float] = None):
        """The root span of one benchmark operation."""
        self._current_op = len(self.ops)
        self.ops.append(label)
        index = self.open("op", start)
        try:
            yield index
        finally:
            self.close(index)
            self._current_op = -1

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        if name == "engine.render":
            @functools.wraps(fn)
            def render(*args, **kwargs):
                index = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(index)
                tracer.tags[index] = result.policy
                reason = result.engine_fallback_reason
                if reason is not None:
                    tracer.counts[f"engine.scalar_runs.{reason}"] += 1
                tracer.counts["engine.node_visits"] += result.stats.node_visits
                return result
            return render

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)
                tracer.counts[name + ".calls"] += 1
        return wrapper

    # -- merging spans recorded in other processes --------------------------------

    def export(self) -> Dict:
        return {
            "names": list(self.names),
            "name": list(self.name),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "op": list(self.op),
            "tags": {str(k): v for k, v in self.tags.items()},
            "ops": list(self.ops),
            "counts": dict(self.counts),
        }

    def merge(self, data: Dict, parent: int) -> None:
        """Adopt another process's spans under ``parent`` in this tracer.

        Its root spans become children of ``parent`` and take this
        tracer's current operation.  Both clocks are ``perf_counter``.
        """
        base = len(self.start)
        op = self.op[parent] if parent >= 0 else self._current_op
        for i, name_id in enumerate(data["name"]):
            name = data["names"][name_id]
            if name == "op":
                raise ValueError("merged spans must not contain op roots")
            self.name.append(self._name_id(name))
            self.start.append(data["start"][i])
            self.end.append(data["end"][i])
            p = data["parent"][i]
            self.parent.append(parent if p < 0 else base + p)
            self.op.append(op)
        for key, tag in data.get("tags", {}).items():
            self.tags[base + int(key)] = tag
        for key, value in data.get("counts", {}).items():
            self.counts[key] += value


# -- installing and removing wrappers -----------------------------------------------

def _bound(owner, attr: str):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def installed(tracer: Tracer, targets: Iterable[Tuple[str, str, str]] = TARGETS):
    """Patch every target for the duration of the block, then restore.

    Originals are read from the owner's ``__dict__`` so a class attribute
    is restored as the same function object, not a bound method.
    """
    saved = []
    try:
        for module, path, name in targets:
            owner, attr = _resolve(module, path)
            original = _bound(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def current_bindings(targets: Iterable[Tuple[str, str, str]] = TARGETS) -> Dict[str, object]:
    """What each target name is bound to right now (for hygiene checks)."""
    out = {}
    for module, path, _name in targets:
        owner, attr = _resolve(module, path)
        out[f"{module}.{path}"] = _bound(owner, attr)
    return out


# -- analysis -------------------------------------------------------------------------

def _self_seconds(tracer: Tracer) -> List[float]:
    """Each span's duration minus its direct children's durations."""
    own = [tracer.end[i] - tracer.start[i] for i in range(len(tracer.start))]
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            own[p] -= tracer.end[i] - tracer.start[i]
    return own


def self_times(tracer: Tracer) -> Dict[str, float]:
    """Self seconds by span name (``op`` roots excluded)."""
    out: Dict[str, float] = defaultdict(float)
    for i, seconds in enumerate(_self_seconds(tracer)):
        out[tracer.names[tracer.name[i]]] += seconds
    out.pop("op", None)
    return dict(out)


def self_times_by_tag(tracer: Tracer, name: str) -> Dict[str, float]:
    """Self seconds of one span name, split by its tag."""
    target = tracer._name_ids.get(name)
    out: Dict[str, float] = defaultdict(float)
    for i, seconds in enumerate(_self_seconds(tracer)):
        if tracer.name[i] == target:
            out[tracer.tags.get(i, "?")] += seconds
    return dict(out)


def coverage(tracer: Tracer) -> float:
    """Share of op wall time covered by layer spans directly under op roots.

    Children of a root may overlap (the service layer's client-side and
    server-side spans do), so each root's covered time is the length of
    the union of its children's intervals, clipped to the root.
    """
    op_id = tracer._name_ids.get("op")
    roots = {i: [] for i in range(len(tracer.start)) if tracer.name[i] == op_id}
    for i in range(len(tracer.start)):
        p = tracer.parent[i]
        if p in roots:
            roots[p].append((tracer.start[i], tracer.end[i]))
    total = covered = 0.0
    for root, intervals in roots.items():
        lo, hi = tracer.start[root], tracer.end[root]
        total += hi - lo
        edge = lo
        for start, end in sorted(intervals):
            start, end = max(start, edge), min(end, hi)
            if end > start:
                covered += end - start
                edge = end
    return covered / total if total > 0 else 0.0


def write(tracer: Tracer, path) -> None:
    with open(path, "w") as handle:
        json.dump(tracer.export(), handle, separators=(",", ":"))
