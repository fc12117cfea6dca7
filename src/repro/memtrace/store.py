"""Content-addressed on-disk store for recorded memory traces.

Mirrors the hardened experiment result cache (:mod:`repro.experiments.
runner`): traces live under one directory keyed by a hash of everything
that determines the recorded stream (scene, policy, full GPU config,
image dimensions, VTQ overrides), writes are atomic, readers verify the
embedded checksum and a defective file is logged, deleted and
re-recorded — never trusted, never fatal.  Concurrent sweep workers
racing to record the same trace serialize on a per-key ``flock`` claim.

``REPRO_TRACE_DIR`` overrides the store location; otherwise traces sit
next to the experiment cache (``REPRO_CACHE_DIR``-relative when that is
set, repo-relative ``.cache/memtrace`` when not).
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Tuple

from repro import settings
from repro.errors import TraceError
from repro.memtrace.format import MemTrace, TRACE_VERSION, load_trace, save_trace
from repro.memtrace.recorder import TraceRecorder

logger = logging.getLogger("repro.memtrace")

_TRACE_DIR = Path(__file__).resolve().parents[3] / ".cache" / "memtrace"


def trace_dir() -> Path:
    """The trace store directory (re-read per call so tests can retarget)."""
    explicit = settings.get("REPRO_TRACE_DIR")
    if explicit is not None:
        return explicit
    cache = settings.get("REPRO_CACHE_DIR")
    if cache is not None:
        return cache / "memtrace"
    return _TRACE_DIR


def trace_key(scene: str, policy: str, setup, vtq) -> str:
    """Content key of the trace one (scene, policy, setup, vtq) produces."""
    payload = {
        "v": TRACE_VERSION,
        "scene": scene,
        "policy": policy,
        "gpu": asdict(setup.gpu),
        "setup": {
            "w": setup.image_width,
            "h": setup.image_height,
            "scale": setup.scene_scale,
            "bounces": setup.max_bounces,
            "spp": setup.samples_per_pixel,
        },
        "vtq": asdict(vtq) if vtq is not None else None,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:24]


def trace_path(key: str) -> Path:
    return trace_dir() / f"{key}.memtrace"


def _observe(event: str) -> None:
    from repro.obs import registry as obs_registry

    obs_registry().counter(
        "repro_memtrace_traces_total",
        "Memory-trace store events (recorded/hit/corrupt/replayed)",
        ("event",),
    ).labels(event=event).inc()


def _observe_bytes(direction: str, nbytes: int) -> None:
    from repro.obs import registry as obs_registry

    obs_registry().counter(
        "repro_memtrace_trace_bytes_total",
        "Trace bytes moved through the store, by direction",
        ("direction",),
    ).labels(direction=direction).inc(nbytes)


@contextmanager
def _trace_claim(key: str):
    """Cross-process mutex for one trace key.

    Contention is managed by the shared retry policy
    (:func:`repro.resilience.flock_claim`); no-op without ``fcntl``.
    """
    from repro.resilience import flock_claim

    directory = trace_dir()
    directory.mkdir(parents=True, exist_ok=True)
    with flock_claim(directory / f"{key}.lock", describe=f"trace:{key}"):
        yield


def store_trace(trace: MemTrace, key: str) -> Path:
    """Write a trace into the store; returns its path."""
    path = trace_path(key)
    nbytes = save_trace(trace, path)
    _observe("recorded")
    _observe_bytes("written", nbytes)
    return path


def try_load_trace(key: str) -> Optional[MemTrace]:
    """Load a stored trace if present and intact; drop defective files."""
    path = trace_path(key)
    if not path.exists():
        return None
    try:
        trace = load_trace(path)
    except TraceError as exc:
        logger.warning("re-recording trace %s: %s", key, exc)
        _observe("corrupt")
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing unlink is fine
            pass
        return None
    _observe("hit")
    _observe_bytes("read", path.stat().st_size)
    return trace


def record_trace(
    scene,
    bvh,
    setup,
    policy: str,
    vtq=None,
    *,
    scene_name: Optional[str] = None,
    allow_partial: bool = False,
    cycle_budget=None,
    sanitize=None,
) -> Tuple[MemTrace, "object"]:
    """Run one live render with recording on; returns ``(trace, result)``.

    The recorder is budgeted by ``REPRO_TRACE_BUDGET_BYTES``; overruns
    raise :class:`repro.errors.TraceBudgetExceeded` unless
    ``allow_partial`` keeps the truncated (replay-refused) stream.
    """
    from repro.tracing import render_scene

    recorder = TraceRecorder(
        policy, budget_bytes=settings.get("REPRO_TRACE_BUDGET_BYTES") or None
    )
    start = time.perf_counter()
    result = render_scene(
        scene,
        bvh,
        setup,
        policy=policy,
        vtq_config=vtq,
        cycle_budget=cycle_budget,
        sanitize=sanitize,
        trace_recorder=recorder,
    )
    wall = time.perf_counter() - start
    trace = recorder.finish(
        scene_name=scene_name or getattr(scene, "name", "?"),
        setup=setup,
        vtq=vtq,
        bvh=bvh,
        result=result,
        record_wall_s=wall,
        allow_partial=allow_partial,
    )
    return trace, result


def ensure_trace(scene_name: str, policy: str, context, vtq=None) -> MemTrace:
    """Fetch the stored trace for a case, recording it live if absent.

    The live recording run is the "one live sim" a replay-safe sweep
    group pays; every other point in the group replays.  Concurrent
    workers serialize on a per-key claim so the group records once.
    """
    from repro.experiments.runner import scene_and_bvh

    setup = context.setup
    key = trace_key(scene_name, policy, setup, vtq)
    trace = try_load_trace(key)
    if trace is not None:
        return trace
    with _trace_claim(key):
        trace = try_load_trace(key)
        if trace is not None:
            return trace
        scene, bvh = scene_and_bvh(scene_name, setup)
        budget = context.case_budget()
        cycles = budget.max_cycles if budget else None
        trace, _result = record_trace(
            scene,
            bvh,
            setup,
            policy,
            vtq,
            scene_name=scene_name,
            cycle_budget=cycles,
            sanitize=context.sanitize,
        )
        store_trace(trace, key)
    return trace
