"""Record, store and replay memory traces.

A trace is a stored render plan (:mod:`repro.memtrace.format`), so:

* recording one (:func:`record_trace`) is a live render whose plan is
  kept;
* replaying one (:func:`replay_trace`) rebuilds the BVH, checks it
  against the layout digest the trace carries, and renders the stored
  plan live at the recorded configuration plus any overrides that
  :func:`repro.memtrace.safety.ensure_replayable` allows.

There is one timing engine: a replay runs the same policy units as any
render, so it equals a fresh live run at the replayed configuration.

The content-addressed store mirrors the hardened experiment result
cache (:mod:`repro.experiments.runner`): traces live under one
directory keyed by a hash of what the trace is for (scene, policy, full
GPU config, image dimensions, VTQ overrides), writes are atomic,
readers verify the embedded checksum and a defective file is logged,
deleted and re-recorded — never trusted, never fatal.  Concurrent
workers racing to record the same trace serialize on a per-key
``flock`` claim.

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
from repro.memtrace.format import (
    MemTrace,
    TRACE_VERSION,
    load_trace,
    plan_from_trace,
    save_trace,
    trace_from_plan,
)
from repro.memtrace.safety import ensure_replayable, layout_digest

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


def _capture(plan, scene_name: str, bvh, setup, policy: str, vtq) -> MemTrace:
    """The trace of ``plan`` (built with the default shading seed), with
    everything a replay needs to rebuild its BVH and configuration."""
    meta = {
        "scene": scene_name,
        "scale": setup.scene_scale,
        "setup": {
            "image_width": setup.image_width,
            "image_height": setup.image_height,
            "max_bounces": setup.max_bounces,
            "samples_per_pixel": setup.samples_per_pixel,
        },
        "seed": 0,
        "policy": policy,
        "vtq": asdict(vtq) if vtq is not None else None,
        "gpu": asdict(setup.gpu),
        "bvh_digest": layout_digest(bvh),
    }
    return trace_from_plan(plan, meta)


def record_trace(
    scene,
    bvh,
    setup,
    policy: str,
    vtq=None,
    *,
    scene_name: Optional[str] = None,
    cycle_budget=None,
    sanitize=None,
) -> Tuple[MemTrace, "object"]:
    """Run one live render and keep its plan; returns ``(trace, result)``.

    ``scene_name`` must name a scene :func:`repro.scenes.load_scene`
    can rebuild at ``setup.scene_scale`` for the trace to replay.
    """
    from repro.gpusim.soa import get_plan
    from repro.tracing import render_scene

    plan = get_plan(scene, bvh, setup)
    result = render_scene(
        scene,
        bvh,
        setup,
        policy=policy,
        vtq_config=vtq,
        cycle_budget=cycle_budget,
        sanitize=sanitize,
        plan=plan,
    )
    name = scene_name or getattr(scene, "name", "?")
    return _capture(plan, name, bvh, setup, policy, vtq), result


def ensure_trace(scene_name: str, policy: str, context, vtq=None) -> MemTrace:
    """Fetch the stored trace for a case, storing the case's plan if absent.

    Concurrent workers serialize on a per-key claim so a case is stored
    once.
    """
    from repro.experiments.runner import scene_and_bvh
    from repro.gpusim.soa import get_plan

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
        plan = get_plan(scene, bvh, setup)
        trace = _capture(plan, scene_name, bvh, setup, policy, vtq)
        store_trace(trace, key)
    return trace


def replay_trace(trace: MemTrace, gpu_overrides=None, *, record_obs: bool = True):
    """Render ``trace``'s plan at (recorded config + overrides); returns a
    :class:`repro.tracing.render.RenderResult` equal to a fresh live run
    at that configuration.

    Raises :class:`TraceError` for overrides that name unknown fields or
    change the BVH (``l1_bytes``, ``line_bytes``), for a scene that
    cannot be rebuilt, and for a rebuilt BVH whose layout digest differs
    from the recorded one.
    """
    from repro.core.config import VTQConfig
    from repro.errors import ReproError
    from repro.experiments.runner import normalize_overrides, scene_and_bvh
    from repro.gpusim.config import GPUConfig, ScaledSetup
    from repro.tracing.render import render_scene

    started = time.perf_counter()
    meta = trace.meta
    overrides = dict(normalize_overrides(gpu_overrides))
    ensure_replayable(meta, overrides)
    gpu = GPUConfig(**dict(meta["gpu"], **overrides))
    try:
        vtq = VTQConfig(**meta["vtq"]) if meta["vtq"] is not None else None
        geometry = meta["setup"]
        setup = ScaledSetup(
            gpu=gpu,
            image_width=geometry["image_width"],
            image_height=geometry["image_height"],
            scene_scale=meta["scale"],
            max_bounces=geometry["max_bounces"],
            samples_per_pixel=geometry["samples_per_pixel"],
        )
        scene, bvh = scene_and_bvh(meta["scene"], setup)
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"cannot rebuild the trace's configuration: {exc}") from exc
    digest = layout_digest(bvh)
    if digest != meta["bvh_digest"]:
        raise TraceError(
            f"the rebuilt {meta['scene']} BVH (layout {digest}) is not the one "
            f"the trace was recorded over (layout {meta['bvh_digest']}); "
            f"re-record the trace"
        )
    plan = plan_from_trace(trace, bvh.batch_tables())
    result = render_scene(
        scene, bvh, setup, policy=meta["policy"], vtq_config=vtq, plan=plan
    )
    if record_obs:
        from repro.obs import registry as obs_registry

        _observe("replayed")
        obs_registry().histogram(
            "repro_memtrace_replay_seconds",
            "Wall time of one trace replay.",
        ).labels().observe(time.perf_counter() - started)
    return result
