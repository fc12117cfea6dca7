"""Every ``REPRO_*`` environment knob, declared once and parsed one way.

:data:`KNOBS` is the whole settings surface: one :class:`Knob` per
variable with its kind, default, optional minimum and meaning.  Code
reads a knob with :func:`get`, which consults ``os.environ`` on every
call — tests monkeypatch the environment, the chaos harness retargets
it mid-run and the server sets ``REPRO_CACHE_TRACE`` before forking, so
nothing is cached.

Parsing rules, the same for every knob:

* an unset or empty (all-whitespace) value means "use the default";
* ``int`` and ``float`` knobs must parse (floats must be finite) and
  must not fall below the knob's minimum — out-of-range values are
  refused, never clamped;
* ``bool`` knobs accept ``1/0/true/false/yes/no/on/off`` (any case)
  and nothing else;
* ``path`` knobs become a :class:`~pathlib.Path`, ``str`` knobs stay
  strings for their caller to interpret.

Anything else raises :class:`~repro.errors.ConfigError`, naming the
knob, the raw value and what was expected.  :func:`check_all` parses
every knob up front; the CLI calls it before dispatching a verb, so a
misconfigured run exits with status 2 before it does any work.

Undeclared ``REPRO_*`` names are never an error (old environments may
still export retired knobs); :func:`effective` reports them verbatim
next to the declared knobs' values and sources.  The README's
"Environment variables" table documents every entry of :data:`KNOBS`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from repro.errors import ConfigError

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


@dataclass(frozen=True)
class Knob:
    """One environment knob.  ``default`` is a value, ``None`` (unset:
    the caller decides what absence means) or a zero-argument callable
    evaluated on each read."""

    name: str
    kind: str
    default: Any
    meaning: str
    minimum: Optional[float] = None


def _cpu_count() -> int:
    return os.cpu_count() or 1


KNOBS: Dict[str, Knob] = {
    knob.name: knob
    for knob in (
        # -- experiments ----------------------------------------------------------
        Knob("REPRO_SCALE", "float", 1.0,
             "multiplies scene scale and image area of the default setup",
             minimum=0.01),
        Knob("REPRO_SCENES", "str", None,
             "comma-separated scene list (default: every scene)"),
        Knob("REPRO_FAST", "bool", False,
             "benchmarks run the tiny test-sized context"),
        Knob("REPRO_JOBS", "int", _cpu_count,
             "sweep worker processes (default: CPU count; 0 = serial, no pool)",
             minimum=0),
        Knob("REPRO_CACHE_DIR", "path", None,
             "experiment result cache directory (default .cache/experiments)"),
        Knob("REPRO_CACHE_TRACE", "path", None,
             "append HIT/COMPUTE result-cache events to this file"),
        Knob("REPRO_SCENE_CACHE_ENTRIES", "int", 8,
             "scene/BVH pairs kept per process (LRU)", minimum=1),
        Knob("REPRO_SWEEP_JOURNAL", "bool", True,
             "crash-safe sweep resume journal"),
        Knob("REPRO_WALL_BUDGET_S", "float", None,
             "per-case wall-clock budget in seconds (default: none)",
             minimum=0.001),
        Knob("REPRO_CYCLE_BUDGET", "float", None,
             "per-case simulated-cycle budget (default: none)", minimum=1),
        # -- simulator ------------------------------------------------------------
        Knob("REPRO_SOA_PLAN_CACHE", "int", 4,
             "render plans cached per BVH", minimum=1),
        Knob("REPRO_SANITIZE", "bool", False,
             "check every render against conservation invariants"),
        # -- supervised sweep pool ------------------------------------------------
        Knob("REPRO_HANG_TIMEOUT_S", "float", 300.0,
             "seconds a case may run before its worker is presumed hung",
             minimum=0.01),
        Knob("REPRO_MAX_CASE_CRASHES", "int", 2,
             "workers one case may destroy before it is poisoned", minimum=1),
        # -- memory traces --------------------------------------------------------
        Knob("REPRO_TRACE_DIR", "path", None,
             "memory-trace store (default $REPRO_CACHE_DIR/memtrace)"),
        # -- simulation service ---------------------------------------------------
        Knob("REPRO_SERVICE_SPOOL", "path", None,
             "job-spool directory (default .cache/service)"),
        Knob("REPRO_SERVICE_SOCKET", "path", None,
             "unix socket path (default <spool>/service.sock)"),
        Knob("REPRO_SERVICE_TCP", "str", None,
             "host:port TCP endpoint; overrides the unix socket"),
        Knob("REPRO_SERVICE_JOBS", "int", lambda: get("REPRO_JOBS"),
             "service worker pool size (default: REPRO_JOBS; 0 = serial)",
             minimum=0),
        Knob("REPRO_SERVICE_QUEUE_MAX", "int", 64,
             "queue depth bound", minimum=1),
        Knob("REPRO_SERVICE_CLIENT_MAX", "int", 32,
             "per-client queued-job quota", minimum=1),
        # Unlimited by default: single-tenant labs should not trip a
        # quota they never asked for.
        Knob("REPRO_SERVICE_TENANT_MAX", "int", 0,
             "per-tenant queued-job quota (0 = unlimited)", minimum=0),
        Knob("REPRO_SERVICE_RETRIES", "int", 1,
             "retries after a worker crash", minimum=0),
        Knob("REPRO_SERVICE_RETRY_AFTER_S", "float", 1.0,
             "retry_after_s hint attached to load rejections", minimum=0),
        Knob("REPRO_SERVICE_BREAKER_THRESHOLD", "int", 3,
             "consecutive failures that trip a scene's circuit", minimum=1),
        Knob("REPRO_SERVICE_BREAKER_COOLDOWN_S", "float", 30.0,
             "seconds an open scene circuit waits before a probe",
             minimum=0.001),
        Knob("REPRO_SERVICE_DEDUPE", "bool", True,
             "content-addressed result dedupe cache"),
        Knob("REPRO_SERVICE_DEDUPE_MAX_ENTRIES", "int", 0,
             "result-cache entry bound (0 = unlimited)", minimum=0),
        Knob("REPRO_SERVICE_DEDUPE_MAX_BYTES", "int", 0,
             "result-cache on-disk byte bound (0 = unlimited)", minimum=0),
        Knob("REPRO_SERVICE_HEARTBEAT_S", "float", 1.0,
             "worker-node heartbeat period", minimum=0.01),
        Knob("REPRO_SERVICE_NODE_TTL_S", "float", 10.0,
             "heartbeat staleness before routing skips a node", minimum=0.01),
        Knob("REPRO_SERVICE_NODE_EXPIRE_S", "float", 60.0,
             "staleness before a node is dropped from the registry",
             minimum=0.01),
        # Tighter than the scene breaker: a node that dropped two
        # dispatches in a row is almost certainly down, and the router
        # has other nodes to try.
        Knob("REPRO_SERVICE_NODE_BREAKER_THRESHOLD", "int", 2,
             "transport failures that trip a node's circuit", minimum=1),
        Knob("REPRO_SERVICE_NODE_BREAKER_COOLDOWN_S", "float", 15.0,
             "seconds an open node circuit waits before a probe",
             minimum=0.001),
    )
}


def _raw(name: str) -> str:
    return os.environ.get(name, "").strip()


def _parse(knob: Knob, raw: str) -> Any:
    if knob.kind == "bool":
        lowered = raw.lower()
        if lowered in _TRUE:
            return True
        if lowered in _FALSE:
            return False
        raise ConfigError(knob.name, raw, "one of " + "/".join(_TRUE + _FALSE))
    if knob.kind == "path":
        return Path(raw)
    if knob.kind == "str":
        return raw
    try:
        value = int(raw) if knob.kind == "int" else float(raw)
    except ValueError:
        noun = "an integer" if knob.kind == "int" else "a number"
        raise ConfigError(knob.name, raw, noun) from None
    if not math.isfinite(value):
        raise ConfigError(knob.name, raw, "a finite number")
    if knob.minimum is not None and value < knob.minimum:
        raise ConfigError(knob.name, raw, f">= {knob.minimum:g}")
    return value


def get(name: str) -> Any:
    """The current value of knob ``name`` (raises :class:`ConfigError`
    on a malformed value, ``KeyError`` on an undeclared name)."""
    knob = KNOBS[name]
    raw = _raw(name)
    if raw:
        return _parse(knob, raw)
    return knob.default() if callable(knob.default) else knob.default


def check_all() -> None:
    """Parse every declared knob; the first bad one raises."""
    for name in KNOBS:
        get(name)


def effective() -> Dict[str, Dict[str, Any]]:
    """Every declared knob's value and source (``env`` or ``default``),
    plus each undeclared ``REPRO_*`` variable verbatim (source
    ``undeclared``), sorted by name — the settings block of run
    manifests."""
    out: Dict[str, Dict[str, Any]] = {}
    for name in KNOBS:
        value = get(name)
        out[name] = {
            "value": str(value) if isinstance(value, Path) else value,
            "source": "env" if _raw(name) else "default",
        }
    for name, raw in os.environ.items():
        if name.startswith("REPRO_") and name not in KNOBS:
            out[name] = {"value": raw, "source": "undeclared"}
    return dict(sorted(out.items()))
