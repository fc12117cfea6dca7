"""Structured exception hierarchy for the whole reproduction.

Every layer raises a :class:`ReproError` subclass so callers can tell
recoverable failures (a corrupt cache entry, one bad case in a sweep)
from fatal ones (broken geometry feeding a BVH build) with a single
``except`` clause.  ``SceneError`` and ``BVHError`` also subclass
``ValueError`` because the pre-hierarchy code raised ``ValueError`` from
those layers and callers may still catch it.

Hierarchy::

    ReproError
    ├── SceneError        (also ValueError)  defective/unparseable geometry
    ├── BVHError          (also ValueError)  corrupt/mismatched BVH data
    ├── ConfigError       (also ValueError)  malformed REPRO_* environment knob
    ├── CacheError                           unusable experiment cache entry
    ├── ServiceError                         simulation-serving subsystem fault
    │   ├── ServiceUnavailable               transport failure; safe to retry
    │   └── AdmissionRejected                job refused at the queue door
    │       └── CircuitOpen                  scene's circuit breaker is open
    ├── TraceError                           unusable/unreplayable memory trace
    │   └── TraceBudgetExceeded              recording overran its size budget
    └── SimulationError                      a simulated case went wrong
        ├── BudgetExceeded                   wall-clock or cycle budget blown
        └── SanitizerError                   post-render invariant violated
"""

from __future__ import annotations

from typing import Dict, List, Optional


class ReproError(Exception):
    """Base class for every error this library raises deliberately."""


class SceneError(ReproError, ValueError):
    """Scene geometry is defective or unparseable (NaN vertices,
    degenerate triangles, malformed OBJ input)."""


class BVHError(ReproError, ValueError):
    """A serialized BVH is corrupt, truncated, or of the wrong version."""


class ConfigError(ReproError, ValueError):
    """A ``REPRO_*`` environment knob holds a value its declaration
    (:data:`repro.settings.KNOBS`) refuses.  ``knob``, ``value`` and
    ``expected`` name the variable, the raw string and what it must
    be."""

    def __init__(self, knob: str, value: str, expected: str):
        super().__init__(f"{knob} must be {expected}, got {value!r}")
        self.knob = knob
        self.value = value
        self.expected = expected


class CacheError(ReproError):
    """An experiment cache entry cannot be trusted (truncated file, bad
    checksum, stale version or mismatched key).  Always recoverable: the
    caller recomputes the case."""


class ServiceError(ReproError):
    """The simulation-serving subsystem (:mod:`repro.service`) hit an
    operational fault: an unusable job record, a malformed request, or a
    missing endpoint.

    ``retryable`` classifies the failure for callers that automate
    recovery: ``True`` means the operation certainly never reached the
    server (repeating it cannot duplicate work), ``False`` means either
    the server rejected it deliberately or the outcome is unknown.
    """

    retryable = False


class ServiceUnavailable(ServiceError):
    """A transport-level failure talking to the service: the endpoint
    refused the connection, the socket dropped before the request was
    sent, or the server vanished mid-handshake.  Always safe to retry —
    the request was never (observably) accepted."""

    retryable = True


class AdmissionRejected(ServiceError):
    """The job queue refused a submission.  ``reason`` is a short
    machine-usable tag (``"queue-full"``, ``"client-quota"``,
    ``"draining"``, ``"circuit-open"``); the message is the human
    explanation the server relays to the client.  ``retry_after_s``,
    when set, is the server's machine-readable hint of how long to back
    off before the same submission is likely to be admitted."""

    def __init__(
        self,
        message: str,
        *,
        reason: str = "rejected",
        retry_after_s: Optional[float] = None,
    ):
        super().__init__(message)
        self.reason = reason
        self.retry_after_s = retry_after_s

    @property
    def retryable(self) -> bool:  # type: ignore[override]
        # A rejection carrying a backoff hint is an explicit "try again
        # later"; one without is a policy refusal (e.g. draining).
        return self.retry_after_s is not None


class CircuitOpen(AdmissionRejected):
    """A scene's circuit breaker is open: its cases kept failing, so the
    scheduler refuses new work for it until the cooldown elapses.
    ``scene`` names the tripped circuit; ``retry_after_s`` says when a
    probe will next be admitted."""

    def __init__(
        self,
        message: str,
        *,
        scene: Optional[str] = None,
        retry_after_s: Optional[float] = None,
    ):
        super().__init__(
            message, reason="circuit-open", retry_after_s=retry_after_s
        )
        self.scene = scene


class TraceError(ReproError):
    """A recorded memory trace cannot be used: the file is corrupt or
    truncated, its checksum or version does not match, or a replay was
    requested at a configuration the trace is not valid for.  Always
    recoverable: the caller re-records or falls back to a live run."""


class TraceBudgetExceeded(TraceError):
    """Memory-trace recording overran its size budget
    (``REPRO_TRACE_BUDGET_BYTES``).  The recorder stops storing further
    events so a large scene cannot fill the disk silently; saving the
    truncated stream requires an explicit partial-trace opt-in."""

    def __init__(
        self,
        message: str,
        *,
        kind: str = "trace_bytes",
        limit: Optional[float] = None,
        observed: Optional[float] = None,
    ):
        super().__init__(message)
        self.kind = kind
        self.limit = limit
        self.observed = observed


class SimulationError(ReproError):
    """A simulated case failed to produce a usable result."""


class BudgetExceeded(SimulationError):
    """A case overran its wall-clock or simulated-cycle budget.

    ``partial`` carries whatever statistics were gathered before the
    watchdog fired, so sweeps can report how far the case got.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str = "cycles",
        limit: Optional[float] = None,
        observed: Optional[float] = None,
        partial: Optional[Dict] = None,
    ):
        super().__init__(message)
        self.kind = kind
        self.limit = limit
        self.observed = observed
        self.partial = dict(partial) if partial else {}


class SanitizerError(SimulationError):
    """The simulation-state sanitizer found violated invariants after a
    render; ``violations`` lists every failed check."""

    def __init__(self, message: str, violations: Optional[List[str]] = None):
        super().__init__(message)
        self.violations = list(violations) if violations else []
