"""Cross-cutting reliability layer: retry, breakers, supervision, chaos.

The subsystems this package hardens each had an ad-hoc answer to
failure; ``repro.resilience`` gives them one shared vocabulary:

* :class:`RetryPolicy` (:mod:`~repro.resilience.retry`) — unified
  backoff with decorrelated jitter, used by the scheduler's
  crash-retry, the sync client's idempotent verbs and flock claims.
* :class:`CircuitBreaker` / :class:`BreakerBoard`
  (:mod:`~repro.resilience.breaker`) — per-scene failure isolation in
  the scheduler.
* :class:`SupervisedPool` (:mod:`~repro.resilience.supervisor`) —
  worker heartbeats, crash/hang attribution, poisoned-case quarantine.
* :class:`SweepJournal` (:mod:`~repro.resilience.journal`) —
  crash-safe sweep checkpoint/resume.
* :func:`run_chaos_sweep` (:mod:`~repro.resilience.chaos`) — the
  deterministic chaos harness that proves all of the above under
  seeded process-level faults.

Everything reports through ``repro_resilience_*`` metrics in
:mod:`repro.obs`.
"""

from repro.resilience.breaker import BreakerBoard, CircuitBreaker
from repro.resilience.chaos import ChaosReport, build_schedule, run_chaos_sweep
from repro.resilience.journal import (
    SweepJournal,
    deserialize_failure,
    serialize_failure,
)
from repro.resilience.retry import (
    CLIENT_POLICY,
    FLOCK_POLICY,
    RetryPolicy,
    flock_claim,
)
from repro.resilience.supervisor import (
    KILL_EXIT_CODE,
    SupervisedPool,
)

__all__ = [
    "BreakerBoard",
    "ChaosReport",
    "CircuitBreaker",
    "CLIENT_POLICY",
    "FLOCK_POLICY",
    "KILL_EXIT_CODE",
    "RetryPolicy",
    "SupervisedPool",
    "SweepJournal",
    "build_schedule",
    "deserialize_failure",
    "flock_claim",
    "run_chaos_sweep",
    "serialize_failure",
]
