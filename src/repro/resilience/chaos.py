"""Deterministic chaos harness: seeded process-level faults + invariants.

``repro chaos`` (and ``tools/chaos_smoke.py`` in CI) runs the same sweep
twice — once clean, once under a seeded schedule of process-level
faults — and asserts the three resilience invariants:

1. **No case lost** — every submitted case resolves to metrics or a
   quarantined failure; nothing vanishes.
2. **Typed reasons** — every failure carries a machine-usable
   ``error_type`` (``WorkerCrash``, ``WorkerHang``, …), never a bare
   string soup.
3. **Byte-identical survivors** — every case that produced metrics
   under chaos produced *exactly* the metrics of the fault-free run
   (``json.dumps(..., sort_keys=True)`` equality, the same discipline
   as ``tests/test_obs_equivalence.py``).

The schedule is a pure function of ``(seed, case list)``: the same seed
replays the same kills, hangs and stalls, so a CI failure reproduces
locally.  Faults are installed in the parent and inherited by forked
workers (see :mod:`repro.resilience.supervisor`).
"""

from __future__ import annotations

import json
import logging
import os
import random
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import faults

logger = logging.getLogger("repro.resilience")


def build_schedule(seed: int, cases: Sequence) -> List[faults.FaultSpec]:
    """The seeded fault schedule for one sweep.

    Deterministically picks victim cases for: a *poisoned* kill (fires on
    every attempt, so the case must be quarantined), a *transient* kill
    and a *transient* hang (first attempt only, so the retry must
    succeed), plus a one-shot journal disk-full and probabilistic slow
    I/O on cache claims.  With fewer than three cases the schedule
    degrades gracefully (victims overlap is avoided first, coverage
    second).
    """
    labels = [spec.label() for spec in cases]
    rng = random.Random(seed)
    picks = rng.sample(range(len(labels)), k=min(3, len(labels)))
    schedule: List[faults.FaultSpec] = []
    if len(picks) > 0:  # poisoned: kills the worker on every attempt
        schedule.append(
            faults.FaultSpec(site=faults.WORKER_KILL, match=labels[picks[0]], seed=seed)
        )
    if len(picks) > 1:  # transient: kills only the first attempt
        schedule.append(
            faults.FaultSpec(
                site=faults.WORKER_KILL, match=f"{labels[picks[1]]}#0", seed=seed
            )
        )
    if len(picks) > 2:  # transient hang on the first attempt
        schedule.append(
            faults.FaultSpec(
                site=faults.WORKER_HANG,
                match=f"{labels[picks[2]]}#0",
                seed=seed,
                payload={"hang_s": 600.0},
            )
        )
    schedule.append(
        faults.FaultSpec(site=faults.DISK_FULL, match="journal:", seed=seed, max_fires=1)
    )
    schedule.append(
        faults.FaultSpec(
            site=faults.SLOW_IO,
            match="claim:",
            probability=0.5,
            seed=seed,
            payload={"seconds": 0.01},
        )
    )
    return schedule


@dataclass
class ChaosReport:
    """What one chaos run did and whether the invariants held."""

    seed: int
    cases: int
    survived: int
    quarantined: int
    lost: int
    untyped_failures: List[str] = field(default_factory=list)
    mismatched: List[str] = field(default_factory=list)
    fired: List[Tuple[str, str]] = field(default_factory=list)
    schedule: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.lost or self.untyped_failures or self.mismatched)

    def as_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "cases": self.cases,
            "survived": self.survived,
            "quarantined": self.quarantined,
            "lost": self.lost,
            "untyped_failures": list(self.untyped_failures),
            "mismatched": list(self.mismatched),
            "fired": [list(pair) for pair in self.fired],
            "schedule": list(self.schedule),
            "ok": self.ok,
        }

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAILED"
        return (
            f"chaos seed={self.seed}: {self.cases} cases, "
            f"{self.survived} survived byte-identical, "
            f"{self.quarantined} quarantined (typed), {self.lost} lost, "
            f"{len(self.fired)} fault firings — {verdict}"
        )


@contextmanager
def _scratch_cache(tag: str):
    """Point the experiment cache at a fresh scratch dir for one run."""
    with tempfile.TemporaryDirectory(prefix=f"repro-chaos-{tag}-") as scratch:
        previous = os.environ.pop("REPRO_CACHE_DIR", None)
        os.environ["REPRO_CACHE_DIR"] = scratch
        try:
            yield scratch
        finally:
            if previous is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = previous


def run_chaos_sweep(
    cases: Sequence,
    context,
    *,
    seed: int = 0,
    jobs: int = 2,
    hang_timeout_s: float = 2.0,
) -> ChaosReport:
    """Run ``cases`` clean, then under the seeded schedule; check invariants.

    Both runs use their own scratch cache directory, so neither the
    baseline nor the real experiment cache can mask a chaos-run bug (or
    be polluted by one).  The chaos run uses the supervised pool with a
    short hang timeout so injected hangs resolve quickly.
    """
    from repro.experiments.parallel import run_cases
    from repro.experiments.runner import clear_failures

    cases = list(cases)
    with _scratch_cache("baseline"):
        clear_failures()
        baseline = run_cases(cases, context, jobs=0, record_failures=False)

    schedule = build_schedule(seed, cases)
    previous_timeout = os.environ.pop("REPRO_HANG_TIMEOUT_S", None)
    os.environ["REPRO_HANG_TIMEOUT_S"] = str(hang_timeout_s)
    try:
        with _scratch_cache("run"), faults.injected(*schedule) as registry:
            clear_failures()
            chaotic = run_cases(cases, context, jobs=max(2, jobs))
            fired = list(registry.fired)
    finally:
        if previous_timeout is None:
            os.environ.pop("REPRO_HANG_TIMEOUT_S", None)
        else:
            os.environ["REPRO_HANG_TIMEOUT_S"] = previous_timeout
        clear_failures()

    report = ChaosReport(
        seed=seed,
        cases=len(cases),
        survived=0,
        quarantined=0,
        lost=0,
        fired=fired,
        schedule=[f"{s.site} match={s.match!r}" for s in schedule],
    )
    for spec, base, result in zip(cases, baseline, chaotic):
        label = spec.label()
        if result is None:
            report.lost += 1
            report.mismatched.append(f"{label}: no result recorded")
            continue
        metrics, failure = result
        if metrics is None and failure is None:
            report.lost += 1
            report.mismatched.append(f"{label}: resolved to neither metrics nor failure")
        elif failure is not None:
            report.quarantined += 1
            if not getattr(failure, "error_type", None):
                report.untyped_failures.append(label)
        else:
            report.survived += 1
            base_metrics = base[0] if base else None
            if base_metrics is None:
                report.mismatched.append(f"{label}: survived chaos but failed clean run")
            elif json.dumps(metrics, sort_keys=True) != json.dumps(
                base_metrics, sort_keys=True
            ):
                report.mismatched.append(f"{label}: metrics differ from clean run")
    logger.info(report.summary())
    return report
