"""Per-case execution budgets: wall-clock and simulated-cycle watchdogs.

A runaway case (a pathological scene/config combination, or a fault
injected on purpose) must not take a whole sweep down with it.  Two
independent bounds apply to every case the experiment runner executes:

* a **simulated-cycle budget**, checked cooperatively by every RT-unit
  engine at each scheduling round, and
* a **wall-clock budget**, enforced by a SIGALRM timer around the render.
  Where SIGALRM cannot fire — worker threads, or platforms without the
  signal — the watchdog arms a cooperative ``time.monotonic()`` deadline
  instead, checked piggyback on the same per-scheduling-round hook as the
  cycle budget, so parallel sweep workers get wall-clock protection too
  (coarser: it only trips between scheduling rounds).

Both raise :class:`repro.errors.BudgetExceeded` carrying whatever
partial statistics were gathered, so a sweep can quarantine the case and
still report how far it got.  Budgets default to *off*; the environment
variables ``REPRO_WALL_BUDGET_S`` and ``REPRO_CYCLE_BUDGET`` switch them
on globally.
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Iterator, Optional

from repro import settings
from repro.errors import BudgetExceeded
from repro.gpusim.stats import SimStats


@dataclass(frozen=True)
class CaseBudget:
    """Limits for one experiment case; ``None`` disables a bound."""

    wall_seconds: Optional[float] = None
    max_cycles: Optional[float] = None

    def __post_init__(self):
        for name in ("wall_seconds", "max_cycles"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive when set")


def budget_from_env() -> Optional[CaseBudget]:
    """The globally-configured budget, or ``None`` when unset."""
    wall = settings.get("REPRO_WALL_BUDGET_S")
    cycles = settings.get("REPRO_CYCLE_BUDGET")
    if wall is None and cycles is None:
        return None
    return CaseBudget(wall_seconds=wall, max_cycles=cycles)


def merge_wall_budget(
    budget: Optional[CaseBudget], wall_seconds: float
) -> CaseBudget:
    """Tighten ``budget``'s wall-clock bound to at most ``wall_seconds``.

    The serving layer uses this to propagate a job's remaining deadline
    into the per-case watchdogs: the job runs under the *stricter* of the
    ambient budget and its own deadline.  ``wall_seconds`` must be
    positive (an already-expired deadline is the caller's fast path).
    """
    if wall_seconds <= 0:
        raise ValueError("wall_seconds must be positive")
    if budget is None:
        return CaseBudget(wall_seconds=wall_seconds)
    if budget.wall_seconds is None or wall_seconds < budget.wall_seconds:
        return replace(budget, wall_seconds=wall_seconds)
    return budget


def partial_stats(stats: SimStats, cycle: float) -> Dict:
    """The progress snapshot a :class:`BudgetExceeded` carries."""
    return {
        "cycles": cycle,
        "rays_traced": stats.rays_traced,
        "rays_completed": stats.rays_completed,
        "warps_processed": stats.warps_processed,
        "node_visits": stats.node_visits,
        "triangle_tests": stats.triangle_tests,
    }


# Cooperative wall-clock deadline for contexts where SIGALRM cannot fire
# (worker threads; platforms without the signal).  Thread-local so budgets
# in concurrent sweep workers never trip each other.
_cooperative = threading.local()


def _cooperative_deadline() -> Optional[tuple]:
    return getattr(_cooperative, "deadline", None)


def check_cycle_budget(
    cycle: float, limit: Optional[float], stats: SimStats
) -> None:
    """Raise :class:`BudgetExceeded` on cycle or cooperative-wall overrun.

    Called by every engine once per scheduling round, which makes it the
    natural carrier for the cooperative wall-clock deadline: when
    :func:`wall_clock_watchdog` could not arm SIGALRM it arms a monotonic
    deadline instead, and this hook trips it.
    """
    if limit is not None and cycle > limit:
        raise BudgetExceeded(
            f"simulated cycles {cycle:,.0f} exceed budget {limit:,.0f}",
            kind="cycles",
            limit=limit,
            observed=cycle,
            partial=partial_stats(stats, cycle),
        )
    armed = _cooperative_deadline()
    if armed is not None:
        deadline, seconds, describe = armed
        if time.monotonic() > deadline:
            raise BudgetExceeded(
                f"wall clock exceeded {seconds:g}s"
                + (f" while running {describe}" if describe else ""),
                kind="wall",
                limit=seconds,
                partial=partial_stats(stats, cycle),
            )


@contextmanager
def wall_clock_watchdog(seconds: Optional[float], describe: str = "") -> Iterator[None]:
    """Bound a block's wall-clock time.

    Uses a ``SIGALRM`` timer when available (main thread, platform with
    the signal); elsewhere it arms a cooperative ``time.monotonic()``
    deadline that :func:`check_cycle_budget` trips at the next scheduling
    round.  A no-op only when ``seconds`` is ``None``.
    """
    if seconds is None:
        yield
        return
    if (
        not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        previous = _cooperative_deadline()
        _cooperative.deadline = (time.monotonic() + seconds, seconds, describe)
        try:
            yield
        finally:
            _cooperative.deadline = previous
        return

    def _on_alarm(signum, frame):
        raise BudgetExceeded(
            f"wall clock exceeded {seconds:g}s"
            + (f" while running {describe}" if describe else ""),
            kind="wall",
            limit=seconds,
            partial={"case": describe} if describe else {},
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
