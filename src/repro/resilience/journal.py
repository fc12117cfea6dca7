"""Crash-safe sweep checkpoint/resume journal.

A multi-case sweep killed mid-flight (OOM killer, preempted CI runner,
ctrl-C) used to lose its bookkeeping: completed cases survive in the
disk cache, but the restarted sweep re-enumerates everything, re-reads
every cache entry, and recomputes any quarantined-failure cell from
scratch (failures are never cached).  The :class:`SweepJournal` fixes
both: each completed case — success *or* typed failure — is appended to
a progress journal next to the experiment cache, and a restarted sweep
replays the journal first, touching only the cases that never finished.

Design points:

* **Identity is the cache key.**  A sweep's journal id is the hash of
  its sorted per-case cache keys (:func:`repro.experiments.runner.case_key_for`),
  and each entry is keyed by a case's cache key — so any input change
  that would invalidate the cache (config, scene scale, code version)
  silently starts a fresh journal instead of resuming stale progress.
* **Append-only JSONL with per-line checksums.**  A crash mid-append
  leaves at most one torn trailing line; :meth:`load` drops torn or
  checksum-failing lines and keeps everything before them.  No rewrite,
  no rename, no window where progress is lost.
* **Failures are journaled too.**  A quarantined case resumes as the
  same :class:`~repro.experiments.runner.CaseFailure` (re-recorded in
  the parent), so resume reproduces an uninterrupted sweep's report
  byte-for-byte without re-running the failing simulation.
* **A full-disk write degrades, never aborts.**  An ``OSError`` from an
  append (see the ``DISK_FULL`` fault site) disables the journal for
  the rest of the sweep and logs once; the sweep itself continues on
  the cache alone.

A successfully completed sweep deletes its journal
(:meth:`complete`) — the cache now covers everything it recorded.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import faults, settings

logger = logging.getLogger("repro.resilience")

JOURNAL_VERSION = "1"


def _observe_append(status: str) -> None:
    from repro.obs import registry as obs_registry

    obs_registry().counter(
        "repro_resilience_journal_appends_total",
        "Sweep-journal entries appended, by case status",
        ("status",),
    ).labels(status=status).inc()


def _observe_resumed(count: int) -> None:
    if not count:
        return
    from repro.obs import registry as obs_registry

    obs_registry().counter(
        "repro_resilience_journal_resumed_total",
        "Cases restored from a sweep journal instead of re-resolved",
    ).labels().inc(count)


def _line_checksum(payload: Dict) -> str:
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class SweepJournal:
    """Progress journal for one specific sweep (one set of case keys)."""

    path: Path
    sweep_id: str
    _disabled: bool = False
    _handle: Optional[object] = field(default=None, repr=False)

    # -- construction -----------------------------------------------------------

    @classmethod
    def for_cases(cls, cases, context) -> Optional["SweepJournal"]:
        """The journal for this exact sweep, or ``None`` when journalling
        doesn't apply (disabled by env, or the context has no disk cache
        for completed cases to survive in)."""
        if not settings.get("REPRO_SWEEP_JOURNAL"):
            return None
        if not getattr(context, "use_disk_cache", False):
            return None
        from repro.experiments.runner import cache_dir, case_key_for

        keys = sorted(
            case_key_for(
                spec.scene, spec.policy, context, spec.vtq, spec.gpu_overrides
            )
            for spec in cases
        )
        if not keys:
            return None
        sweep_id = hashlib.sha256(
            json.dumps([JOURNAL_VERSION] + keys).encode()
        ).hexdigest()[:24]
        path = cache_dir() / "journal" / f"{sweep_id}.jsonl"
        return cls(path=path, sweep_id=sweep_id)

    # -- reading ----------------------------------------------------------------

    def load(self) -> Dict[str, Tuple[Optional[Dict], Optional[Dict]]]:
        """Previously journaled progress: ``{key: (metrics, failure)}``.

        Tolerates a torn or corrupted tail (the crash that motivated the
        resume): bad lines are dropped, valid earlier lines are kept.
        """
        if not self.path.exists():
            return {}
        progress: Dict[str, Tuple[Optional[Dict], Optional[Dict]]] = {}
        dropped = 0
        try:
            raw_lines = self.path.read_text().splitlines()
        except OSError as exc:
            logger.warning("sweep journal %s unreadable: %s", self.path.name, exc)
            return {}
        for raw in raw_lines:
            if not raw.strip():
                continue
            try:
                entry = json.loads(raw)
                payload = {k: entry[k] for k in ("v", "key", "status", "metrics", "failure")}
            except (json.JSONDecodeError, KeyError, TypeError):
                dropped += 1
                continue
            if entry.get("sum") != _line_checksum(payload) or payload["v"] != JOURNAL_VERSION:
                dropped += 1
                continue
            progress[payload["key"]] = (payload["metrics"], payload["failure"])
        if dropped:
            logger.warning(
                "sweep journal %s: dropped %d torn/corrupt line(s)",
                self.path.name, dropped,
            )
        _observe_resumed(len(progress))
        return progress

    # -- writing ----------------------------------------------------------------

    def record(
        self,
        key: str,
        metrics: Optional[Dict],
        failure: Optional[Dict],
    ) -> None:
        """Append one completed case (metrics or serialized failure).

        An OSError (disk full, journal dir deleted mid-run) disables the
        journal for the rest of the sweep — the sweep must never die for
        its own bookkeeping.
        """
        if self._disabled:
            return
        status = "done" if failure is None else "failed"
        payload = {
            "v": JOURNAL_VERSION,
            "key": key,
            "status": status,
            "metrics": metrics,
            "failure": failure,
        }
        line = json.dumps({**payload, "sum": _line_checksum(payload)})
        try:
            faults.maybe_slow_io(f"journal:{self.sweep_id}")
            faults.maybe_disk_full(f"journal:{self.sweep_id}")
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "a")
            self._handle.write(line + "\n")
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except OSError as exc:
            logger.warning(
                "sweep journal %s disabled after write failure: %s",
                self.path.name, exc,
            )
            self._disabled = True
            self.close()
            return
        _observe_append(status)

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:  # pragma: no cover - close after ENOSPC
                pass
            self._handle = None

    def complete(self) -> None:
        """The sweep finished: drop the journal (the cache covers it)."""
        self.close()
        try:
            self.path.unlink()
        except OSError:
            pass


def serialize_failure(failure) -> Dict:
    """A :class:`CaseFailure` as the JSON dict the journal stores."""
    return {
        "scene": failure.scene,
        "policy": failure.policy,
        "error_type": failure.error_type,
        "message": failure.message,
        "partial": dict(failure.partial),
    }


def deserialize_failure(data: Dict):
    """The journal dict back into a :class:`CaseFailure`."""
    from repro.experiments.runner import CaseFailure

    return CaseFailure(
        scene=data["scene"],
        policy=data["policy"],
        error_type=data["error_type"],
        message=data["message"],
        partial=dict(data.get("partial") or {}),
    )
