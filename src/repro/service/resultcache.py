"""Content-addressed, fleet-wide cache of finished job results.

The serving traffic a deployment actually sees is dominated by repeats:
the same scene/policy/config point submitted again and again by
different clients (RTNN makes the same observation for query workloads —
repeated structure, not novel compute, dominates).  The runner's disk
cache already dedupes the *simulation*; this layer dedupes the *job*:
an admission whose content hash matches an already-completed job is
answered straight from the cache as a ``done`` (``deduped=True``) record
with **zero dispatch** — no queue slot, no scheduler pass, no worker.

Keying reuses :func:`repro.experiments.runner.case_key_for` verbatim —
the sha256 over scene, policy, the fully-resolved GPU setup, vtq and
``RESULTS_VERSION`` that the experiment cache trusts — then folds in the
job kind and (for pareto jobs) the validated sweep params.  Anything
that would invalidate the experiment cache invalidates this cache too,
so a dedupe hit is byte-identical to what a fresh dispatch would have
produced.

Storage discipline is the experiment cache's, applied at fleet scope:
one JSON file per key under ``<spool>/results``, written to a ``.tmp``
sibling and :func:`os.replace`\\ d into place, carrying
``{"version", "key", "checksum", "result"}``.  A corrupt, torn,
stale-version or checksum-mismatched entry is deleted and reported as a
miss — never served.  Orphaned ``.tmp`` files are swept on init, same as
the :class:`~repro.service.jobs.JobStore` spool.

``REPRO_SERVICE_DEDUPE=0`` disables the cache entirely (every lookup
misses, nothing is stored) for A/B runs and tests that need every
submission to dispatch.

The store is bounded: ``REPRO_SERVICE_DEDUPE_MAX_ENTRIES`` and
``REPRO_SERVICE_DEDUPE_MAX_BYTES`` (0 or unset = unlimited) cap the
entry count and on-disk footprint.  Crossing either bound evicts the
least-recently-used entries — a lookup hit refreshes its entry's mtime,
so recency survives process restarts — until both bounds hold again.
Evictions are visible as
``repro_service_result_cache_evictions_total{reason=...}``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional

from repro import settings
from repro.experiments.runner import ExperimentContext, case_key_for
from repro.obs import registry as obs_registry

#: Bump when the entry schema or keying recipe changes; old entries are
#: then treated as misses and deleted on contact.
RESULT_CACHE_VERSION = "1"


def result_key(
    kind: str,
    spec,
    context: ExperimentContext,
    params: Optional[Dict] = None,
) -> str:
    """The content address of one submission's result.

    Built on the experiment cache's :func:`case_key_for` (which already
    folds in ``RESULTS_VERSION`` and the full GPU setup), extended with
    the job kind and pareto params — two submissions share a key exactly
    when a fresh dispatch would produce byte-identical results.
    """
    payload = {
        "v": RESULT_CACHE_VERSION,
        "case": case_key_for(
            spec.scene,
            spec.policy,
            context,
            vtq=spec.vtq,
            gpu_overrides=spec.gpu_overrides,
        ),
        "kind": kind,
        "params": params or None,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:24]


def _checksum(result: Dict) -> str:
    return hashlib.sha256(
        json.dumps(result, sort_keys=True).encode()
    ).hexdigest()


class ResultCache:
    """Checksummed atomic result store under one directory."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        for orphan in self.root.glob("*.tmp"):
            try:
                orphan.unlink()
            except OSError:  # pragma: no cover - racing unlink is fine
                pass

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def lookup(self, key: str) -> Optional[Dict]:
        """The cached result for ``key``, or ``None`` on any miss.

        A defective entry (unreadable, wrong version, keyed for another
        submission, failed checksum) is deleted and counted as a miss —
        the caller dispatches and the rewrite heals the cache.
        """
        if not settings.get("REPRO_SERVICE_DEDUPE"):
            return None
        path = self.path(key)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self._count("miss")
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._evict(path, "unreadable")
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("version") != RESULT_CACHE_VERSION
            or entry.get("key") != key
            or not isinstance(entry.get("result"), dict)
            or entry.get("checksum") != _checksum(entry["result"])
        ):
            self._evict(path, "corrupt")
            return None
        try:
            # Touch the entry so mtime order is LRU order (recency
            # survives restarts; the eviction scan below trusts it).
            os.utime(path)
        except OSError:  # pragma: no cover - entry raced away
            pass
        self._count("hit")
        return entry["result"]

    def store(self, key: str, result: Dict) -> None:
        """Persist ``result`` under ``key`` (atomic tmp write + rename)."""
        if not settings.get("REPRO_SERVICE_DEDUPE"):
            return
        path = self.path(key)
        tmp = path.with_suffix(".json.tmp")
        try:
            entry = {
                "version": RESULT_CACHE_VERSION,
                "key": key,
                "checksum": _checksum(result),
                "result": result,
            }
            with open(tmp, "w") as handle:
                json.dump(entry, handle)
            os.replace(tmp, path)
        except (OSError, TypeError):
            # Best-effort cache: an unserializable or undiskable result
            # just means the next identical submission dispatches again.
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        self._enforce_limits(keep=path)

    def _enforce_limits(self, keep: Optional[Path] = None) -> None:
        """Evict least-recently-used entries past the configured bounds.

        ``keep`` (the entry just written) is never evicted, even when it
        alone exceeds the byte bound — storing then instantly discarding
        a result would turn an aggressive bound into a 0% hit rate.
        """
        max_entries = settings.get("REPRO_SERVICE_DEDUPE_MAX_ENTRIES")
        max_bytes = settings.get("REPRO_SERVICE_DEDUPE_MAX_BYTES")
        if not max_entries and not max_bytes:
            return
        entries = []
        total_bytes = 0
        for path in self.root.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - raced away
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total_bytes += stat.st_size
        entries.sort()  # oldest mtime first = least recently used
        count = len(entries)
        for mtime, size, path in entries:
            over_entries = max_entries and count > max_entries
            over_bytes = max_bytes and total_bytes > max_bytes
            if not over_entries and not over_bytes:
                break
            if keep is not None and path == keep:
                continue
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing unlink is fine
                continue
            count -= 1
            total_bytes -= size
            self._count_eviction("entries" if over_entries else "bytes")

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    @staticmethod
    def _count_eviction(reason: str) -> None:
        obs_registry().counter(
            "repro_service_result_cache_evictions_total",
            "Fleet result-cache entries evicted by the LRU bounds",
            ("reason",),
        ).labels(reason=reason).inc()

    @staticmethod
    def _count(outcome: str) -> None:
        obs_registry().counter(
            "repro_service_result_cache_lookups_total",
            "Fleet result-cache lookups, by outcome",
            ("outcome",),
        ).labels(outcome=outcome).inc()

    def _evict(self, path: Path, why: str) -> None:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - already gone
            pass
        self._count(why)
