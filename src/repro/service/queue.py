"""Bounded priority queue with admission control and client fairness.

Admission control happens at the door: a submission is either accepted
(and will eventually run) or rejected **with a reason** —
:class:`repro.errors.AdmissionRejected` carrying ``"queue-full"``,
``"client-quota"``, ``"tenant-quota"`` or ``"draining"`` — so
backpressure is explicit and a client can tell "retry later" from "you
are hogging the queue".  Load rejections (full queue, client or tenant
quota) additionally carry a machine-readable ``retry_after_s`` backoff
hint (``REPRO_SERVICE_RETRY_AFTER_S``), which the client's retry policy
and the CLI's ``--admit-wait`` honor.

Ordering is priority-first, then **fair across client ids**: each job is
stamped with a per-client *fair rank*, so at equal priority two clients'
jobs interleave (A's 1st, B's 1st, A's 2nd, ...) instead of the first
bulk submitter starving everyone behind it.  Submission order breaks the
remaining ties, keeping the whole order deterministic.

The fair rank is **monotone per client while the client has work
queued**: a fresh submission always ranks strictly after every job the
client still has in the queue.  Stamping the raw queued-job *count*
(the original scheme) breaks exactly there — a client that cancels a
job and resubmits would stamp a rank *equal to* one of its still-queued
jobs, giving it two jobs at the same interleave slot and starving other
clients' later jobs (see ``TestFairRankAfterCancel``).  The counter
resets only when the client's queue empties, which is what makes a
fresh client's first job rank 0 again.

**Tenant quotas** layer on top of per-client fairness for multi-tenant
deployments: a tenant is a coarser bucket (many client ids can share
one), and ``per_tenant_max`` bounds the whole bucket's queued jobs with
a typed ``"tenant-quota"`` rejection.

The scheduler pops through :meth:`JobQueue.pop_next`, which prefers jobs
whose :meth:`Job.scene_key` matches the previously dispatched one — the
mechanism that turns an interleaved submission stream into scene-grouped
(cache-warm) execution without any global re-sort.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List, Optional

from repro import settings
from repro.errors import AdmissionRejected
from repro.service.jobs import Job


class JobQueue:
    """Priority + fairness ordered, depth- and quota-bounded job queue."""

    def __init__(
        self,
        max_depth: int = 64,
        per_client_max: Optional[int] = None,
        per_tenant_max: Optional[int] = None,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if per_client_max is not None and per_client_max < 1:
            raise ValueError("per_client_max must be >= 1 when set")
        if per_tenant_max is not None and per_tenant_max < 1:
            raise ValueError("per_tenant_max must be >= 1 when set")
        self.max_depth = max_depth
        self.per_client_max = per_client_max
        self.per_tenant_max = per_tenant_max
        self._seq = itertools.count()
        # job_id -> (sort key, job); kept unsorted, popped by min() — the
        # queue is small (bounded) and cancellation stays O(1).
        self._entries: Dict[str, tuple] = {}
        # client_id -> queued-job count, maintained on submit/cancel/pop
        # so the quota check is O(1) per submit and can never drift from
        # the entries dict (a recount of which is what the property test
        # compares against).
        self._client_depths: Dict[str, int] = {}
        # client_id -> the next fair rank to stamp.  Strictly greater
        # than every rank the client still has queued; dropped (back to
        # 0) when the client's queue empties.  This is what keeps the
        # interleave invariant intact across cancel()/resubmit — the
        # queued-job count alone regresses after a cancellation and
        # would stamp a duplicate rank.
        self._client_next_rank: Dict[str, int] = {}
        # tenant -> queued-job count, for the per-tenant quota.
        self._tenant_depths: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._entries

    def _client_depth(self, client_id: str) -> int:
        return self._client_depths.get(client_id, 0)

    def _tenant_depth(self, tenant: str) -> int:
        return self._tenant_depths.get(tenant, 0)

    def _client_departed(self, job: Job) -> None:
        """Decrement the departing job's client/tenant counts.

        A client whose queue empties also drops its fair-rank counter,
        so its next submission starts at rank 0 like a fresh client."""
        remaining = self._client_depths.get(job.client_id, 0) - 1
        if remaining > 0:
            self._client_depths[job.client_id] = remaining
        else:
            self._client_depths.pop(job.client_id, None)
            self._client_next_rank.pop(job.client_id, None)
        tenant_remaining = self._tenant_depths.get(job.tenant, 0) - 1
        if tenant_remaining > 0:
            self._tenant_depths[job.tenant] = tenant_remaining
        else:
            self._tenant_depths.pop(job.tenant, None)

    def submit(self, job: Job, enforce_bounds: bool = True) -> None:
        """Admit ``job`` or raise :class:`AdmissionRejected` with a reason.

        ``enforce_bounds=False`` skips admission control — used only when
        a restarting server re-adopts already-admitted spooled jobs,
        which must never be dropped by a depth race.
        """
        depth = self._client_depth(job.client_id)
        if enforce_bounds:
            retry_after_s = settings.get("REPRO_SERVICE_RETRY_AFTER_S")
            if len(self._entries) >= self.max_depth:
                raise AdmissionRejected(
                    f"queue is full ({self.max_depth} jobs queued); retry later",
                    reason="queue-full",
                    retry_after_s=retry_after_s,
                )
            if self.per_client_max is not None and depth >= self.per_client_max:
                raise AdmissionRejected(
                    f"client {job.client_id!r} already has {depth} queued "
                    f"jobs (quota {self.per_client_max})",
                    reason="client-quota",
                    retry_after_s=retry_after_s,
                )
            if (
                self.per_tenant_max is not None
                and self._tenant_depth(job.tenant) >= self.per_tenant_max
            ):
                raise AdmissionRejected(
                    f"tenant {job.tenant!r} already has "
                    f"{self._tenant_depth(job.tenant)} queued jobs "
                    f"(quota {self.per_tenant_max})",
                    reason="tenant-quota",
                    retry_after_s=retry_after_s,
                )
        # Higher priority first; at equal priority, clients interleave by
        # fair rank (strictly after everything this client still has
        # queued); submission order last.
        fair_rank = max(depth, self._client_next_rank.get(job.client_id, 0))
        # The deadline anchor.  Stamped here — not at Job construction —
        # so a job re-adopted after a server restart (whose persisted
        # record cannot carry a monotonic reading) re-anchors to *this*
        # process's clock and gets a fresh full allowance.
        job.admitted_monotonic = time.monotonic()
        key = (-job.priority, fair_rank, next(self._seq))
        self._entries[job.job_id] = (key, job)
        self._client_depths[job.client_id] = depth + 1
        self._client_next_rank[job.client_id] = fair_rank + 1
        self._tenant_depths[job.tenant] = self._tenant_depth(job.tenant) + 1

    def admit_adopted(self, job: Job) -> None:
        """Re-queue a spooled job during server restart, bypassing bounds."""
        self.submit(job, enforce_bounds=False)

    def cancel(self, job_id: str) -> Optional[Job]:
        """Remove a queued job; the job if it was queued, else ``None``."""
        entry = self._entries.pop(job_id, None)
        if entry is None:
            return None
        self._client_departed(entry[1])
        return entry[1]

    def peek_order(self) -> List[Job]:
        """The current pop order (for introspection/tests)."""
        return [job for _, job in sorted(self._entries.values(), key=lambda e: e[0])]

    def pop_next(self, prefer_key: Optional[str] = None) -> Optional[Job]:
        """Pop the best job, preferring ``prefer_key`` scene affinity.

        Among queued jobs whose :meth:`Job.scene_key` equals
        ``prefer_key`` the best-ordered one wins even over globally
        better-ordered jobs of other scenes — this is what keeps a warm
        scene's jobs running consecutively.  With no match (or no
        preference) the global order decides.
        """
        if not self._entries:
            return None
        candidates = self._entries.values()
        if prefer_key is not None:
            matching = [e for e in candidates if e[1].scene_key() == prefer_key]
            if matching:
                candidates = matching
        key, job = min(candidates, key=lambda e: e[0])
        del self._entries[job.job_id]
        self._client_departed(job)
        return job
