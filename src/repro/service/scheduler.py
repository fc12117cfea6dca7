"""Scene-batched job scheduler over the parallel sweep worker pool.

The scheduler is the bridge between the serving layer and the existing
execution machinery: it pops admitted jobs from the
:class:`repro.service.queue.JobQueue` and dispatches them onto the same
``ProcessPoolExecutor`` entry point the parallel sweep executor uses
(:func:`repro.experiments.parallel.case_worker`), so a served job and a
CLI sweep case are byte-identical — same cache keys, same quarantine
behaviour, same stats.

What the serving layer adds on top:

* **Scene batching** — jobs are popped with affinity for the previously
  dispatched job's scene key, so cache-warm jobs (shared scene/BVH in
  the workers' LRU caches, shared disk-cache entries) run consecutively
  even when clients interleave their submissions.  The global dispatch
  order is recorded in :attr:`Scheduler.dispatch_log` and on each job's
  ``dispatch_index``, which is how tests (and operators) observe it.
* **Deadline propagation** — a job's remaining deadline is folded into
  the case budget via :func:`repro.gpusim.budget.merge_wall_budget`;
  an overrun surfaces as ``BudgetExceeded`` in the job record exactly
  like any budget trip.
* **Crash retry** — a worker process dying (or the pool breaking) is
  retried on a fresh pool under the unified
  :class:`repro.resilience.RetryPolicy` (``retries`` extra attempts,
  default 1, with jittered backoff between them, bounded by the job's
  effective wall budget) before the job is failed and quarantined
  through the PR 1 machinery
  (:func:`repro.experiments.runner.record_failure`).
* **Per-scene circuit breakers** — a scene whose jobs keep failing
  trips its :class:`repro.resilience.CircuitBreaker`
  (``REPRO_SERVICE_BREAKER_THRESHOLD`` consecutive failures): further
  jobs for that scene fail fast with a typed ``CircuitOpen`` error
  carrying a ``retry_after_s`` hint instead of burning pool slots,
  until a cooldown probe succeeds.  The server also consults the
  breaker at admission (:meth:`Scheduler.admission_check`), rejecting
  new submissions for an open scene at the door.

The scheduler is event-driven, not polled: :meth:`kick` fills free
worker slots, and every completed job kicks again.  It runs entirely on
the server's asyncio loop; the only threads involved are the pool's
feeder and (in ``jobs=0`` serial mode) one ``asyncio.to_thread`` helper.
"""

from __future__ import annotations

import asyncio
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import Callable, List, Optional, Set

from repro import settings
from repro.errors import BudgetExceeded, CircuitOpen
from repro.experiments.parallel import case_worker, case_worker_obs
from repro.experiments.runner import (
    CaseFailure,
    ExperimentContext,
    record_failure,
)
from repro.obs import diff_snapshots, registry as obs_registry
from repro.gpusim.budget import merge_wall_budget
from repro.resilience import BreakerBoard, RetryPolicy
from repro.service import jobs as jobstates
from repro.service.fleet import FleetRegistry, dispatch_remote
from repro.service.jobs import Job, JobStore
from repro.service.queue import JobQueue
from repro.service.resultcache import ResultCache, result_key

logger = logging.getLogger("repro.service.scheduler")

# Failure types that are evidence about the *transport/fleet*, not the
# scene: they feed the per-node breakers (in _execute_remote) and must
# not also trip the scene's circuit.
_NODE_FAULT_TYPES = frozenset(
    {"ServiceUnavailable", "CircuitOpen", "AdmissionRejected"}
)


def pareto_worker(spec, context, params):
    """Worker entry point for ``kind="pareto"`` jobs.

    Runs the whole surrogate-priced frontier sweep serially inside its
    worker slot (``jobs=0`` — no nested pools) and speaks the
    scheduler's ``(metrics, failure)`` contract with the sweep payload
    as the metrics dict, so the job record's ``result`` is the same
    JSON document ``repro pareto`` writes.
    """
    from repro.errors import ReproError
    from repro.surrogate import run_pareto

    try:
        result = run_pareto(
            spec.scene, context, policy=spec.policy, jobs=0, **(params or {})
        )
    except ReproError as exc:
        failure = CaseFailure(
            scene=spec.scene,
            policy=spec.policy,
            error_type=type(exc).__name__,
            message=str(exc),
        )
        record_failure(failure)
        return None, failure
    return result.payload, None


def pareto_worker_obs(spec, context, params):
    """:func:`pareto_worker` plus the pool-mode metrics delta.

    Mirrors :func:`repro.experiments.parallel.case_worker_obs`: in a
    pool process the parent cannot see this registry, so ship the
    counters the sweep incremented home alongside the result.
    """
    reg = obs_registry()
    before = reg.snapshot()
    result = pareto_worker(spec, context, params)
    return result, diff_snapshots(before, reg.snapshot())


class Scheduler:
    """Dispatch queued jobs onto the sweep worker pool, scene-batched."""

    def __init__(
        self,
        store: JobStore,
        queue: JobQueue,
        context: ExperimentContext,
        jobs: int = 1,
        retries: int = 1,
        worker_fn: Callable = case_worker,
        breakers: Optional[BreakerBoard] = None,
        retry_policy: Optional[RetryPolicy] = None,
        fleet: Optional[FleetRegistry] = None,
        result_cache: Optional[ResultCache] = None,
    ):
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0 (0 = serial, no pool), got {jobs}")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.store = store
        self.queue = queue
        self.context = context
        self.jobs = jobs
        self.retries = retries
        self.worker_fn = worker_fn
        self.breakers = breakers if breakers is not None else BreakerBoard(
            failure_threshold=settings.get("REPRO_SERVICE_BREAKER_THRESHOLD"),
            cooldown_s=settings.get("REPRO_SERVICE_BREAKER_COOLDOWN_S"),
        )
        # Crash retry under the unified policy: `retries` extra attempts
        # with jittered backoff, tightened per job to its wall budget.
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy(
            max_attempts=retries + 1, base_delay_s=0.05, max_delay_s=1.0
        )
        # In pool mode the stock worker runs in another process, whose
        # registry the parent cannot see; the obs-wrapped entry point
        # ships each case's metrics delta home.  Custom worker_fns keep
        # the plain (metrics, failure) contract and merge nothing.
        self._obs_worker = (
            case_worker_obs if worker_fn is case_worker and jobs != 0 else None
        )
        # Fleet mode: when the registry holds worker nodes, execution is
        # routed to them instead of the local pool (see _execute_remote).
        self.fleet = fleet
        # Fleet-wide content-addressed dedupe cache; completed results
        # are stored here (keyed by the *ambient* context, never a
        # deadline-tightened one) so identical submissions skip dispatch.
        self.result_cache = result_cache
        # jobs == 0: serial in-process execution, one job at a time.
        self.slots = max(1, jobs)
        self.dispatch_log: List[str] = []
        self._tasks: Set[asyncio.Task] = set()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._last_key: Optional[str] = None
        self._stopping = False

    # -- introspection ---------------------------------------------------------

    @property
    def running_count(self) -> int:
        return len(self._tasks)

    def admission_check(self, scene: str) -> None:
        """Raise :class:`CircuitOpen` when ``scene``'s circuit is open.

        Non-consuming (it never claims the half-open probe slot), so the
        server can call it for every submission without starving the
        dispatch path of its cooldown probe."""
        self.breakers.breaker(scene).check()

    # -- dispatch --------------------------------------------------------------

    def kick(self) -> int:
        """Fill free worker slots from the queue; number dispatched.

        Jobs are popped with affinity for the last dispatched scene key
        (see :meth:`JobQueue.pop_next`), which is what produces the
        scene-grouped execution order.
        """
        if self._stopping:
            return 0
        dispatched = 0
        while len(self._tasks) < self.slots:
            job = self.queue.pop_next(prefer_key=self._last_key)
            if job is None:
                break
            obs_registry().histogram(
                "repro_service_dispatch_latency_seconds",
                "Queue wait from submission to scheduler dispatch",
            ).labels().observe(self._queue_elapsed(job))
            self._last_key = job.scene_key()
            job.dispatch_index = len(self.dispatch_log)
            self.dispatch_log.append(job.job_id)
            task = asyncio.get_running_loop().create_task(self._run_job(job))
            self._tasks.add(task)
            task.add_done_callback(self._on_task_done)
            dispatched += 1
        return dispatched

    def _on_task_done(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:  # pragma: no cover - _run_job is defensive
            logger.error("job task died: %s", exc)
        self.kick()

    async def drain(self) -> None:
        """Run until the queue is empty and no job is in flight."""
        while not self._stopping:
            self.kick()
            tasks = list(self._tasks)
            if not tasks:
                if len(self.queue) == 0:
                    return
                continue  # pragma: no cover - kick always drains the queue
            await asyncio.wait(tasks)

    async def stop(self) -> None:
        """Stop dispatching, wait out in-flight jobs, release the pool."""
        self._stopping = True
        tasks = list(self._tasks)
        if tasks:
            await asyncio.wait(tasks)
        self._discard_pool()

    # -- execution -------------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.slots)
        return self._pool

    def _discard_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    async def _execute_remote(self, job: Job, context: ExperimentContext):
        """One remote attempt: route by scene key, dispatch over the wire.

        Routing consumes the chosen node's breaker slot; the transport
        outcome is reported back to it here.  A transport failure raises
        (feeding the retry policy, whose next attempt re-routes — that
        is the failover path); a node-side *job* failure is a normal
        ``(None, CaseFailure)`` and counts as node health.
        """
        node = self.fleet.route(job.scene_key(), consume=True)
        breaker = self.fleet.breakers.breaker(node.node_id)
        budget = context.case_budget()
        timeout = (
            budget.wall_seconds + 30.0
            if budget is not None and budget.wall_seconds is not None
            else 300.0
        )
        try:
            result = await asyncio.to_thread(
                dispatch_remote, node, job, context, timeout
            )
        except Exception as exc:
            node.failures += 1
            breaker.record_failure()
            logger.warning(
                "remote dispatch of %s to node %s failed: %s",
                job.label(), node.node_id, exc,
            )
            raise
        node.dispatched += 1
        breaker.record_success()
        return result

    async def _execute(self, job: Job, context: ExperimentContext):
        """One execution attempt; raises whatever a worker crash raises."""
        if self.fleet is not None and self.fleet.fleet_mode():
            return await self._execute_remote(job, context)
        if job.kind == "pareto":
            # A pareto job is a whole sweep, not one case; it has its own
            # module-level entry points and ignores custom worker_fns.
            params = dict(job.params or {})
            if self.jobs == 0:
                return await asyncio.to_thread(
                    pareto_worker, job.spec, context, params
                )
            future = self._ensure_pool().submit(
                pareto_worker_obs, job.spec, context, params
            )
            result, obs_delta = await asyncio.wrap_future(future)
            obs_registry().merge_snapshot(obs_delta)
            return result
        fn = self._obs_worker or self.worker_fn
        if self.jobs == 0:
            result = await asyncio.to_thread(fn, job.spec, context)
        else:
            future = self._ensure_pool().submit(fn, job.spec, context)
            result = await asyncio.wrap_future(future)
        if self._obs_worker is not None:
            result, obs_delta = result
            obs_registry().merge_snapshot(obs_delta)
        return result

    def _queue_elapsed(self, job: Job) -> float:
        """Server-side monotonic seconds since the job entered the queue.

        Anchored on ``Job.admitted_monotonic`` (stamped by
        :meth:`JobQueue.submit`), never on wall-clock ``submitted_at``
        arithmetic — a wall-clock (NTP) step must not silently expire a
        job's deadline or inflate its budget.  A job that somehow lacks
        the stamp (constructed outside the queue) counts as just
        admitted: full allowance, never spuriously expired.
        """
        if job.admitted_monotonic is None:
            return 0.0
        return max(0.0, time.monotonic() - job.admitted_monotonic)

    def _job_context(self, job: Job) -> ExperimentContext:
        """The job's context: ambient budget tightened by its deadline.

        Deadline semantics across a server restart: the allowance is
        *per queue residency*, measured on the serving process's
        monotonic clock.  A re-adopted job is re-stamped when the new
        server re-queues it, so it restarts with its full ``deadline_s``
        (monotonic readings cannot be persisted; see
        ``Job.admitted_monotonic``).
        """
        if job.deadline_s is None:
            return self.context
        remaining = job.deadline_s - self._queue_elapsed(job)
        if remaining <= 0:
            raise BudgetExceeded(
                f"deadline of {job.deadline_s:g}s expired before dispatch",
                kind="wall",
                limit=job.deadline_s,
            )
        return replace(
            self.context,
            budget=merge_wall_budget(self.context.case_budget(), remaining),
        )

    async def _attempt_job(self, job: Job, context: ExperimentContext):
        """The job's execution attempts under the unified retry policy.

        Returns ``(metrics, failure)``.  A worker crash discards the
        broken pool and retries with jittered backoff; the policy is
        tightened to the job's effective wall budget so retries never
        sleep a deadline away.  A crash surviving every attempt becomes
        a quarantined :class:`CaseFailure`, exactly like the sweep path.
        """

        async def attempt():
            job.attempts += 1
            if job.attempts > 1:
                self.store.save(job)  # persist the retry before it runs
            try:
                return await self._execute(job, context)
            except Exception as exc:
                logger.warning(
                    "job %s crashed a worker (attempt %d/%d): %s",
                    job.label(), job.attempts, self.retry_policy.max_attempts, exc,
                )
                # A dead worker breaks the whole pool; start fresh.
                self._discard_pool()
                raise

        policy = self.retry_policy.for_budget(context.case_budget())
        try:
            metrics, failure = await policy.acall(
                attempt, component="scheduler", describe=job.label()
            )
        except Exception as crash:
            failure = CaseFailure(
                scene=job.spec.scene,
                policy=job.spec.policy,
                error_type=type(crash).__name__,
                message=f"worker crashed: {crash}",
            )
            record_failure(failure)
            return None, failure
        if failure is not None and self.jobs != 0:
            # Pool workers quarantined the failure in their own process;
            # re-record it here so the server's failure summary sees it
            # (serial mode already recorded it).
            record_failure(failure)
        return metrics, failure

    async def _run_job(self, job: Job) -> None:
        job.state = jobstates.RUNNING
        job.started_at = time.time()
        self.store.save(job)
        obs_registry().counter(
            "repro_service_jobs_dispatched_total",
            "Jobs dispatched to workers, by kind",
            ("kind",),
        ).labels(kind=job.kind).inc()

        metrics = failure = None
        retry_after: Optional[float] = None
        breaker = self.breakers.breaker(job.spec.scene)
        try:
            breaker.allow()
        except CircuitOpen as exc:
            # Fast-fail without touching the pool: the scene is tripped.
            retry_after = exc.retry_after_s
            failure = CaseFailure(
                scene=job.spec.scene,
                policy=job.spec.policy,
                error_type="CircuitOpen",
                message=str(exc),
            )
        else:
            try:
                context = self._job_context(job)
            except BudgetExceeded as exc:
                failure = CaseFailure(
                    scene=job.spec.scene,
                    policy=job.spec.policy,
                    error_type=type(exc).__name__,
                    message=str(exc),
                )
                record_failure(failure)
                # The deadline expired before any work ran: not evidence
                # about the scene, so return the probe without an outcome.
                breaker.release()
            else:
                metrics, failure = await self._attempt_job(job, context)
                if failure is None:
                    breaker.record_success()
                elif failure.error_type in _NODE_FAULT_TYPES:
                    # A transport/fleet fault says nothing about the
                    # scene; the node's own breaker already recorded it.
                    breaker.release()
                else:
                    breaker.record_failure()

        job.finished_at = time.time()
        if failure is None and metrics is not None and self.result_cache is not None:
            # Key by the ambient context (not a deadline-tightened one):
            # the budget never changes the simulated result, only
            # whether it finishes — and only finished results land here.
            try:
                self.result_cache.store(
                    result_key(job.kind, job.spec, self.context, job.params),
                    metrics,
                )
            except Exception:  # cache is best-effort, never fails a job
                logger.exception("result-cache store failed for %s", job.label())
        if failure is not None:
            job.state = jobstates.FAILED
            job.error = {
                "type": failure.error_type,
                "message": failure.message,
                "partial": dict(failure.partial),
            }
            if retry_after is not None:
                job.error["retry_after_s"] = retry_after
        else:
            job.state = jobstates.DONE
            job.result = metrics
        self.store.save(job)
        reg = obs_registry()
        reg.counter(
            "repro_service_jobs_finished_total",
            "Jobs reaching a terminal state, by state",
            ("state",),
        ).labels(state=job.state).inc()
        if job.started_at:
            reg.histogram(
                "repro_service_job_seconds",
                "Job wall time from dispatch to terminal state",
                ("state",),
            ).labels(state=job.state).observe(job.finished_at - job.started_at)
        logger.info("job %s finished: %s", job.label(), job.state)
