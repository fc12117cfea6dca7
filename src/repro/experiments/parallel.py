"""Parallel sweep executor: fan cases out across worker processes.

The figure functions in :mod:`repro.experiments.figures` call
:func:`repro.experiments.runner.run_case` serially — correct, but a full
report is dozens of independent (scene, policy, VTQ) cases and the
simulator is CPU-bound pure Python, so a sweep leaves every core but one
idle.  This module adds the missing layer:

* :class:`CaseSpec` names one case; :func:`cases_for_figure` enumerates
  the cases each paper figure will request (a mirror of the figure
  loops — an out-of-date entry degrades to a serial computation, never a
  wrong result).
* :func:`run_cases` executes a case list across worker processes
  (``REPRO_JOBS`` workers, default ``os.cpu_count()``), returning results
  in input order.  Workers run :func:`run_case_quarantined`, so a failing
  case becomes a recorded :class:`CaseFailure` in the parent; a crashed
  worker process is likewise converted instead of aborting the sweep.
  Parallel sweeps run on the supervised pool
  (:class:`repro.resilience.SupervisedPool`): per-worker heartbeats
  attribute crashes and hangs to the exact case that caused them, the
  pool rebuilds itself, and a case that destroys
  ``REPRO_MAX_CASE_CRASHES`` workers is poisoned (quarantined with a
  typed reason) instead of retried forever.
* Sweeps with a disk cache checkpoint their progress in a crash-safe
  journal (:class:`repro.resilience.SweepJournal`): a sweep killed
  mid-flight resumes from the last completed case — including
  quarantined failures — instead of re-enumerating.
  ``REPRO_SWEEP_JOURNAL=0`` disables journalling.
* :func:`warm_cases` is the integration point the CLI uses: fan the
  figure's cases out so every worker writes the shared disk cache, then
  let the unchanged figure code replay them as cache hits.  The per-case
  ``flock`` claim in the runner guarantees two workers never simulate the
  same key twice.

Each worker process keeps its own LRU scene/BVH cache (the module-level
cache in :mod:`repro.experiments.runner` is per process), so scenes are
built at most once per worker.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro import settings
from repro.core.config import VTQConfig
from repro.experiments.runner import (
    CaseFailure,
    ExperimentContext,
    record_failure,
    run_case_quarantined,
)
from repro.obs import diff_snapshots, registry as obs_registry

logger = logging.getLogger("repro.experiments.parallel")


@dataclass(frozen=True)
class CaseSpec:
    """One (scene, policy, VTQ overrides, GPU overrides) case of a sweep."""

    scene: str
    policy: str
    vtq: Optional[VTQConfig] = None
    # Name-sorted ((field, value), ...) GPUConfig deltas for this point —
    # the hashable form of run_case's gpu_overrides (see
    # repro.experiments.runner.normalize_overrides).
    gpu_overrides: Optional[Tuple[Tuple[str, object], ...]] = None

    def label(self) -> str:
        suffix = "" if self.vtq is None else "+vtqcfg"
        if self.gpu_overrides:
            suffix += "+" + ",".join(
                f"{name}={value}" for name, value in self.gpu_overrides
            )
        return f"{self.scene}/{self.policy}{suffix}"


def _worker(spec: CaseSpec, context: ExperimentContext):
    """Pool entry point: run one case quarantined, in a worker process."""
    return run_case_quarantined(
        spec.scene, spec.policy, context, vtq=spec.vtq,
        gpu_overrides=spec.gpu_overrides,
    )


# Public alias: the serving layer (repro.service.scheduler) dispatches
# jobs onto the same pool entry point the sweep executor uses.
case_worker = _worker


def case_worker_obs(spec: CaseSpec, context: ExperimentContext):
    """Pool entry point that also ships the case's metrics delta home.

    Worker processes accumulate metrics in their own process-local
    registry, invisible to the parent.  This wrapper snapshots the
    registry around the case and returns ``((metrics, failure), delta)``
    so the caller can :meth:`~repro.obs.MetricsRegistry.merge_snapshot`
    the delta — per-case wall time, cache events and bridged ``SimStats``
    counters all survive the process boundary.
    """
    reg = obs_registry()
    before = reg.snapshot()
    result = _worker(spec, context)
    return result, diff_snapshots(before, reg.snapshot())


def _busy_seconds(delta: Dict) -> float:
    """Worker busy time recorded in a metrics delta (case wall seconds)."""
    family = delta.get("repro_case_seconds")
    if not family:
        return 0.0
    return sum(sample["sum"] for sample in family.get("samples", {}).values())


def _observe_sweep(mode: str, elapsed: float, utilization: Optional[float]) -> None:
    reg = obs_registry()
    reg.histogram(
        "repro_sweep_seconds",
        "Wall time of one run_cases sweep",
        ("mode",),
    ).labels(mode=mode).observe(elapsed)
    if utilization is not None:
        reg.gauge(
            "repro_sweep_worker_utilization",
            "Worker busy-seconds / (elapsed * workers) of the last parallel sweep",
        ).labels().set(utilization)


def _count_case(status: str) -> None:
    obs_registry().counter(
        "repro_sweep_cases_total",
        "Sweep cases by outcome",
        ("status",),
    ).labels(status=status).inc()


def _resume_from_journal(
    journal, keys, cases, results, record_failures
) -> List[int]:
    """Fill ``results`` from journaled progress; returns pending indices."""
    from repro.resilience import deserialize_failure

    progress = journal.load() if journal is not None else {}
    pending: List[int] = []
    for index, spec in enumerate(cases):
        entry = progress.get(keys[index]) if keys else None
        if entry is None:
            pending.append(index)
            continue
        metrics, failure_data = entry
        failure = deserialize_failure(failure_data) if failure_data else None
        if failure is not None and record_failures:
            record_failure(failure)
        _count_case("resumed")
        results[index] = (metrics, failure)
        logger.info("resumed %s from sweep journal", spec.label())
    return pending


def run_cases(
    cases: Sequence[CaseSpec],
    context: ExperimentContext,
    jobs: Optional[int] = None,
    record_failures: bool = True,
    journal="auto",
) -> List[Tuple[Optional[Dict], Optional[CaseFailure]]]:
    """Run every case, fanning out across processes; results in input order.

    Each result is the ``(metrics, failure)`` pair of
    :func:`run_case_quarantined`.  Failures (including a worker process
    dying outright) are recorded in the parent via
    :func:`record_failure` unless ``record_failures`` is False (cache
    warming passes False so the figure replay records them once, in
    figure order).

    Progress checkpoints into a :class:`repro.resilience.SweepJournal`
    (``journal="auto"``; pass ``None`` to disable, or a journal instance
    to share one): a sweep killed mid-flight resumes completed cases —
    successes *and* quarantined failures — from the journal instead of
    re-resolving them.  A completed sweep deletes its journal.
    """
    from repro.resilience import SweepJournal, serialize_failure

    cases = list(cases)
    if not cases:
        return []
    if jobs is None:
        jobs = settings.get("REPRO_JOBS")
    jobs = int(jobs)
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0 = serial, no pool), got {jobs}")
    if journal == "auto":
        journal = SweepJournal.for_cases(cases, context)
    keys: Optional[List[str]] = None
    if journal is not None:
        from repro.experiments.runner import case_key_for

        keys = [
            case_key_for(
                spec.scene, spec.policy, context, spec.vtq, spec.gpu_overrides
            )
            for spec in cases
        ]

    results: List[Optional[Tuple[Optional[Dict], Optional[CaseFailure]]]]
    results = [None] * len(cases)
    pending = _resume_from_journal(journal, keys, cases, results, record_failures)

    def checkpoint(index: int, metrics, failure) -> None:
        if journal is not None:
            journal.record(
                keys[index], metrics,
                serialize_failure(failure) if failure is not None else None,
            )

    try:
        if pending:
            # jobs == 0 is the explicit serial mode; jobs == 1 degenerates
            # to it too (a one-worker pool would only add overhead).
            workers = min(jobs, len(pending))
            if workers <= 1:
                _run_serial(
                    cases, pending, context, results, record_failures, checkpoint
                )
            else:
                _run_supervised(
                    cases, pending, context, results, record_failures,
                    checkpoint, workers,
                )
        if journal is not None:
            journal.complete()
    finally:
        if journal is not None:
            journal.close()
    return results  # type: ignore[return-value]


def _run_serial(
    cases, pending, context, results, record_failures, checkpoint
) -> None:
    start = time.perf_counter()
    for index in pending:
        spec = cases[index]
        try:
            metrics, failure = run_case_quarantined(
                spec.scene, spec.policy, context, vtq=spec.vtq,
                gpu_overrides=spec.gpu_overrides,
            )
        except Exception as exc:  # non-ReproError: mirror the pool path
            metrics = None
            failure = CaseFailure(
                scene=spec.scene,
                policy=spec.policy,
                error_type=type(exc).__name__,
                message=str(exc),
            )
            if record_failures:
                record_failure(failure)
        else:
            if failure is not None and not record_failures:
                # run_case_quarantined already recorded it; undo to
                # honor the caller (warming must not double-report).
                _unrecord(failure)
        _count_case("ok" if failure is None else "quarantined")
        results[index] = (metrics, failure)
        checkpoint(index, metrics, failure)
    _observe_sweep("serial", time.perf_counter() - start, None)


def _run_supervised(
    cases, pending, context, results, record_failures, checkpoint, workers
) -> None:
    """Parallel path on the supervised pool (crash/hang attribution)."""
    from repro.resilience import SupervisedPool

    start = time.perf_counter()
    pool = SupervisedPool(workers, context)
    done = 0

    def on_result(sub_index: int, outcome) -> None:
        nonlocal done
        index = pending[sub_index]
        metrics, failure = outcome
        _count_case("ok" if failure is None else "quarantined")
        results[index] = outcome
        checkpoint(index, metrics, failure)
        done += 1
        logger.info(
            "parallel sweep %d/%d %s%s",
            done, len(pending), cases[index].label(),
            "" if failure is None else f" [quarantined: {failure.error_type}]",
        )

    pool.run(
        [cases[index] for index in pending],
        on_result=on_result,
        record_failures=record_failures,
    )
    elapsed = time.perf_counter() - start
    _observe_sweep(
        "parallel", elapsed,
        pool.busy_seconds / (elapsed * workers) if elapsed > 0 else 0.0,
    )


def _unrecord(failure: CaseFailure) -> None:
    from repro.experiments import runner

    try:
        runner._FAILURES.remove(failure)
    except ValueError:  # pragma: no cover - already cleared elsewhere
        pass


def warm_cases(
    cases: Sequence[CaseSpec],
    context: ExperimentContext,
    jobs: Optional[int] = None,
) -> int:
    """Precompute cases into the shared disk cache; returns cases warmed.

    A no-op (returning 0) when the context bypasses the disk cache —
    workers could compute, but the parent could never read the results
    back, so serial execution is the honest choice there.  Failures are
    not recorded here: the figure replay encounters and records them in
    its own deterministic order.
    """
    cases = list(dict.fromkeys(cases))
    if not cases or not context.use_disk_cache:
        return 0
    results = run_cases(cases, context, jobs=jobs, record_failures=False)
    warmed = sum(1 for metrics, _failure in results if metrics is not None)
    logger.info("warmed %d/%d cases into the disk cache", warmed, len(cases))
    return warmed


# ---------------------------------------------------------------------------
# figure case enumeration (mirrors the loops in repro.experiments.figures)
# ---------------------------------------------------------------------------


def cases_for_figure(name: str, context: ExperimentContext) -> List[CaseSpec]:
    """The cases figure ``name`` will request, in a deterministic order.

    Mirrors the per-figure loops.  The contract is safe-by-construction:
    enumerating too few (or stale) cases only means the figure computes
    the difference serially on replay; results are identical either way.
    """
    from repro.experiments.figures import vtq_default

    scenes = context.scenes()
    vtq = vtq_default(context)
    specs: List[CaseSpec] = []

    def base(scene):
        specs.append(CaseSpec(scene, "baseline"))

    if name == "fig1":
        for scene in scenes:
            base(scene)
    elif name == "fig10":
        for scene in scenes:
            base(scene)
            specs.append(CaseSpec(scene, "prefetch"))
            specs.append(CaseSpec(scene, "vtq", vtq))
    elif name == "gaussian":
        from repro.scenes.gaussians import gaussian_scene_names, is_gaussian_scene

        gscenes = [s for s in scenes if is_gaussian_scene(s)]
        if not gscenes:
            gscenes = gaussian_scene_names()
        for scene in gscenes:
            base(scene)
            specs.append(CaseSpec(scene, "prefetch"))
            specs.append(CaseSpec(scene, "vtq", vtq))
    elif name == "fig11":
        scene = "LANDS" if "LANDS" in scenes else scenes[-1]
        base(scene)
        specs.append(CaseSpec(scene, "vtq", vtq.naive()))
    elif name == "fig12":
        for scene in scenes:
            base(scene)
            specs.append(CaseSpec(scene, "vtq", vtq.naive()))
            for t in (32, 64, 128):
                cfg = replace(vtq, queue_threshold=t, repack_enabled=False)
                specs.append(CaseSpec(scene, "vtq", cfg))
    elif name == "fig13":
        for scene in scenes:
            base(scene)
            specs.append(CaseSpec(scene, "vtq", replace(vtq, repack_enabled=False)))
            for t in (8, 16, 22):
                specs.append(CaseSpec(scene, "vtq", replace(vtq, repack_threshold=t)))
    elif name in ("fig14", "fig15", "sec65"):
        for scene in scenes:
            specs.append(CaseSpec(scene, "vtq", vtq))
    elif name == "fig16":
        ideal = replace(vtq, virtualization_overheads=False)
        for scene in scenes:
            specs.append(CaseSpec(scene, "vtq", vtq))
            specs.append(CaseSpec(scene, "vtq", ideal))
    elif name == "fig17":
        for scene in scenes:
            base(scene)
            specs.append(CaseSpec(scene, "vtq", vtq))
    # table1/table2/fig5 run no simulator cases.
    return specs


def cases_for_figures(
    names: Sequence[str], context: ExperimentContext
) -> List[CaseSpec]:
    """Deduplicated union of :func:`cases_for_figure` over ``names``."""
    merged: List[CaseSpec] = []
    for name in names:
        merged.extend(cases_for_figure(name, context))
    return list(dict.fromkeys(merged))
