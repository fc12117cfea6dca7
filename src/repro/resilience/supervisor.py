"""Supervised worker pool: crash *attribution*, hang detection, rebuild.

``concurrent.futures.ProcessPoolExecutor`` treats one dead worker as a
broken pool: every outstanding future fails with the same
``BrokenProcessPool``, so the sweep can't tell which case killed the
process, can't retry the innocent bystanders cheaply, and can't isolate
the culprit.  :class:`SupervisedPool` replaces it for sweeps with raw
``multiprocessing`` workers plus a per-worker **heartbeat file** — the
supervisor's source of truth for what each worker was doing when it
died:

* a worker writes ``{pid, state, index, label, beat_at}`` to its
  heartbeat before starting a case and after finishing it, so a dead
  process is attributed to the exact case it held;
* **crash** (process exits on its own) and **hang** (process alive but
  its case has outrun ``hang_timeout_s``; the supervisor kills it) are
  detected separately and produce separately-typed failures;
* the pool **rebuilds** — a replacement worker is spawned immediately —
  and the victim case is requeued, unless it has now destroyed
  ``max_case_crashes`` workers, in which case it is **poisoned**:
  quarantined with a typed :class:`CaseFailure` instead of being
  retried forever;
* workers are forked, so fault specs installed in the parent
  (:mod:`repro.faults`) are active in the children — the chaos harness
  depends on this.

Results, metric deltas and failure records flow back exactly as in the
executor path (:func:`repro.experiments.parallel.case_worker_obs`), so
a supervised sweep is byte-identical to a serial one.  Supervision
events land in ``repro_resilience_worker_*`` / ``_pool_rebuilds_total``
/ ``_poisoned_cases_total`` metrics.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import queue as queue_mod
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import faults, settings

logger = logging.getLogger("repro.resilience")

#: Exit code the WORKER_KILL fault uses, so tests can tell an injected
#: death from a genuine one.
KILL_EXIT_CODE = 11


def _observe(counter: str, help_text: str, **labels) -> None:
    from repro.obs import registry as obs_registry

    obs_registry().counter(
        f"repro_resilience_{counter}", help_text, tuple(sorted(labels))
    ).labels(**labels).inc()


# -- worker side -----------------------------------------------------------------


def _write_heartbeat(path: Path, state: str, index: Optional[int], label: str) -> None:
    """Atomically publish this worker's current assignment."""
    payload = {
        "pid": os.getpid(),
        "state": state,  # "idle" | "running"
        "index": index,
        "label": label,
        "beat_at": time.time(),
    }
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as handle:
        json.dump(payload, handle)
        handle.flush()
        os.fsync(handle.fileno())
    tmp.replace(path)


def _read_heartbeat(path: Path) -> Optional[Dict]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def _worker_main(worker_id: int, heartbeat_path: str, task_q, result_q, context) -> None:
    """Supervised worker loop: heartbeat, fault hooks, one case at a time.

    The heartbeat is written (and fsynced) *before* the fault hooks run,
    so even a worker that dies instantly leaves an attributable record.
    """
    from repro.experiments.parallel import case_worker_obs

    hb = Path(heartbeat_path)
    _write_heartbeat(hb, "idle", None, "")
    while True:
        task = task_q.get()
        if task is None:
            return
        index, spec, attempt = task
        label = spec.label()
        _write_heartbeat(hb, "running", index, label)
        hook_key = f"{label}#{attempt}"
        if faults.should_fire(faults.WORKER_KILL, hook_key) is not None:
            os._exit(KILL_EXIT_CODE)
        hang = faults.should_fire(faults.WORKER_HANG, hook_key)
        if hang is not None:
            # Simulate a stuck worker; the supervisor's hang watchdog is
            # expected to kill this process long before the sleep ends.
            time.sleep(float(hang.payload.get("hang_s", 3600.0)))
        result, obs_delta = case_worker_obs(spec, context)
        result_q.put((worker_id, index, result, obs_delta))
        _write_heartbeat(hb, "idle", None, "")


# -- supervisor side ---------------------------------------------------------------


class _Worker:
    """Supervisor-side handle for one worker process."""

    def __init__(self, worker_id: int, proc, heartbeat_path: Path):
        self.worker_id = worker_id
        self.proc = proc
        self.heartbeat_path = heartbeat_path

    def heartbeat(self) -> Optional[Dict]:
        return _read_heartbeat(self.heartbeat_path)


class SupervisedPool:
    """Run cases on supervised forked workers; see the module docstring.

    Parameters mirror the env knobs so tests can pin them directly:
    ``hang_timeout_s`` (``REPRO_HANG_TIMEOUT_S``) and
    ``max_case_crashes`` (``REPRO_MAX_CASE_CRASHES``).
    """

    def __init__(
        self,
        workers: int,
        context,
        *,
        heartbeat_dir: Optional[Path] = None,
        hang_timeout_s: Optional[float] = None,
        max_case_crashes: Optional[int] = None,
        poll_s: float = 0.05,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.context = context
        self.worker_count = workers
        self.hang_timeout_s = (
            hang_timeout_s
            if hang_timeout_s is not None
            else settings.get("REPRO_HANG_TIMEOUT_S")
        )
        self.max_case_crashes = (
            max_case_crashes
            if max_case_crashes is not None
            else settings.get("REPRO_MAX_CASE_CRASHES")
        )
        self.poll_s = poll_s
        self._mp = multiprocessing.get_context("fork")
        self._tempdir = None
        if heartbeat_dir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-heartbeat-")
            heartbeat_dir = Path(self._tempdir.name)
        heartbeat_dir.mkdir(parents=True, exist_ok=True)
        self.heartbeat_dir = heartbeat_dir
        self._next_worker_id = 0
        self.busy_seconds = 0.0
        self.rebuilds = 0

    # -- lifecycle --------------------------------------------------------------

    def _spawn_worker(self, task_q, result_q) -> _Worker:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        hb_path = self.heartbeat_dir / f"worker-{worker_id}.json"
        proc = self._mp.Process(
            target=_worker_main,
            args=(worker_id, str(hb_path), task_q, result_q, self.context),
            daemon=True,
        )
        proc.start()
        return _Worker(worker_id, proc, hb_path)

    # -- execution --------------------------------------------------------------

    def run(
        self,
        cases: Sequence,
        on_result: Optional[Callable[[int, Tuple], None]] = None,
        record_failures: bool = True,
    ) -> List[Tuple[Optional[Dict], Optional[object]]]:
        """Run every case; ``(metrics, failure)`` results in input order.

        ``on_result(index, (metrics, failure))`` fires as each case
        resolves (the sweep journal hooks in here).  Failure records are
        re-recorded in the parent unless ``record_failures`` is False —
        identical contracts to the executor path.
        """
        from repro.experiments.parallel import _busy_seconds
        from repro.experiments.runner import CaseFailure, record_failure
        from repro.obs import registry as obs_registry

        cases = list(cases)
        results: List[Optional[Tuple]] = [None] * len(cases)
        if not cases:
            return []

        task_q = self._mp.Queue()
        result_q = self._mp.Queue()
        for index, spec in enumerate(cases):
            task_q.put((index, spec, 0))

        workers = [
            self._spawn_worker(task_q, result_q)
            for _ in range(min(self.worker_count, len(cases)))
        ]
        unresolved = set(range(len(cases)))
        crash_counts: Dict[int, int] = {}
        attempts: Dict[int, int] = {index: 0 for index in unresolved}
        idle_polls = 0

        def resolve(index: int, metrics, failure) -> None:
            if index not in unresolved:
                return  # late duplicate (reconciliation re-ran a case)
            unresolved.discard(index)
            if failure is not None and record_failures:
                record_failure(failure)
            results[index] = (metrics, failure)
            if on_result is not None:
                on_result(index, (metrics, failure))

        def retry_or_poison(index: int, kind: str, detail: str) -> None:
            """Requeue a victim case, or poison it past the crash budget."""
            crash_counts[index] = crash_counts.get(index, 0) + 1
            spec = cases[index]
            if crash_counts[index] >= self.max_case_crashes:
                _observe(
                    "poisoned_cases_total",
                    "Cases quarantined after destroying too many workers",
                    kind=kind,
                )
                logger.warning(
                    "poisoned case %s after %d %s(s): quarantining",
                    spec.label(), crash_counts[index], kind,
                )
                resolve(
                    index,
                    None,
                    CaseFailure(
                        scene=spec.scene,
                        policy=spec.policy,
                        error_type="WorkerCrash" if kind == "crash" else "WorkerHang",
                        message=(
                            f"poisoned: case {spec.label()} {kind}ed "
                            f"{crash_counts[index]} worker(s) ({detail})"
                        ),
                    ),
                )
            else:
                attempts[index] += 1
                logger.warning(
                    "worker %s on case %s; requeueing (attempt %d)",
                    kind, spec.label(), attempts[index] + 1,
                )
                task_q.put((index, spec, attempts[index]))

        try:
            while unresolved:
                progressed = self._drain_results(
                    result_q, resolve, obs_registry, _busy_seconds
                )
                progressed |= self._reap_crashes(workers, unresolved, retry_or_poison, task_q, result_q)
                progressed |= self._kill_hung(workers, unresolved, retry_or_poison, task_q, result_q)
                if progressed:
                    idle_polls = 0
                    continue
                idle_polls += 1
                # Reconciliation: every worker idle, no results arriving,
                # yet cases remain unresolved — a task was lost in the
                # narrow window between queue claim and heartbeat write
                # (e.g. an external SIGKILL).  Cases are idempotent and
                # flock-claimed, so requeueing is always safe.
                if idle_polls >= 3 and self._all_idle(workers, unresolved):
                    for index in sorted(unresolved):
                        if attempts[index] < self.max_case_crashes + 1:
                            attempts[index] += 1
                            logger.warning(
                                "reconciling lost case %s (attempt %d)",
                                cases[index].label(), attempts[index] + 1,
                            )
                            task_q.put((index, cases[index], attempts[index]))
                        else:
                            spec = cases[index]
                            resolve(
                                index,
                                None,
                                CaseFailure(
                                    scene=spec.scene,
                                    policy=spec.policy,
                                    error_type="WorkerCrash",
                                    message=(
                                        f"case {spec.label()} lost repeatedly "
                                        "despite reconciliation; giving up"
                                    ),
                                ),
                            )
                    idle_polls = 0
        finally:
            self._shutdown(workers, task_q)
        return results  # type: ignore[return-value]

    # -- supervision passes -----------------------------------------------------

    def _drain_results(self, result_q, resolve, obs_registry, busy_fn) -> bool:
        progressed = False
        while True:
            try:
                worker_id, index, (metrics, failure), obs_delta = result_q.get(
                    timeout=0 if progressed else self.poll_s
                )
            except queue_mod.Empty:
                return progressed
            obs_registry().merge_snapshot(obs_delta)
            self.busy_seconds += busy_fn(obs_delta)
            resolve(index, metrics, failure)
            progressed = True

    def _reap_crashes(self, workers, unresolved, retry_or_poison, task_q, result_q) -> bool:
        progressed = False
        for slot, worker in enumerate(workers):
            if worker.proc.is_alive():
                continue
            beat = worker.heartbeat()
            exitcode = worker.proc.exitcode
            _observe(
                "worker_crashes_total",
                "Worker processes that died while supervised",
                exitcode=str(exitcode),
            )
            if beat and beat.get("state") == "running" and beat.get("index") in unresolved:
                retry_or_poison(
                    beat["index"], "crash",
                    f"worker exited with code {exitcode}",
                )
            else:
                logger.warning(
                    "worker %d died idle (exit %s); rebuilding pool",
                    worker.worker_id, exitcode,
                )
            self._remove_heartbeat(worker)
            workers[slot] = self._spawn_worker(task_q, result_q)
            self.rebuilds += 1
            _observe("pool_rebuilds_total", "Replacement workers spawned")
            progressed = True
        return progressed

    def _kill_hung(self, workers, unresolved, retry_or_poison, task_q, result_q) -> bool:
        progressed = False
        now = time.time()
        for slot, worker in enumerate(workers):
            if not worker.proc.is_alive():
                continue
            beat = worker.heartbeat()
            if (
                not beat
                or beat.get("state") != "running"
                or beat.get("index") not in unresolved
            ):
                continue
            if now - float(beat.get("beat_at", now)) <= self.hang_timeout_s:
                continue
            _observe(
                "worker_hangs_total",
                "Workers killed after exceeding the hang timeout",
            )
            logger.warning(
                "worker %d hung on %s (> %.1fs); killing",
                worker.worker_id, beat.get("label"), self.hang_timeout_s,
            )
            worker.proc.kill()
            worker.proc.join(timeout=5.0)
            retry_or_poison(
                beat["index"], "hang",
                f"no progress for {self.hang_timeout_s:.1f}s",
            )
            self._remove_heartbeat(worker)
            workers[slot] = self._spawn_worker(task_q, result_q)
            self.rebuilds += 1
            _observe("pool_rebuilds_total", "Replacement workers spawned")
            progressed = True
        return progressed

    def _all_idle(self, workers, unresolved) -> bool:
        for worker in workers:
            if not worker.proc.is_alive():
                return False
            beat = worker.heartbeat()
            if beat is None:
                return False
            if beat.get("state") == "running" and beat.get("index") in unresolved:
                return False
        return True

    # -- teardown ---------------------------------------------------------------

    def _remove_heartbeat(self, worker) -> None:
        try:
            worker.heartbeat_path.unlink()
        except OSError:
            pass

    def _shutdown(self, workers, task_q) -> None:
        for _ in workers:
            try:
                task_q.put_nowait(None)
            except queue_mod.Full:  # pragma: no cover - unbounded queue
                break
        for worker in workers:
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=2.0)
        task_q.close()
        task_q.cancel_join_thread()
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None
