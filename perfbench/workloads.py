"""The three workloads: ``cold_case``, ``warm_sweep`` and ``served_jobs``.

Each is a closed loop (a caller waits for every reply before sending the
next request) and returns a :class:`RunResult`.  Timed runs install no
wrappers; a traced run passes a :class:`~perfbench.spans.Tracer` and gets
per-layer spans.  See ``perfbench/README.md`` for why each workload
exists and which layer metrics should move its end-to-end numbers.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import pools, spans
from perfbench.common import DigestCheck, digest, median, percentile, pinned_env
from perfbench.hostspeed import Speed

BENCH_DIR = Path(__file__).resolve().parent
#: Completion poll interval of ``served_jobs`` clients.  Latency resolution
#: is this interval; ``ServiceClient.wait``'s 50 ms would swamp dedupe hits.
POLL_S = 0.005
CHILD_TIMEOUT_S = 170.0
JOB_TIMEOUT_S = 120.0
#: Set-up is sampled this many times per run (cold_case, served_jobs).
SETUP_SAMPLES = 3


Interval = Tuple[float, float]  # (start, end) in time.perf_counter() seconds


@dataclass
class RunResult:
    """What a run measured, as raw intervals; see :func:`end_to_end`."""

    #: (case id, start, end) of every operation.
    ops: List[Tuple[str, float, float]]
    #: Each set-up sample.
    setup: List[Interval]
    #: The measured phase, over which ``done`` operations finished.
    window: Interval
    done: int
    peak_rss_mb: float
    attempted: int
    failed: int
    wrong: List[str]
    #: Modelled counts of each distinct case the run saw (deterministic).
    sim: Dict[str, Dict] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)


def end_to_end(result: RunResult, speed: Optional[Speed]) -> Dict[str, float]:
    """The end-to-end metrics.  With ``speed``, every interval is first
    converted to seconds at reference host speed (see ``hostspeed``);
    ``op_s.p90`` is present only when the run holds enough samples."""
    def seconds(t0: float, t1: float) -> float:
        return speed.normalize(t0, t1) if speed is not None else t1 - t0

    op_s = [seconds(t0, t1) for _, t0, t1 in result.ops]
    out = {
        "setup_s": median([seconds(*w) for w in result.setup]),
        "ops_per_s": result.done / seconds(*result.window),
        "op_s.p50": median(op_s),
        "peak_rss_mb": result.peak_rss_mb,
    }
    try:
        out["op_s.p90"] = percentile(op_s, 90)
    except ValueError:
        pass
    return out


def _sim_summary(metrics: Dict) -> Dict:
    return {
        "node_visits": metrics["node_visits"],
        "cycles": metrics["cycles"],
        "prefetch_unused_fraction": metrics["prefetch_unused_fraction"],
    }


def _another_pass(passes: int, begin: float, seconds: float, traced: bool) -> bool:
    """Whole passes only: at least one, exactly one when traced, and
    otherwise another while one more (at the mean pass time) fits in
    ``seconds``."""
    if passes == 0:
        return True
    if traced:
        return False
    elapsed = time.perf_counter() - begin
    return elapsed + elapsed / passes <= seconds


# -- cold_case ----------------------------------------------------------------------

def run_cold(root: Path, workdir: Path, seed: int, seconds: float,
             check: DigestCheck, tracer: Optional[spans.Tracer]) -> RunResult:
    env = pinned_env(workdir / "cache-import", root)
    # Set-up every operation pays before its case: interpreter start and
    # imports.  The first start also compiles the checkout's bytecode.
    starts = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro.experiments.runner"],
                       env=env, cwd=root, check=True, timeout=CHILD_TIMEOUT_S)
        starts.append((t0, time.perf_counter()))

    order = pools.shuffled(pools.cold_pool(), seed, "cold")
    peak = 0.0
    failed = 0
    sim: Dict[str, Dict] = {}
    ops = []
    begin = time.perf_counter()
    passes = 0
    while _another_pass(passes, begin, seconds, tracer is not None):
        for i, case in enumerate(order):
            cache = workdir / f"cache-{passes}-{i}"
            cache.mkdir(parents=True)
            out = workdir / f"cold-{passes}-{i}.json"
            cmd = [sys.executable, str(BENCH_DIR / "cold_child.py"), case.id,
                   "1" if tracer is not None else "0", str(out)]
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=pinned_env(cache, root), cwd=root)
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                code = proc.wait()
            t1 = time.perf_counter()
            ops.append((case.id, t0, t1))
            payload = None
            if code == 0 and out.is_file():
                payload = json.loads(out.read_text())
            if payload is None or not check.check(case.id, payload["digest"]):
                failed += 1
                if payload is None:
                    check.wrong.append(case.id)
                continue
            peak = max(peak, payload["peak_rss_mb"])
            sim[case.id] = _sim_summary(payload)
            if tracer is not None:
                with tracer.operation(case.id, start=t0) as root_span:
                    tracer.add("process.start", t0, payload["imports_done"], root_span)
                    tracer.merge(payload["spans"], root_span)
                    tracer.add("process.exit", payload["exit_start"], t1, root_span)
                tracer.end[root_span] = t1
        passes += 1
    return RunResult(
        ops=ops, setup=starts, window=(begin, time.perf_counter()), done=len(ops),
        peak_rss_mb=peak, attempted=len(ops), failed=failed, wrong=list(check.wrong),
        sim=sim, extra={"passes": passes},
    )


# -- warm_sweep ---------------------------------------------------------------------

def run_warm(root: Path, workdir: Path, seed: int, seconds: float,
             check: DigestCheck, tracer: Optional[spans.Tracer]) -> RunResult:
    t_setup = time.perf_counter()
    import repro.memtrace  # noqa: F401  (import time is part of set-up)
    from repro.experiments import runner  # noqa: F401

    if tracer is None:
        return _warm(seed, seconds, check, None, t_setup)
    with tracer.operation("setup:imports", start=t_setup) as root_span:
        tracer.add("process.start", t_setup, time.perf_counter(), root_span)
    with spans.installed(tracer):
        return _warm(seed, seconds, check, tracer, t_setup)


def _warm(seed, seconds, check, tracer, t_setup) -> RunResult:
    import resource

    import repro.memtrace
    from repro.experiments import runner
    from repro.experiments.runner import ExperimentContext
    from repro.gpusim import soa
    from repro.gpusim.config import default_setup

    context = ExperimentContext(
        setup=default_setup(), scene_list=pools.SCENES, use_disk_cache=False
    )
    pool = pools.warm_pool()
    # Warm-up: every scene, BVH and plan, and the memory trace of every
    # cache-axis group, so timed passes do replay work only.
    warmups = [("scene", s, None) for s in pools.WARM_SCENES]
    warmups += sorted({("trace", c.scene, c.policy) for c in pool if c.l2 is not None})
    for kind, scene, policy in warmups:
        label = f"setup:{kind}:{scene}" + (f"/{policy}" if policy else "")
        with (tracer.operation(label) if tracer is not None else nullcontext()):
            if kind == "scene":
                scene_obj, bvh = runner.scene_and_bvh(scene, context.setup)
                soa.get_plan(scene_obj, bvh, context.setup, 0)
            else:
                repro.memtrace.ensure_trace(scene, policy, context)
    setup = (t_setup, time.perf_counter())

    order = pools.shuffled(pool, seed, "warm")
    failed = 0
    sim: Dict[str, Dict] = {}
    ops = []
    begin = time.perf_counter()
    passes = 0
    while _another_pass(passes, begin, seconds, tracer is not None):
        for case in order:
            vtq = pools.vtq_config(case.vtq, context)
            overrides = pools.gpu_overrides(case, context)
            t0 = time.perf_counter()
            try:
                with (tracer.operation(case.id) if tracer is not None else nullcontext()):
                    metrics = runner.run_case(case.scene, case.policy, context, vtq, overrides)
            except Exception:  # a failed case is counted, not fatal
                ops.append((case.id, t0, time.perf_counter()))
                print(f"warm_sweep: {case.id} failed:\n{traceback.format_exc()}", file=sys.stderr)
                failed += 1
                check.wrong.append(case.id)
                continue
            ops.append((case.id, t0, time.perf_counter()))
            if not check.check(case.id, digest(metrics)):
                failed += 1
            sim[case.id] = _sim_summary(metrics)
        passes += 1
    return RunResult(
        ops=ops, setup=[setup], window=(begin, time.perf_counter()), done=len(ops),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=len(ops), failed=failed, wrong=list(check.wrong), sim=sim,
        extra={"passes": passes},
    )


# -- served_jobs --------------------------------------------------------------------

def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _children(pid: int) -> List[int]:
    try:
        text = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    except OSError:
        return []
    return [int(p) for p in text.split()]


def _hwm_mb(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


class _Server:
    """A ``repro serve`` process with one simulation worker."""

    def __init__(self, root: Path, spool: Path, cache: Path,
                 span_dir: Optional[Path], log: Path):
        from repro.resilience import RetryPolicy
        from repro.service.client import ServiceClient

        self.endpoint = endpoint = f"127.0.0.1:{_free_port()}"
        serve = ["--socket", endpoint, "--spool", str(spool), "--jobs", "1"]
        if span_dir is None:
            cmd = [sys.executable, "-m", "repro", "serve"] + serve
        else:
            cmd = [sys.executable, str(BENCH_DIR / "serve_traced.py"), str(span_dir), "--"] + serve
        self.log = open(log, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=pinned_env(cache, root), cwd=root,
                                     stdout=self.log, stderr=subprocess.STDOUT)
        self.client = ServiceClient(endpoint, timeout=60.0,
                                    retry_policy=RetryPolicy(max_attempts=1))
        self.ready_s = self._wait_ready()

    def _wait_ready(self) -> float:
        from repro.errors import ServiceError

        deadline = self.started + 60.0
        while True:
            try:
                self.client.health()
                return time.perf_counter() - self.started
            except ServiceError:
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    self.stop()
                    raise RuntimeError("repro serve did not come up")
                time.sleep(POLL_S)

    def peak_rss_mb(self) -> float:
        """Server plus its worker processes (high-water marks)."""
        pid = self.proc.pid
        return _hwm_mb(pid) + sum(_hwm_mb(c) for c in _children(pid))

    def stop(self) -> None:
        """Stop the server and wait for it and its workers to end."""
        workers = _children(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = time.perf_counter() + 20
        for pid in workers:
            while _alive(pid):
                if time.perf_counter() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                time.sleep(0.01)
        self.log.close()


@dataclass
class _Sample:
    case: pools.Case
    t_submit: float
    t_reply: float
    t_seen: float
    record: Optional[Dict] = None


def _client_loop(server: _Server, client_id: str, stream, context, out: List[_Sample]):
    from repro.errors import ServiceError
    from repro.resilience import RetryPolicy
    from repro.service.client import ServiceClient
    from repro.service.jobs import TERMINAL_STATES

    client = ServiceClient(server.endpoint, timeout=60.0,
                           retry_policy=RetryPolicy(max_attempts=1))
    for sub in stream:
        case = sub.case
        vtq = pools.vtq_config(case.vtq, context)
        payload = {
            "op": "submit", "scene": case.scene, "policy": case.policy,
            "vtq": asdict(vtq) if vtq is not None else None,
            "client_id": client_id, "kind": "case",
        }
        t_submit = time.perf_counter()
        try:
            reply = client.request(payload)
            t_reply = time.perf_counter()
            state = reply.get("state")
            deadline = t_reply + JOB_TIMEOUT_S
            while state not in TERMINAL_STATES:
                if time.perf_counter() > deadline:
                    raise ServiceError(f"job {reply['job_id']} not terminal after {JOB_TIMEOUT_S} s")
                time.sleep(POLL_S)
                state = client.status(reply["job_id"])["state"]
            t_seen = time.perf_counter()
            sample = _Sample(case, t_submit, t_reply, t_seen)
            sample.record = client.result(reply["job_id"])
        except Exception:  # the client keeps going; the job counts as failed
            print(f"served_jobs: {case.id} failed:\n{traceback.format_exc()}", file=sys.stderr)
            now = time.perf_counter()
            sample = _Sample(case, t_submit, now, now)
        out.append(sample)


def _worker_spans(span_dir: Path) -> Dict[str, Dict]:
    """Worker job spans keyed like :func:`_job_key`."""
    found = {}
    for path in sorted(span_dir.glob("worker-*.jsonl")):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            found[json.dumps([record["scene"], record["policy"], record["vtq"]],
                             sort_keys=True)] = record["spans"]
    return found


def _job_key(case: pools.Case, context) -> str:
    vtq = pools.vtq_config(case.vtq, context)
    return json.dumps([case.scene, case.policy, asdict(vtq) if vtq is not None else None],
                      sort_keys=True)


def run_served(root: Path, workdir: Path, seed: int, seconds: float,
               check: DigestCheck, tracer: Optional[spans.Tracer]) -> RunResult:
    from repro.experiments.runner import ExperimentContext
    from repro.gpusim.config import default_setup

    context = ExperimentContext(setup=default_setup(), scene_list=pools.SCENES)
    span_dir = workdir / "spans"
    span_dir.mkdir(parents=True)
    # Set-up: server spawn until its first health reply, several times
    # (each on a fresh spool); the last server is the one measured.
    ready = []
    for attempt in range(SETUP_SAMPLES):
        server = _Server(root, workdir / f"spool-{attempt}", workdir / f"cache-{attempt}",
                         span_dir if tracer is not None else None,
                         workdir / "serve.log")
        ready.append((server.started, server.started + server.ready_s))
        if attempt < SETUP_SAMPLES - 1:
            server.stop()

    if tracer is not None:
        with tracer.operation("setup:server", start=server.started) as root_span:
            tracer.add("process.start", server.started, server.started + server.ready_s,
                       root_span)
        tracer.end[root_span] = server.started + server.ready_s

    streams = pools.served_streams(seed)
    samples: List[_Sample] = []
    per_client: List[List[_Sample]] = [[] for _ in streams]
    try:
        wall_offset = time.time() - time.perf_counter()
        begin = time.perf_counter()
        threads = [
            threading.Thread(target=_client_loop,
                             args=(server, f"client-{i}", stream, context, per_client[i]))
            for i, stream in enumerate(streams)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window = (begin, time.perf_counter())
        peak = server.peak_rss_mb()
    finally:
        server.stop()
    for part in per_client:
        samples.extend(part)

    failed = 0
    waits, execs, overheads = [], [], []
    deduped = 0
    sim: Dict[str, Dict] = {}
    worker = _worker_spans(span_dir) if tracer is not None else {}
    for s in samples:
        record = s.record
        latency = s.t_seen - s.t_submit
        ok = (record is not None and record["state"] == "done"
              and check.check(s.case.id, digest(record["result"])))
        if not ok:
            failed += 1
            if record is None or record["state"] != "done":
                check.wrong.append(s.case.id)
            continue
        sim.setdefault(s.case.id, _sim_summary(record["result"]))
        wait = exec_s = 0.0
        if record["deduped"]:
            deduped += 1
        else:
            wait = record["started_at"] - record["submitted_at"]
            exec_s = record["finished_at"] - record["started_at"]
            waits.append(wait)
            execs.append(exec_s)
        overheads.append(latency - wait - exec_s)
        if tracer is not None:
            with tracer.operation(s.case.id, start=s.t_submit) as root_span:
                tracer.add("service.submit", s.t_submit, s.t_reply, root_span)
                if not record["deduped"]:
                    submitted = record["submitted_at"] - wall_offset
                    started = record["started_at"] - wall_offset
                    finished = record["finished_at"] - wall_offset
                    tracer.add("service.queue_wait", submitted, started, root_span)
                    exec_span = tracer.add("service.exec", started, finished, root_span)
                    job_spans = worker.get(_job_key(s.case, context))
                    if job_spans is not None:
                        tracer.merge(job_spans, exec_span)
            tracer.end[root_span] = s.t_seen

    extra = {
        "poll_interval_s": POLL_S,
        "service.queue_wait_s.p50": median(waits) if waits else 0.0,
        "service.exec_s.p50": median(execs) if execs else 0.0,
        "service.overhead_s.p50": median(overheads) if overheads else 0.0,
        "service.dedupe_ratio": deduped / len(samples),
    }
    return RunResult(
        ops=[(s.case.id, s.t_submit, s.t_seen) for s in samples], setup=ready,
        window=window, done=len(samples) - failed, peak_rss_mb=peak,
        attempted=len(samples), failed=failed, wrong=list(check.wrong), sim=sim,
        extra=extra,
    )


WORKLOADS = {
    "cold_case": run_cold,
    "warm_sweep": run_warm,
    "served_jobs": run_served,
}
