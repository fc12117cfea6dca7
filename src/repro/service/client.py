"""Synchronous client for the simulation service.

The server is asyncio; clients don't need to be.  One request is one
short-lived connection: open the socket, write a JSON line, read the
JSON reply, close.  That keeps the client free of connection-state
bookkeeping and makes it trivially safe to use from scripts, tests and
the CLI.  A server-side rejection comes back as
:class:`repro.errors.ServiceError` (admission rejections as
:class:`repro.errors.AdmissionRejected` with the server's reason tag
and, for load rejections, its ``retry_after_s`` backoff hint).

Failure handling is typed, not hopeful:

* **Idempotent verbs** (:data:`IDEMPOTENT_OPS` — status/result/health/
  jobs/metrics) retry transport failures under the unified
  :class:`repro.resilience.RetryPolicy`: a connection that never
  reached the server (:class:`~repro.errors.ServiceUnavailable`) is
  safe to repeat, so a flaky socket no longer fails a status poll.
* **``submit`` stays single-shot** — blindly resubmitting could
  duplicate a job — but its failures are classified: a
  ``ServiceUnavailable`` (``retryable=True``) means the submission
  certainly never arrived and the caller may resubmit; any other
  ``ServiceError`` means the outcome is unknown (or a deliberate
  rejection) and the caller should check ``jobs`` before retrying.
  :meth:`ServiceClient.submit_admitted` wraps the polite-retry loop for
  rejections that carry ``retry_after_s``.
"""

from __future__ import annotations

import socket
import time
from dataclasses import asdict
from typing import Dict, List, Optional, Sequence

from repro import faults
from repro.errors import (
    AdmissionRejected,
    CircuitOpen,
    ServiceError,
    ServiceUnavailable,
)
from repro.experiments.parallel import CaseSpec
from repro.resilience import CLIENT_POLICY, RetryPolicy
from repro.service import protocol
from repro.service.jobs import TERMINAL_STATES

#: Admission-rejection reason tags the server can reply with.
REJECTION_REASONS = (
    "queue-full", "client-quota", "tenant-quota", "draining",
    "circuit-open", "no-node",
)

#: Verbs a client may safely repeat after a transport failure.
#: ``register``/``heartbeat`` are idempotent by construction (both just
#: refresh the node's membership record), which is what lets worker
#: heartbeats ride the retry policy.
IDEMPOTENT_OPS = (
    "status", "result", "health", "jobs", "metrics",
    "register", "heartbeat", "nodes", "route",
)


class ServiceClient:
    """Talk to a running :class:`repro.service.server.SimulationServer`."""

    def __init__(
        self,
        endpoint: Optional[str] = None,
        timeout: float = 60.0,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self.endpoint = protocol.resolve_endpoint(endpoint)
        self.timeout = timeout
        self.retry_policy = retry_policy if retry_policy is not None else CLIENT_POLICY

    # -- transport -------------------------------------------------------------

    def _connect(self) -> socket.socket:
        try:
            if isinstance(self.endpoint, tuple):
                return socket.create_connection(
                    self.endpoint, timeout=self.timeout
                )
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            try:
                sock.connect(self.endpoint)
            except OSError:
                sock.close()
                raise
            return sock
        except OSError as exc:
            raise ServiceUnavailable(
                f"cannot reach service at {self.endpoint!r} ({exc}); "
                "is `repro serve` running?"
            ) from exc

    def _roundtrip(self, payload: Dict) -> Dict:
        """One connect/send/read cycle, with SOCKET_DROP fault hooks.

        The hook keys are phase-tagged (``<op>:connect`` fires before
        the request could reach the server, ``<op>:reply`` after it
        did), so chaos schedules can exercise both the retryable and the
        outcome-unknown failure classes deliberately.
        """
        op = str(payload.get("op"))
        if faults.should_fire(faults.SOCKET_DROP, f"{op}:connect") is not None:
            raise ServiceUnavailable(
                f"connection dropped before {op!r} was sent (injected fault)"
            )
        sock = self._connect()
        try:
            sock.sendall(protocol.encode(payload))
            if faults.should_fire(faults.SOCKET_DROP, f"{op}:reply") is not None:
                raise ServiceError(
                    f"connection dropped awaiting the {op!r} reply "
                    "(injected fault)"
                )
            with sock.makefile("rb") as stream:
                line = stream.readline()
        except OSError as exc:
            # The request may or may not have been consumed: outcome
            # unknown, so not marked retryable.
            raise ServiceError(f"service request failed: {exc}") from exc
        finally:
            sock.close()
        if not line:
            raise ServiceError("service closed the connection without replying")
        response = protocol.decode(line)
        if not response.get("ok"):
            raise self._response_error(response)
        return response

    @staticmethod
    def _response_error(response: Dict) -> ServiceError:
        message = response.get("error", "request failed")
        reason = response.get("reason", "error")
        retry_after = response.get("retry_after_s")
        if reason == "circuit-open":
            return CircuitOpen(message, retry_after_s=retry_after)
        if reason in REJECTION_REASONS:
            return AdmissionRejected(
                message, reason=reason, retry_after_s=retry_after
            )
        return ServiceError(message)

    def request(self, payload: Dict) -> Dict:
        """One logical request; raises on transport or server errors.

        Idempotent verbs retry transport-level failures
        (``ServiceUnavailable``) under the client's retry policy; all
        other verbs are single-shot.
        """
        if payload.get("op") in IDEMPOTENT_OPS:
            return self.retry_policy.call(
                lambda: self._roundtrip(payload),
                component="client",
                describe=str(payload.get("op")),
                classify=lambda exc: isinstance(exc, ServiceUnavailable),
            )
        return self._roundtrip(payload)

    # -- verbs -----------------------------------------------------------------

    def submit(
        self,
        scene: str,
        policy: str = "vtq",
        vtq=None,
        priority: int = 0,
        deadline_s: Optional[float] = None,
        client_id: Optional[str] = None,
        kind: str = "case",
        gpu_overrides=None,
        params: Optional[Dict] = None,
        tenant: Optional[str] = None,
    ) -> str:
        """Submit one case; returns the job id.

        Deliberately single-shot: an automatic resubmission could
        duplicate a job the server already admitted.  Failures are
        typed instead — a raised error with ``retryable=True``
        (``ServiceUnavailable``, or an ``AdmissionRejected`` carrying a
        ``retry_after_s`` hint) is safe to resubmit; anything else means
        the outcome is unknown or the rejection is a policy decision.
        ``gpu_overrides`` applies GPUConfig deltas to the case.
        ``kind="pareto"`` runs a whole surrogate-priced frontier sweep;
        ``params`` carries its ``run_pareto`` keyword arguments
        (validated at admission).
        """
        payload = {
            "op": "submit",
            "scene": scene,
            "policy": policy,
            "vtq": asdict(vtq) if vtq is not None and not isinstance(vtq, dict)
            else vtq,
            "priority": priority,
            "deadline_s": deadline_s,
            "client_id": client_id,
            "kind": kind,
            "gpu_overrides": (
                [list(pair) for pair in gpu_overrides] if gpu_overrides else None
            ),
            "params": params,
            "tenant": tenant,
        }
        return str(self.request(payload)["job_id"])

    def submit_batch(self, items: Sequence[Dict], **defaults) -> List[Dict]:
        """Submit many cases in one round trip (the ``batch`` verb).

        Each item is a submit-shaped dict (``scene`` required; ``policy``,
        ``vtq``, ``priority``, ... optional); ``defaults`` (``client_id``,
        ``tenant``, ``priority``, ``deadline_s``) apply to items that
        don't override them.  Admission is per item: the reply is a list
        aligned with ``items``, each entry ``{"ok": true, "job_id", ...}``
        or a typed ``{"ok": false, "error", "reason", ...}`` — one
        rejected item never poisons the rest.  The batch request itself
        is single-shot, like ``submit``.
        """
        payload = {"op": "batch", "items": [dict(item) for item in items]}
        payload.update({k: v for k, v in defaults.items() if v is not None})
        return list(self.request(payload)["results"])

    def submit_spec(self, spec: CaseSpec, **kwargs) -> str:
        kwargs.setdefault("gpu_overrides", spec.gpu_overrides)
        return self.submit(spec.scene, spec.policy, vtq=spec.vtq, **kwargs)

    def submit_admitted(
        self,
        spec: CaseSpec,
        max_wait_s: float = 30.0,
        poll_s: float = 0.25,
        **kwargs,
    ) -> str:
        """Submit, politely waiting out retryable rejections.

        A rejection carrying ``retry_after_s`` (full queue, client
        quota, open circuit) is retried after honoring the server's
        hint, until ``max_wait_s`` is exhausted — then the last
        rejection propagates.  Non-retryable failures propagate
        immediately.
        """
        deadline = time.monotonic() + max_wait_s
        while True:
            try:
                return self.submit_spec(spec, **kwargs)
            except AdmissionRejected as exc:
                if exc.retry_after_s is None:
                    raise
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise
                time.sleep(min(max(float(exc.retry_after_s), poll_s), remaining))

    def status(self, job_id: str) -> Dict:
        return self.request({"op": "status", "job_id": job_id})["job"]

    def result(self, job_id: str) -> Dict:
        return self.request({"op": "result", "job_id": job_id})["job"]

    def cancel(self, job_id: str) -> Dict:
        return self.request({"op": "cancel", "job_id": job_id})

    def drain(self, stop: bool = False) -> Dict:
        return self.request({"op": "drain", "stop": stop})

    def health(self) -> Dict:
        return self.request({"op": "health"})

    def metrics(self, format: str = "prometheus"):
        """The server's metrics: Prometheus text, or a snapshot dict when
        ``format="json"`` (see ``docs/OBSERVABILITY.md``)."""
        if format == "json":
            return self.request({"op": "metrics", "format": "json"})["metrics"]
        return str(self.request({"op": "metrics"})["text"])

    # -- fleet verbs -----------------------------------------------------------

    def register_node(self, node_id: str, endpoint: str, slots: int = 1) -> Dict:
        """Register (or refresh) a worker node with the head server."""
        return self.request(
            {
                "op": "register",
                "node_id": node_id,
                "endpoint": endpoint,
                "slots": slots,
            }
        )

    def heartbeat(self, node_id: str) -> Dict:
        return self.request({"op": "heartbeat", "node_id": node_id})

    def deregister_node(self, node_id: str) -> bool:
        return bool(
            self.request({"op": "deregister", "node_id": node_id})["removed"]
        )

    def nodes(self) -> List[Dict]:
        """The head's fleet registry snapshot."""
        return list(self.request({"op": "nodes"})["nodes"])

    def route(self, scene: str) -> Dict:
        """Where the head would route ``scene``'s next job (non-consuming)."""
        return self.request({"op": "route", "scene": scene})

    def jobs(self, state: Optional[str] = None) -> List[Dict]:
        payload: Dict = {"op": "jobs"}
        if state is not None:
            payload["state"] = state
        return list(self.request(payload)["jobs"])

    def wait(
        self,
        job_ids: Sequence[str],
        timeout: float = 300.0,
        poll_s: float = 0.05,
    ) -> List[Dict]:
        """Poll until every job is terminal; their full records, in order.

        Raises ``TimeoutError`` listing the stragglers if the deadline
        passes first.
        """
        deadline = time.monotonic() + timeout
        records: Dict[str, Dict] = {}
        pending = list(job_ids)
        while pending:
            still = []
            for job_id in pending:
                record = self.result(job_id)
                if record["state"] in TERMINAL_STATES:
                    records[job_id] = record
                else:
                    still.append(job_id)
            pending = still
            if pending:
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"jobs still not terminal after {timeout:g}s: "
                        + ", ".join(pending)
                    )
                time.sleep(poll_s)
        return [records[job_id] for job_id in job_ids]
