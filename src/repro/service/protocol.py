"""Wire protocol and shared configuration of the simulation service.

The server and client speak **line-delimited JSON** over a stream
socket: one request object per line, one response object per line, UTF-8
encoded.  A request always carries ``{"op": <verb>, ...}``; a response
always carries ``{"ok": true, ...}`` or
``{"ok": false, "error": <human message>, "reason": <machine tag>}``.
Keeping the framing this dumb means ``socat`` / ``nc`` can drive the
server by hand and the client needs nothing beyond the standard library.

The one exception to JSON framing: a line starting with an HTTP method
(``GET``/``POST``) reaches the server's built-in HTTP gateway —
``GET /metrics`` (Prometheus text), ``GET /health``, ``GET /jobs``,
``GET /jobs/<id>[/stream]`` (SSE progress), ``POST /submit`` and
``POST /batch`` — so a stock Prometheus scraper, ``curl`` or an
EventSource can point straight at the service's TCP endpoint.  The
JSON-native equivalents are the corresponding verbs.

Endpoint resolution (used by server, client and CLI alike):

* ``REPRO_SERVICE_SOCKET`` — path of a unix-domain socket (the default:
  ``<spool>/service.sock``).
* ``REPRO_SERVICE_TCP`` — ``host:port``; overrides the unix socket for
  platforms without ``AF_UNIX`` or for cross-host testing.  The server
  only ever binds localhost-style addresses; this is a lab service, not
  an internet-facing one.

The other ``REPRO_SERVICE_*`` knobs (queue bounds, retries, breakers,
heartbeats, dedupe) are declared in :data:`repro.settings.KNOBS` and
read with :func:`repro.settings.get` where they apply.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro import settings
from repro.errors import ServiceError

#: Every verb the server understands.  ``batch`` submits many cases in
#: one round trip; ``register``/``heartbeat``/``deregister`` are the
#: worker-node lifecycle; ``nodes`` and ``route`` expose the fleet
#: registry (membership, and where a scene would be routed).
OPS = (
    "submit", "status", "result", "cancel", "drain", "health", "jobs",
    "metrics", "batch", "register", "heartbeat", "deregister", "nodes",
    "route",
)

_SPOOL_DEFAULT = Path(__file__).resolve().parents[3] / ".cache" / "service"

Endpoint = Union[str, Tuple[str, int]]


def spool_dir() -> Path:
    """The job-spool directory (``REPRO_SERVICE_SPOOL`` overrides)."""
    return settings.get("REPRO_SERVICE_SPOOL") or _SPOOL_DEFAULT


def resolve_endpoint(explicit: Optional[str] = None) -> Endpoint:
    """Where the service listens / connects.

    ``explicit`` (a CLI flag) wins; a value containing ``":"`` with a
    numeric tail is a TCP ``host:port``, anything else a unix socket
    path.  Falls back to ``REPRO_SERVICE_TCP``, then
    ``REPRO_SERVICE_SOCKET``, then ``<spool>/service.sock``.
    """
    if explicit:
        parsed = _parse_tcp(explicit)
        return parsed if parsed is not None else explicit
    tcp = settings.get("REPRO_SERVICE_TCP")
    if tcp:
        parsed = _parse_tcp(tcp)
        if parsed is None:
            raise ServiceError(f"REPRO_SERVICE_TCP must be host:port, got {tcp!r}")
        return parsed
    sock = settings.get("REPRO_SERVICE_SOCKET")
    return str(sock if sock is not None else spool_dir() / "service.sock")


def _parse_tcp(value: str) -> Optional[Tuple[str, int]]:
    host, sep, port = value.rpartition(":")
    if not sep or "/" in value:
        return None
    try:
        return (host or "127.0.0.1", int(port))
    except ValueError:
        return None


# -- framing -----------------------------------------------------------------------


def encode(message: Dict) -> bytes:
    """One protocol line: compact JSON + newline."""
    return json.dumps(message, sort_keys=True).encode("utf-8") + b"\n"


def decode(line: bytes) -> Dict:
    """Parse one protocol line; :class:`ServiceError` on malformed input."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(f"malformed protocol line: {exc}") from exc
    if not isinstance(message, dict):
        raise ServiceError("protocol messages must be JSON objects")
    return message


def ok(**fields) -> Dict:
    response = {"ok": True}
    response.update(fields)
    return response


def error(message: str, reason: str = "error", **fields) -> Dict:
    response = {"ok": False, "error": message, "reason": reason}
    response.update(fields)
    return response
