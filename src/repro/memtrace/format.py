"""On-disk format of memory traces.

A memory trace is a stored :class:`~repro.gpusim.soa.RenderPlan` plus
the metadata needed to replay it.  The plan already holds every memory
access a render makes — each ray's visited items (hence cache lines),
treelet crossings and sort key, per bounce — so a trace needs no
recorded line stream: replaying it is an ordinary render of the stored
plan (:func:`repro.memtrace.replay_trace`).

A trace file is one header line followed by a compressed npz payload::

    memtrace <version> <sha256-of-payload>\n
    <np.savez_compressed bytes>

The header makes the kind detectable from the first bytes (chrome
timelines, the *other* trace artifact this repo produces, start with
``{``), carries the format version, and checksums the payload the same
way the hardened experiment cache checksums its entries: any flipped
byte fails verification with a typed :class:`repro.errors.TraceError`
and the caller re-records.

The payload holds, per bounce ``b``, the :class:`TraceBatch` columns
(``b<b>_<column>``) and the ``slots`` array, plus ``radiance``.  JSON
metadata rides inside the npz as a ``uint8`` array: scene, scene scale,
setup geometry, seed, policy, VTQ config, the full GPU config, pixel
and sample counts, and the digest of the BVH layout the plan indexes.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.errors import TraceError
from repro.gpusim.soa import RenderPlan, TraceBatch

# Version 3: the payload is a render plan.
TRACE_VERSION = "3"
_MAGIC = b"memtrace "

#: The :class:`TraceBatch` columns a trace stores, in constructor order
#: (``sort_key`` is set after construction).
BATCH_COLUMNS = (
    "start", "item", "isleaf", "tests", "curwork", "cur_tre", "next_tre",
    "top_item", "chain_row", "chain_ptr", "chain_tre", "sort_key",
)

#: Metadata keys every trace carries.
META_KEYS = (
    "scene", "scale", "setup", "seed", "policy", "vtq", "gpu",
    "pixels", "spp", "bvh_digest",
)


@dataclass
class MemTrace:
    """A decoded memory trace: metadata plus the plan's arrays.

    ``batches[b]`` maps each of :data:`BATCH_COLUMNS` and ``"slots"`` to
    bounce ``b``'s array.
    """

    meta: Dict
    batches: List[Dict[str, np.ndarray]]
    radiance: np.ndarray

    @property
    def scene(self) -> str:
        return self.meta.get("scene", "")

    @property
    def policy(self) -> str:
        return self.meta.get("policy", "")

    def num_rays(self) -> int:
        return int(sum(len(b["slots"]) for b in self.batches))

    def num_visits(self) -> int:
        """Item visits: each ray's rows minus its retiring row."""
        return int(sum(len(b["item"]) - len(b["slots"]) for b in self.batches))


def trace_from_plan(plan: RenderPlan, meta: Dict) -> MemTrace:
    """The trace of ``plan`` (arrays shared, not copied)."""
    batches = []
    for batch, slots in zip(plan.batches, plan.slots):
        columns = {name: getattr(batch, name) for name in BATCH_COLUMNS}
        columns["slots"] = slots
        batches.append(columns)
    meta = dict(meta, pixels=plan.pixels, spp=plan.spp)
    return MemTrace(meta=meta, batches=batches, radiance=plan.radiance)


def plan_from_trace(trace: MemTrace, tables) -> RenderPlan:
    """Rebuild the render plan over a BVH's ``batch_tables()``."""
    batches = []
    for columns in trace.batches:
        batch = TraceBatch(*(columns[name] for name in BATCH_COLUMNS[:-1]), tables)
        batch.sort_key = columns["sort_key"]
        batches.append(batch)
    return RenderPlan(
        batches, [columns["slots"] for columns in trace.batches],
        trace.radiance, trace.meta["pixels"], trace.meta["spp"],
    )


# -- encode / decode -----------------------------------------------------------


def encode_trace(trace: MemTrace) -> bytes:
    """Serialize to header + checksummed compressed-npz bytes."""
    arrays = {
        "radiance": trace.radiance,
        "meta": np.frombuffer(
            json.dumps(trace.meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        ),
    }
    for b, columns in enumerate(trace.batches):
        for name, values in columns.items():
            arrays[f"b{b}_{name}"] = values
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    payload = buf.getvalue()
    digest = hashlib.sha256(payload).hexdigest()
    header = _MAGIC + f"{TRACE_VERSION} {digest}\n".encode("ascii")
    return header + payload


def _check_shapes(meta: Dict, batches, radiance: np.ndarray) -> None:
    """Refuse a payload whose arrays do not form a plan."""
    slots_total = int(meta["pixels"]) * int(meta["spp"])
    if radiance.shape != (slots_total, 3):
        raise ValueError(f"radiance shape {radiance.shape} != ({slots_total}, 3)")
    for b, columns in enumerate(batches):
        start = columns["start"]
        rays = len(columns["slots"])
        rows = len(columns["item"])
        if any(values.ndim != 1 for values in columns.values()):
            raise ValueError(f"bounce {b}: columns must be 1-D")
        if len(start) != rays + 1 or len(columns["sort_key"]) != rays:
            raise ValueError(f"bounce {b}: per-ray columns disagree on the ray count")
        if rays and (start[0] != 0 or start[-1] != rows or np.any(np.diff(start) < 1)):
            raise ValueError(f"bounce {b}: row offsets out of range")
        for name in ("isleaf", "tests", "curwork", "cur_tre", "next_tre", "top_item"):
            if len(columns[name]) != rows:
                raise ValueError(f"bounce {b}: column {name!r} has the wrong length")
        if len(columns["chain_ptr"]) != len(columns["chain_row"]) + 1:
            raise ValueError(f"bounce {b}: chain table is inconsistent")
        if rays and (columns["slots"].min() < 0 or columns["slots"].max() >= slots_total):
            raise ValueError(f"bounce {b}: slot out of range")


def decode_trace(data: bytes) -> MemTrace:
    """Parse and verify trace bytes; raises :class:`TraceError` on any defect."""
    if not data.startswith(_MAGIC):
        raise TraceError("not a memory trace (missing 'memtrace' header)")
    newline = data.find(b"\n")
    if newline < 0:
        raise TraceError("truncated memory trace: no header line")
    fields = data[:newline].decode("ascii", errors="replace").split()
    if len(fields) != 3:
        raise TraceError("malformed memory-trace header line")
    _magic, version, digest = fields
    if version != TRACE_VERSION:
        raise TraceError(
            f"memory-trace version {version!r} unsupported "
            f"(this build reads version {TRACE_VERSION!r})"
        )
    payload = data[newline + 1:]
    actual = hashlib.sha256(payload).hexdigest()
    if actual != digest:
        raise TraceError(
            f"memory-trace checksum mismatch: header says {digest[:12]}..., "
            f"payload hashes to {actual[:12]}..."
        )
    try:
        npz = np.load(io.BytesIO(payload), allow_pickle=False)
    except Exception as exc:
        raise TraceError(f"undecodable memory-trace payload: {exc}") from exc
    try:
        meta = json.loads(bytes(npz["meta"]).decode("utf-8"))
        missing = [key for key in META_KEYS if key not in meta]
        if missing:
            raise KeyError(f"metadata lacks {missing}")
        bounces = sum(1 for name in npz.files if name.endswith("_slots"))
        batches = [
            {name: npz[f"b{b}_{name}"] for name in BATCH_COLUMNS + ("slots",)}
            for b in range(bounces)
        ]
        radiance = npz["radiance"]
        _check_shapes(meta, batches, radiance)
    except (KeyError, ValueError, TypeError, OSError, EOFError,
            zipfile.BadZipFile, zlib.error) as exc:
        raise TraceError(f"incomplete memory-trace payload: {exc}") from exc
    return MemTrace(meta=meta, batches=batches, radiance=radiance)


def save_trace(trace: MemTrace, path) -> int:
    """Atomically write ``trace`` to ``path``; returns bytes written."""
    path = Path(path)
    data = encode_trace(trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return len(data)


def load_trace(path) -> MemTrace:
    """Read and verify a trace file; raises :class:`TraceError` on defects."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise TraceError(f"cannot read memory trace {path}: {exc}") from exc
    return decode_trace(data)


def trace_file_info(path) -> Dict:
    """What kind of trace a file is, plus a summary of its contents.

    Distinguishes the two trace artifacts this repo writes: *memory
    traces* (this module; replayable through ``repro trace replay``) and
    *chrome activity timelines* (``--trace-out``; viewable in a
    ``chrome://tracing``-compatible viewer).
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise TraceError(f"cannot read {path}: {exc}") from exc
    info: Dict = {"path": str(path), "bytes": len(data)}
    if data.startswith(_MAGIC):
        info["kind"] = "memory-trace"
        try:
            trace = decode_trace(data)
        except TraceError as exc:
            info["error"] = str(exc)
            return info
        meta = trace.meta
        info.update(
            version=TRACE_VERSION,
            scene=trace.scene,
            policy=trace.policy,
            num_sms=meta["gpu"].get("num_sms"),
            bounces=len(trace.batches),
            rays=trace.num_rays(),
            visits=trace.num_visits(),
        )
        return info
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        info["kind"] = "unknown"
        return info
    if isinstance(doc, dict) and "traceEvents" in doc:
        info["kind"] = "chrome-timeline"
        info["events"] = len(doc["traceEvents"])
        return info
    info["kind"] = "unknown"
    return info
