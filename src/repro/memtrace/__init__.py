"""repro.memtrace — memory traces as stored render plans.

A memory trace is a checksummed file holding one render's plan (every
ray's BVH visits, per bounce) plus the scene, setup and GPU config it
was made at.  Replaying it renders that plan live at the recorded
configuration, or at a changed one: every ``GPUConfig`` field except
``l1_bytes`` and ``line_bytes`` (which change the BVH) replays exactly,
for every policy.  An opt-in tool (``repro trace``, ``repro render
--record-trace``): sweeps and cases never consult it.  See
``docs/MEMTRACE.md`` for the file contents, the field rule and the
store layout.
"""

from repro.memtrace.format import (
    MemTrace,
    load_trace,
    save_trace,
    trace_file_info,
)
from repro.memtrace.safety import PLAN_GPU_FIELDS, ensure_replayable
from repro.memtrace.store import (
    ensure_trace,
    record_trace,
    replay_trace,
    store_trace,
    trace_dir,
    trace_key,
    trace_path,
    try_load_trace,
)

__all__ = [
    "MemTrace",
    "load_trace",
    "save_trace",
    "trace_file_info",
    "PLAN_GPU_FIELDS",
    "ensure_replayable",
    "ensure_trace",
    "record_trace",
    "replay_trace",
    "store_trace",
    "trace_dir",
    "trace_key",
    "trace_path",
    "try_load_trace",
]
