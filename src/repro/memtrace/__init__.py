"""repro.memtrace — explicit memory-trace capture & replay.

Record the memory transaction stream of one live render, then re-price
it through freshly configured L1/L2/DRAM models to get full ``SimStats``
for any memory-hierarchy-only configuration without re-running
traversal.  An opt-in tool (``repro trace``, ``repro render
--record-trace``): sweeps and cases never consult it.  See
``docs/MEMTRACE.md`` for the format, the replay-safety rules and the
store layout.
"""

from repro.memtrace.format import (
    MemTrace,
    SMTrace,
    load_trace,
    save_trace,
    trace_file_info,
)
from repro.memtrace.recorder import (
    RECORDABLE_POLICIES,
    TraceRecorder,
    trace_budget_bytes,
)
from repro.memtrace.replay import replay_trace
from repro.memtrace.safety import REPLAY_SAFE_GPU_FIELDS, ensure_replayable
from repro.memtrace.store import (
    ensure_trace,
    record_trace,
    store_trace,
    trace_dir,
    trace_key,
    trace_path,
    try_load_trace,
)

__all__ = [
    "MemTrace",
    "SMTrace",
    "load_trace",
    "save_trace",
    "trace_file_info",
    "RECORDABLE_POLICIES",
    "TraceRecorder",
    "trace_budget_bytes",
    "replay_trace",
    "REPLAY_SAFE_GPU_FIELDS",
    "ensure_replayable",
    "ensure_trace",
    "record_trace",
    "store_trace",
    "trace_dir",
    "trace_key",
    "trace_path",
    "try_load_trace",
]
