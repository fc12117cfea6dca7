"""Which configuration changes a recorded trace can be replayed across.

A trace records the *memory transaction stream* of one live run.  That
stream is a function of the traversal logic (purely functional in ray
states and the BVH), the BVH layout, and the engine's scheduling
decisions.  A configuration field is **replay-safe** when changing it
cannot change the recorded stream — only what each recorded transaction
*costs* — so re-pricing the stream through freshly configured cache and
DRAM models is exact:

* L2 geometry and latency (``l2_bytes``/``l2_assoc``/``l2_latency``),
  L1 associativity and hit latency, DRAM latency, the detailed-DRAM
  timing block, line-transfer and miss-serialization costs, the
  fixed-function intersection latency, and the gaussian leaf-cost knobs
  (``gaussian_alpha_cycles``/``gaussian_blend_cycles`` — trace format
  v2 records each step's test and leaf-lane counts, so replay reprices
  them) all sit *behind* the stream.

Everything else is **replay-unsafe** because it feeds the stream itself:

* ``l1_bytes`` sets ``treelet_bytes`` and therefore the BVH's treelet
  partition — a different BVH image, a different stream;
* ``line_bytes`` changes every line id in the stream;
* ``num_sms`` / ``warp_size`` / ``cta_threads`` / ``max_cta_per_sm`` /
  ``max_virtual_rays_per_sm`` change how rays are grouped and scheduled;
* raygen/shade/launch/sort/resume cycle costs move warp arrival times,
  which for the vtq engine reorders its phase interleaving;
* every ``VTQConfig`` field changes queueing decisions, and the policy
  itself selects a different engine.

Replay is exact across safe axes for **baseline** and **prefetch**
(their scheduler is re-run from the recorded warp genealogy).  The vtq
engine's phase schedule is timing-dependent, so its traces are pinned:
replayable bit-for-bit at the recorded configuration only.

:func:`ensure_replayable` is the one gate: ``repro trace replay`` and
:func:`repro.memtrace.replay_trace` call it before re-pricing anything.
Sweeps never consult it — they run every point live.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import Dict, Mapping

from repro.errors import TraceError
from repro.gpusim.config import GPUConfig

#: GPUConfig fields whose value the recorded stream does not depend on.
REPLAY_SAFE_GPU_FIELDS = frozenset(
    {
        "l1_assoc",
        "l1_latency",
        "l2_bytes",
        "l2_assoc",
        "l2_latency",
        "dram_latency",
        "dram_line_transfer",
        "miss_serialization_cycles",
        "intersection_latency",
        "gaussian_alpha_cycles",
        "gaussian_blend_cycles",
        "detailed_dram",
        "dram_channels",
        "dram_banks",
        "dram_row_bytes",
        "dram_t_cas",
        "dram_t_rcd",
        "dram_t_rp",
        "dram_base_cycles",
    }
)

#: Policies whose scheduler replay re-runs exactly across safe axes.
_CROSS_CONFIG_POLICIES = ("baseline", "prefetch")

_GPU_FIELD_NAMES = frozenset(f.name for f in dataclass_fields(GPUConfig))


def ensure_replayable(meta: Dict, overrides: Mapping[str, object]) -> None:
    """Validate a replay request against a trace's metadata.

    Raises :class:`TraceError` when the trace is partial, when an
    override names an unknown field, when a replay-unsafe field would
    actually change, or when a vtq trace is asked for any non-recorded
    configuration at all.
    """
    if meta.get("partial"):
        raise TraceError(
            "trace is partial (recording hit its size budget); "
            "partial traces cannot be replayed — re-record with a larger "
            "REPRO_TRACE_BUDGET_BYTES"
        )
    recorded_gpu = meta["gpu"]
    policy = meta.get("policy", "")
    changed = [
        name for name, value in overrides.items()
        if recorded_gpu.get(name) != value
    ]
    for name in overrides:
        if name not in _GPU_FIELD_NAMES:
            raise TraceError(f"unknown GPUConfig field {name!r}")
    if policy not in _CROSS_CONFIG_POLICIES:
        if changed:
            raise TraceError(
                f"{policy!r} traces are pinned to the recorded schedule and "
                f"replay bit-for-bit at the recorded configuration only; "
                f"cannot change {sorted(changed)} (record a fresh trace or "
                f"run live)"
            )
        return
    unsafe = [name for name in changed if name not in REPLAY_SAFE_GPU_FIELDS]
    if unsafe:
        raise TraceError(
            f"fields {sorted(unsafe)} are replay-unsafe (they change the "
            f"memory access stream, not just its cost); run those points live"
        )
