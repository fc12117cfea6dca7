"""Which configuration changes a memory trace can be replayed across.

A trace is a stored render plan, and a plan depends on the GPU
configuration only through the BVH it indexes.  Two fields change that
BVH, so a replay refuses to change them:

* ``l1_bytes`` sets ``treelet_bytes`` and therefore the treelet
  partition;
* ``line_bytes`` sets every item's cache-line ids.

Every other :class:`~repro.gpusim.config.GPUConfig` field replays
exactly, for every policy: the replay is a live render of the stored
plan at the new configuration, which is what a fresh run does after
building the same plan.

:func:`layout_digest` names the BVH a plan was built over; a replay
checks the rebuilt BVH against the digest the trace carries, so a
trace from a different BVH build is refused rather than misread.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields as dataclass_fields
from typing import Mapping

import numpy as np

from repro.errors import TraceError
from repro.gpusim.config import GPUConfig

#: GPUConfig fields the stored plan depends on (through the BVH).
PLAN_GPU_FIELDS = ("l1_bytes", "line_bytes")

_GPU_FIELD_NAMES = frozenset(f.name for f in dataclass_fields(GPUConfig))


def ensure_replayable(meta: Mapping, overrides: Mapping[str, object]) -> None:
    """Refuse overrides that name unknown fields or change a plan field
    of the trace whose metadata is ``meta``."""
    recorded_gpu = meta["gpu"]
    for name in overrides:
        if name not in _GPU_FIELD_NAMES:
            raise TraceError(f"unknown GPUConfig field {name!r}")
    changed = sorted(
        name for name in PLAN_GPU_FIELDS
        if name in overrides and overrides[name] != recorded_gpu.get(name)
    )
    if changed:
        raise TraceError(
            f"fields {changed} change the BVH the trace's plan indexes; "
            f"record a trace at that configuration or run it live"
        )


def layout_digest(bvh) -> str:
    """Digest of everything the timing engines read from a BVH: item
    addresses and sizes, treelet ranges and membership, line size and
    primitive kind."""
    layout = bvh.layout
    h = hashlib.sha256(
        f"{bvh.prim_kind} {layout.config.line_bytes}".encode("ascii")
    )
    for array in (
        layout.item_address, layout.item_bytes, layout.treelet_base,
        layout.treelet_sizes, bvh.partition.treelet_of_item,
    ):
        values = np.ascontiguousarray(array, dtype=np.int64)
        h.update(len(values).to_bytes(8, "little") + values.tobytes())
    return h.hexdigest()[:24]
