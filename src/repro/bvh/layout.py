"""Serialized, byte-addressed BVH memory layout.

The timing simulators operate on *addresses*: every cache access is a byte
address into a flat BVH image.  The layout assigns addresses treelet by
treelet, so each treelet occupies one contiguous address range.  This
mirrors the paper's packing assumption (Section 6.5: treelets "can be
packed together in memory", so a treelet is identified by the most
significant 19 bits of its address).

Items inside a treelet are laid out in DFS order from the treelet root,
which keeps a depth-first traversal within a treelet spatially local even
at cache-line granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.bvh.treelets import TreeletPartition, item_sizes
from repro.bvh.wide import WideBVH


@dataclass(frozen=True)
class LayoutConfig:
    """Byte-size parameters of the serialized BVH.

    Defaults approximate the compressed-wide-node formats the paper builds
    on: a 4-wide interior node with quantized child boxes fits in 64 B, a
    leaf block stores a small header plus its triangles.

    Use :func:`compressed_layout_config` to derive a config whose leaf
    sizes come from a Benthin-style :class:`CompressedLeafCodec` — the
    format Vulkan-Sim repacks the Embree BVH into.
    """

    node_bytes: int = 64
    triangle_bytes: int = 48
    leaf_header_bytes: int = 16
    line_bytes: int = 32
    base_address: int = 0

    def __post_init__(self):
        if self.line_bytes <= 0 or (self.line_bytes & (self.line_bytes - 1)):
            raise ValueError("line_bytes must be a positive power of two")
        if self.node_bytes <= 0 or self.triangle_bytes <= 0:
            raise ValueError("node and triangle sizes must be positive")


def compressed_layout_config(codec=None, base: "LayoutConfig" = None) -> "LayoutConfig":
    """A LayoutConfig whose leaf sizes come from a compressed-leaf codec.

    This is the Benthin et al. (HPG 2018) layout the paper's methodology
    uses: triangle data quantized per leaf, shrinking leaf blocks and
    therefore fitting more geometry per treelet.
    """
    from dataclasses import replace as _replace

    from repro.bvh.compressed import CompressedLeafCodec

    codec = codec or CompressedLeafCodec()
    base = base or LayoutConfig()
    return _replace(
        base,
        triangle_bytes=codec.triangle_bytes(),
        leaf_header_bytes=codec.header_bytes,
    )


@dataclass
class BVHLayout:
    """Addresses of every BVH item plus treelet address ranges.

    Attributes
    ----------
    item_address / item_bytes:
        ``(num_items,)`` byte address and size per item (wide nodes first,
        then leaf blocks, same item-id space as :class:`TreeletPartition`).
    treelet_base / treelet_bytes:
        ``(T,)`` start address and byte length of each treelet's range.
    total_bytes:
        Size of the whole serialized image.
    config:
        The :class:`LayoutConfig` used.
    """

    item_address: np.ndarray
    item_bytes: np.ndarray
    treelet_base: np.ndarray
    treelet_sizes: np.ndarray
    total_bytes: int
    config: LayoutConfig

    def item_lines(self, item: int) -> range:
        """Cache-line ids touched when fetching item ``item`` entirely."""
        start = int(self.item_address[item])
        end = start + int(self.item_bytes[item])
        line = self.config.line_bytes
        return range(start // line, (end + line - 1) // line)

    def treelet_lines(self, treelet: int) -> range:
        """Cache-line ids of the whole treelet ``treelet``."""
        start = int(self.treelet_base[treelet])
        end = start + int(self.treelet_sizes[treelet])
        line = self.config.line_bytes
        return range(start // line, (end + line - 1) // line)

    def treelet_of_address(self, address: int) -> int:
        """Treelet id owning byte ``address``.

        The per-address definition behind the prefetcher's per-line
        table (:class:`repro.bvh.scene_bvh.LineTreelets`).
        """
        idx = int(np.searchsorted(self.treelet_base, address, side="right")) - 1
        if idx < 0 or address >= self.treelet_base[idx] + self.treelet_sizes[idx]:
            raise ValueError(f"address {address} outside the BVH image")
        return idx

    def size_megabytes(self) -> float:
        return self.total_bytes / (1024.0 * 1024.0)


def build_layout(
    wide: WideBVH,
    partition: TreeletPartition,
    config: LayoutConfig = LayoutConfig(),
) -> BVHLayout:
    """Assign byte addresses to all items, treelet by treelet."""
    sizes = item_sizes(
        wide, config.node_bytes, config.triangle_bytes, config.leaf_header_bytes
    )
    num_items = len(sizes)
    addresses = np.full(num_items, -1, dtype=np.int64)
    treelet_base = np.zeros(partition.treelet_count, dtype=np.int64)
    treelet_sizes = np.zeros(partition.treelet_count, dtype=np.int64)

    # Items are serialized in the order the partitioner recorded them, which
    # is DFS order for the "pack" strategy and greedy-absorption order for
    # "subtree" — both traversal-coherent within a treelet.
    cursor = config.base_address
    for tid in range(partition.treelet_count):
        treelet_base[tid] = cursor
        for item in partition.treelet_items[tid]:
            addresses[item] = cursor
            cursor += int(sizes[item])
        treelet_sizes[tid] = cursor - treelet_base[tid]

    if np.any(addresses < 0):  # pragma: no cover - partition guarantees
        raise AssertionError("layout left unaddressed items")
    return BVHLayout(
        item_address=addresses,
        item_bytes=sizes,
        treelet_base=treelet_base,
        treelet_sizes=treelet_sizes,
        total_bytes=int(cursor - config.base_address),
        config=config,
    )


def address_ranges_disjoint(layout: BVHLayout) -> bool:
    """True when no two items overlap in the address space (test helper)."""
    order = np.argsort(layout.item_address)
    addr = layout.item_address[order]
    size = layout.item_bytes[order]
    return bool(np.all(addr[1:] >= addr[:-1] + size[:-1]))


def treelet_prefix_bits(layout: BVHLayout, budget_bytes: int) -> int:
    """How many address bits identify a treelet, per the paper's 6.5 math.

    With treelets packed contiguously at ``budget_bytes`` granularity, the
    treelet id is ``address >> log2(budget)``; the paper's example: 8 KB
    treelets in a 4 GB space need 19 bits.
    """
    if budget_bytes <= 0 or (budget_bytes & (budget_bytes - 1)):
        raise ValueError("budget must be a power of two for prefix addressing")
    address_bits = 32
    return address_bits - int(np.log2(budget_bytes))


def layout_summary(layout: BVHLayout, partition: TreeletPartition) -> dict:
    """Human-readable layout statistics (used by Table 2 reporting)."""
    return {
        "total_mb": layout.size_megabytes(),
        "treelets": partition.treelet_count,
        "mean_treelet_kb": float(np.mean(layout.treelet_sizes)) / 1024.0,
        "max_treelet_kb": float(np.max(layout.treelet_sizes)) / 1024.0,
        "lines": layout.total_bytes // layout.config.line_bytes,
    }
