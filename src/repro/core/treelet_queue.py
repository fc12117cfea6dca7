"""The Treelet Count Table and Treelet Queue Table (Sections 4.2, 6.5).

``TreeletCountTable`` lives in the RT unit's treelet controller and maps a
treelet address to the number of rays waiting to traverse it.  It has a
fixed capacity (600 entries); inserting into a full table evicts the
smallest queue, whose rays are processed in ray-stationary mode later.

``TreeletQueueTable`` lives in the L1 cache and stores the actual ray ids
per treelet in 32-ray entries (Figure 9); duplicate treelet entries are
allowed when a queue exceeds 32 rays.  Entries beyond the table's
capacity spill to memory; the model counts each such push
(``queue_table_overflows``) but charges it no cycles or traffic.

Both tables keep running tallies (the count total, the occupied-entry
count), so a push or pop does not rescan every queue, as the fixed
hardware tables need not.  ``entries_used()`` and a sum over
``counts``, recomputed from scratch, remain the specification those
tallies are held to.

``TreeletQueues`` is the facade the RT unit uses: it keeps both tables
coherent and provides the operations the controller state machine needs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import VTQConfig
from repro.gpusim.stats import SimStats


class TreeletCountTable:
    """Fixed-capacity map: treelet -> waiting-ray count.

    Tracks its own high-water mark so Section 6.5's sizing claim (600
    entries suffice) is checkable against simulation.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.counts: "OrderedDict[int, int]" = OrderedDict()
        self.peak_entries = 0
        self.evictions = 0
        self._total = 0

    def increment(self, treelet: int, amount: int = 1) -> Optional[int]:
        """Add rays to a treelet's count.

        Returns the treelet evicted to make room (the one with the
        smallest count), or ``None``.  The caller must reroute the evicted
        treelet's rays to ray-stationary processing.
        """
        self._total += amount
        if treelet in self.counts:
            self.counts[treelet] += amount
            return None
        evicted = None
        if len(self.counts) >= self.capacity:
            evicted = min(self.counts, key=self.counts.get)
            self._total -= self.counts.pop(evicted)
            self.evictions += 1
        self.counts[treelet] = amount
        self.peak_entries = max(self.peak_entries, len(self.counts))
        return evicted

    def decrement(self, treelet: int, amount: int = 1) -> None:
        count = self.counts.get(treelet)
        if count is None:
            raise KeyError(f"treelet {treelet} not tracked")
        if count <= amount:
            del self.counts[treelet]
            self._total -= count
        else:
            self.counts[treelet] = count - amount
            self._total -= amount

    def largest(self) -> Tuple[Optional[int], int]:
        """``(treelet, count)`` of the fullest queue; ``(None, 0)`` if empty."""
        if not self.counts:
            return None, 0
        treelet = max(self.counts, key=self.counts.get)
        return treelet, self.counts[treelet]

    def first_entries(self) -> List[int]:
        """Treelets in table order (Section 4.4 drains queues in this order)."""
        return list(self.counts.keys())

    def total(self) -> int:
        """Rays counted over all entries (a running sum)."""
        return self._total

    def __len__(self) -> int:
        return len(self.counts)

    def __contains__(self, treelet: int) -> bool:
        return treelet in self.counts


class TreeletQueueTable:
    """Ray-id storage: treelet -> queued rays, in 32-ray entries (Figure 9)."""

    def __init__(self, capacity_entries: int, rays_per_entry: int = 32):
        if capacity_entries < 1 or rays_per_entry < 1:
            raise ValueError("capacities must be positive")
        self.capacity_entries = capacity_entries
        self.rays_per_entry = rays_per_entry
        self.queues: Dict[int, List] = {}
        self.peak_entries = 0
        self.overflow_events = 0
        # entries_used(), kept up to date by push and pop_front.
        self._used = 0

    def entries_used(self) -> int:
        """Occupied table entries: ceil(len/32) per queue, as in Figure 9."""
        per = self.rays_per_entry
        return sum((len(q) + per - 1) // per for q in self.queues.values())

    def push(self, treelet: int, ray) -> bool:
        """Append a ray id; returns False when the entry spilled to memory."""
        queue = self.queues.get(treelet)
        if queue is None:
            queue = self.queues[treelet] = []
        if len(queue) % self.rays_per_entry == 0:
            # The ray opens a new entry: the last one (if any) is full.
            self._used += 1
            if self._used > self.peak_entries:
                self.peak_entries = self._used
        queue.append(ray)
        if self._used > self.capacity_entries:
            self.overflow_events += 1
            return False
        return True

    def pop_front(self, treelet: int, count: int) -> List:
        """Dequeue up to ``count`` rays from a treelet's queue (FIFO)."""
        queue = self.queues.get(treelet)
        if not queue:
            return []
        per = self.rays_per_entry
        before = (len(queue) + per - 1) // per
        if count >= len(queue):
            del self.queues[treelet]
            self._used -= before
            return queue
        taken = queue[:count]
        del queue[:count]  # shifted in place, not copied to a new list
        self._used -= before - (len(queue) + per - 1) // per
        return taken

    def queue_length(self, treelet: int) -> int:
        return len(self.queues.get(treelet, ()))

    def __contains__(self, treelet: int) -> bool:
        return treelet in self.queues


class TreeletQueues:
    """Coherent facade over both tables plus the evicted-ray stray pool."""

    def __init__(self, config: VTQConfig, stats: SimStats):
        self.config = config
        self.stats = stats
        self.count_table = TreeletCountTable(config.count_table_entries)
        self.queue_table = TreeletQueueTable(
            config.queue_table_entries, config.rays_per_queue_entry
        )
        # Rays whose queue was evicted from the count table: processed in
        # ray-stationary mode (Section 6.5's eviction policy).
        self.stray: List = []

    # -- insertion ------------------------------------------------------------

    def push(self, treelet: int, ray) -> None:
        self.stats.treelet_queue_pushes += 1
        evicted = self.count_table.increment(treelet)
        if evicted is not None:
            self.stats.count_table_evictions += 1
            # An eviction moves rays to the stray pool; they are still
            # queued, so this is neither a push nor a pop.
            self.stray.extend(self.queue_table.pop_front(evicted, 1 << 30))
        if not self.queue_table.push(treelet, ray):
            self.stats.queue_table_overflows += 1

    # -- queries ----------------------------------------------------------------

    def largest(self) -> Tuple[Optional[int], int]:
        return self.count_table.largest()

    def total_rays(self) -> int:
        return self.count_table.total() + len(self.stray)

    def queue_length(self, treelet: int) -> int:
        return self.queue_table.queue_length(treelet)

    def empty(self) -> bool:
        return self.total_rays() == 0

    # -- removal ------------------------------------------------------------------

    def pop_warp(self, treelet: int, warp_size: int) -> List:
        """Up to a warp's worth of rays from one treelet's queue."""
        rays = self.queue_table.pop_front(treelet, warp_size)
        if rays and treelet in self.count_table:
            self.count_table.decrement(treelet, len(rays))
        self.stats.treelet_queue_pops += len(rays)
        return rays

    def pop_any(self, count: int) -> List:
        """Rays from underpopulated queues, table order (Section 4.4).

        Stray (evicted) rays drain first, then queues starting from the
        first count-table entry.
        """
        out: List = []
        stray = self.stray
        if stray:
            take = min(count, len(stray))
            out.extend(stray[:take])
            del stray[:take]  # shifted in place, not copied to a new list
            self.stats.treelet_queue_pops += take
        counts = self.count_table.counts
        while len(out) < count:
            remaining = count - len(out)
            drained = False
            # Iterating the live table is safe: the loop leaves right
            # after the one pop that can delete an entry.
            for treelet in counts:
                rays = self.pop_warp(treelet, remaining)
                if rays:
                    out.extend(rays)
                    drained = True
                    break
            if not drained:
                break
        return out


def area_overheads(config: VTQConfig, max_virtual_rays: int = 4096,
                   treelet_address_bits: int = 19) -> Dict[str, float]:
    """The storage math of Section 6.5, parameterized.

    Returns sizes in bytes for the count table, queue table and ray-data
    store.  With the paper's parameters this reproduces 2.2 KB / 6.29 KB /
    128 KB.
    """
    ray_count_bits = max(1, (max_virtual_rays - 1).bit_length())
    ray_id_bits = ray_count_bits
    count_entry_bits = treelet_address_bits + ray_count_bits
    count_table_bytes = config.count_table_entries * count_entry_bits / 8.0
    queue_entry_bits = (
        treelet_address_bits + config.rays_per_queue_entry * ray_id_bits
    )
    queue_table_bytes = config.queue_table_entries * queue_entry_bits / 8.0
    ray_data_bytes = max_virtual_rays * 32.0
    return {
        "count_table_bytes": count_table_bytes,
        "queue_table_bytes": queue_table_bytes,
        "ray_data_bytes": ray_data_bytes,
    }
