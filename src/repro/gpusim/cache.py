"""Cache models: LRU, fully-associative or set-associative, line granular.

The model tracks *which lines are resident*, not their contents — the
simulators fetch actual BVH data from the in-memory scene structures and
only ask the cache "would this access hit?".
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional


class Cache:
    """An LRU cache over line ids.

    Parameters
    ----------
    name:
        Label used in statistics ("l1", "l2").
    size_bytes / line_bytes:
        Capacity; ``size_bytes // line_bytes`` lines fit.
    assoc:
        Ways per set; ``None`` means fully associative (one set).
    reserved_bytes:
        Capacity carved out for a reserved region (the paper reserves part
        of the L2 for ray data); reserved capacity is unavailable to
        normal allocations.

    Set layout: ``_sets`` maps a set index (``line % num_sets``) to an
    ``OrderedDict`` of resident line id -> ``True`` in LRU order (oldest
    first), created on first use.  The memory system's batched paths
    (:mod:`repro.gpusim.memory`) read and update these sets directly,
    keeping ``accesses``/``hits``/``insertions``/``evictions`` exactly as
    the per-line methods here would, so that layout is a contract
    between the two modules.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        line_bytes: int,
        assoc: Optional[int] = None,
        reserved_bytes: int = 0,
    ):
        if size_bytes <= 0 or line_bytes <= 0:
            raise ValueError("cache and line sizes must be positive")
        if reserved_bytes < 0 or reserved_bytes >= size_bytes:
            raise ValueError("reserved_bytes must be in [0, size_bytes)")
        self.name = name
        self.line_bytes = line_bytes
        total_lines = (size_bytes - reserved_bytes) // line_bytes
        if total_lines < 1:
            raise ValueError("cache too small for even one line")
        if assoc is None:
            self.num_sets = 1
            self.assoc = total_lines
        else:
            if assoc < 1:
                raise ValueError("assoc must be >= 1")
            self.assoc = min(assoc, total_lines)
            self.num_sets = max(1, total_lines // self.assoc)
        self._sets: Dict[int, OrderedDict] = {}
        self.accesses = 0
        self.hits = 0
        self.insertions = 0
        self.evictions = 0

    # -- core operations ----------------------------------------------------

    def _set_of(self, line: int) -> OrderedDict:
        idx = line % self.num_sets
        s = self._sets.get(idx)
        if s is None:
            s = OrderedDict()
            self._sets[idx] = s
        return s

    def lookup(self, line: int) -> bool:
        """Non-allocating probe: hit updates LRU order, miss changes nothing."""
        self.accesses += 1
        s = self._set_of(line)
        if line in s:
            s.move_to_end(line)
            self.hits += 1
            return True
        return False

    def insert(self, line: int) -> Optional[int]:
        """Install ``line``, evicting the LRU line of its set if needed.

        Returns the evicted line id, or ``None``.
        """
        s = self._set_of(line)
        if line in s:
            s.move_to_end(line)
            return None
        victim = None
        if len(s) >= self.assoc:
            victim, _ = s.popitem(last=False)
            self.evictions += 1
        s[line] = True
        self.insertions += 1
        return victim

    def access(self, line: int) -> bool:
        """Probe and allocate on miss (the common read path)."""
        hit = self.lookup(line)
        if not hit:
            self.insert(line)
        return hit

    def contains(self, line: int) -> bool:
        """Residence check without touching statistics or LRU order."""
        return line in self._set_of(line)

    def absent(self, lines: Iterable[int]) -> List[int]:
        """The lines of ``lines`` not resident, in order.

        One probe pass over the sets, like :meth:`contains` per line:
        statistics and LRU order are untouched.
        """
        sets = self._sets
        if self.num_sets == 1:
            s = sets.get(0, ())
            return [line for line in lines if line not in s]
        num_sets = self.num_sets
        return [line for line in lines if line not in sets.get(line % num_sets, ())]

    def invalidate(self, line: int) -> bool:
        """Drop a line; True if it was resident."""
        s = self._set_of(line)
        if line in s:
            del s[line]
            return True
        return False

    def flush(self) -> None:
        """Empty the cache (statistics are kept)."""
        self._sets.clear()

    # -- bulk helpers -----------------------------------------------------------

    def insert_many(self, lines: Iterable[int]) -> int:
        """Install many lines (burst fill); returns how many were new."""
        if self.num_sets == 1:
            # Fully associative (the default L1): one set.
            s = self._set_of(0)
            lines = list(lines)
            burst = dict.fromkeys(lines, True)
            if len(burst) == len(lines) and s.keys().isdisjoint(burst):
                # Distinct lines, none resident (a treelet burst): the
                # per-line loop below would evict one line per insertion
                # past capacity, oldest first, so evict in bulk instead.
                new = len(burst)
                excess = len(s) + new - self.assoc
                if excess > 0:
                    self.evictions += excess
                    if new >= self.assoc:
                        # The burst alone fills the set; only its last
                        # ``assoc`` lines survive.
                        s.clear()
                        burst = dict.fromkeys(lines[new - self.assoc:], True)
                    else:
                        popitem = s.popitem
                        for _ in range(excess):
                            popitem(last=False)
                s.update(burst)
                self.insertions += new
                return new
        new = 0
        for line in lines:
            s = self._set_of(line)
            if line in s:
                s.move_to_end(line)
                continue
            if len(s) >= self.assoc:
                s.popitem(last=False)
                self.evictions += 1
            s[line] = True
            self.insertions += 1
            new += 1
        return new

    # -- introspection -----------------------------------------------------------

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets.values())

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.assoc

    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return 1.0 - self.hits / self.accesses

    def __repr__(self) -> str:
        return (
            f"Cache({self.name}, {self.capacity_lines} lines x {self.line_bytes}B, "
            f"sets={self.num_sets}, assoc={self.assoc})"
        )
