"""Set-associative cache with LRU replacement and dirty bits.

Pure functional state: it holds recency and dirtiness and reports
evictions; timing lives in the core model and the memory system.  A cache
is one flat block: ``num_sets * assoc`` tags (``_tags``) and dirty flags
(``_dirty``), with each set's resident lines in its ``assoc`` consecutive
slots ordered from LRU to MRU and its line count in ``_count``.  The model
kernel (``cpu/_core.c``) holds buffer exports of these arrays and runs
every operation on them: every demand hit (moving the line to MRU,
dirtying an L1 line on a store hit), every fill and eviction (the victim
is the LRU slot), the L2 copy a dirty L1 victim dirties in place and the
L1 copy an L2 victim invalidates.  :meth:`SetAssocCache.lines` is the
read-only view of one set.
"""

from __future__ import annotations

from array import array

from repro.config import CacheConfig
from repro.util.counters import Counters, int64s

__all__ = ["CacheStats", "SetAssocCache"]


class CacheStats(Counters):
    """Hit/miss/eviction counters."""

    __slots__ = ()
    FIELDS = ("hits", "misses", "evictions", "dirty_evictions", "fills")

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class SetAssocCache:
    """One cache level.

    Parameters
    ----------
    config:
        Geometry (size, associativity, line size); validated on entry.
    name:
        Label for diagnostics ("L1D[2]", "L2", ...).
    """

    __slots__ = ("config", "name", "stats", "_tags", "_dirty", "_count",
                 "_set_mask", "_off_bits", "_assoc")

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        config.validate()
        self.config = config
        self.name = name
        self.stats = CacheStats()
        ways = config.num_sets * config.assoc
        self._tags = int64s(ways)
        self._dirty = array("B", bytes(ways))
        self._count = int64s(config.num_sets)
        self._set_mask = config.num_sets - 1
        self._off_bits = config.line_bytes.bit_length() - 1
        self._assoc = config.assoc

    def lines(self, index: int) -> list[tuple[int, bool]]:
        """Set ``index``'s resident ``(tag, dirty)`` lines, LRU first."""
        base = index * self._assoc
        end = base + self._count[index]
        return list(zip(self._tags[base:end], map(bool, self._dirty[base:end])))
