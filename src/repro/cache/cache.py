"""Set-associative cache with LRU replacement and dirty bits.

Pure functional state: it holds recency and dirtiness and reports
evictions; timing lives in the core model and the memory system.  Each set
is a Python dict mapping tag -> dirty flag; dict insertion order provides
LRU for free (move-to-back on touch), which profiling showed is the
fastest pure-Python LRU for small associativities.  The core model's C
kernel reads and writes these dicts directly for every demand hit,
refreshing recency and dirtying an L1 line on a store hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import CacheConfig

__all__ = ["CacheStats", "SetAssocCache"]


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/eviction counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    fills: int = field(default=0)

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

    __slots__ = ("config", "name", "stats", "_sets", "_set_mask", "_off_bits", "_assoc")

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        config.validate()
        self.config = config
        self.name = name
        self.stats = CacheStats()
        self._sets: list[dict[int, bool]] = [{} for _ in range(config.num_sets)]
        self._set_mask = config.num_sets - 1
        self._off_bits = config.line_bytes.bit_length() - 1
        self._assoc = config.assoc

    # -- fill and eviction paths (demand hits: advance_fetch in _core.c) ------

    def probe(self, addr: int) -> bool:
        """Hit check without touching recency or stats."""
        tag = addr >> self._off_bits
        return tag in self._sets[tag & self._set_mask]

    def is_dirty(self, addr: int) -> bool:
        """Whether the resident line containing ``addr`` is dirty."""
        tag = addr >> self._off_bits
        return self._sets[tag & self._set_mask].get(tag, False)

    def fill(self, addr: int, *, dirty: bool = False) -> tuple[int, bool] | None:
        """Install the line containing ``addr`` as most-recently-used.

        Returns the evicted ``(line_address, was_dirty)`` if the set was
        full, else ``None``.  Filling an already-resident line just
        refreshes recency (and ORs the dirty flag).
        """
        tag = addr >> self._off_bits
        s = self._sets[tag & self._set_mask]
        if tag in s:
            s[tag] = s.pop(tag) or dirty
            return None
        evicted: tuple[int, bool] | None = None
        if len(s) >= self._assoc:
            victim_tag = next(iter(s))  # front of dict == LRU
            victim_dirty = s.pop(victim_tag)
            evicted = (victim_tag << self._off_bits, victim_dirty)
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.dirty_evictions += 1
        s[tag] = dirty
        self.stats.fills += 1
        return evicted

    def set_dirty(self, addr: int) -> bool:
        """Mark a resident line dirty; returns ``False`` if absent.

        Does NOT refresh recency: this is the writeback-update path (a
        dirty L1 victim merging into L2), not a demand use of the line.
        """
        tag = addr >> self._off_bits
        s = self._sets[tag & self._set_mask]
        if tag not in s:
            return False
        s[tag] = True  # in-place: insertion order (LRU position) unchanged
        return True

    def invalidate(self, addr: int) -> bool:
        """Drop the line containing ``addr``; returns whether it was present."""
        tag = addr >> self._off_bits
        return self._sets[tag & self._set_mask].pop(tag, None) is not None
