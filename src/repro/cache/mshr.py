"""Miss-status holding registers (MSHRs).

An MSHR file tracks outstanding line misses: each entry owns one in-flight
line address, a store-pending flag (a store merged onto the miss, so the
fill installs the line dirty) and the waiters (core-side callbacks) that
merged onto it, fired in arrival order.  Capacity models
the Table 1 limits (32 data MSHRs per core, 64 at the L2); a full file
back-pressures the core's fetch stage, which is precisely what bounds
per-core memory-level parallelism in the paper's setup (and what makes
LREQ's 'pending request count' a bounded 1..64 quantity).

The file is state only, in typed storage the model kernel holds buffer
exports of: live entries fill slots ``0 .. occupancy - 1`` of ``_lines``
and ``_stores``; the kernel keeps each entry's waiters itself, a kernel
core's as the core (plus a load's ROB slot), any other as the callable.
``CacheHierarchy._after_l2_miss`` allocates and merges entries, and
``CacheHierarchy._on_fill`` retires them (the last live entry moves into
the freed slot) and fires their waiters.
"""

from __future__ import annotations

from array import array
from typing import Callable

from repro.util.counters import Counters, int64s

__all__ = ["MshrFile"]


class MshrFile(Counters):
    """Fixed-capacity miss tracker with same-line merging.

    ``occupancy`` (live entries), ``peak_occupancy``, ``merges`` and
    ``allocations`` (lifetime count of new entries, the misses that went
    to memory) are counters.
    """

    __slots__ = ("capacity", "_lines", "_stores", "on_merge")
    FIELDS = ("occupancy", "peak_occupancy", "merges", "allocations")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("MSHR capacity must be >= 1")
        super().__init__()
        self.capacity = capacity
        self._lines = int64s(capacity)
        self._stores = array("B", bytes(capacity))
        #: optional observer ``fn(line_addr, now)`` fired when a miss
        #: merges onto an in-flight entry (span tracing hook; None costs
        #: one attribute test on the merge path only)
        self.on_merge: Callable[[int, int], None] | None = None

    @property
    def _entries(self) -> list[int]:
        """The live entries' lines (a snapshot)."""
        return list(self._lines[:self.occupancy])

    @property
    def store_pending(self) -> set[int]:
        """Lines of the live entries a store merged onto (a snapshot)."""
        n = self.occupancy
        return {line for line, s in zip(self._lines[:n], self._stores) if s}
