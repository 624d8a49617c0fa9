"""Miss-status holding registers (MSHRs).

An MSHR file tracks outstanding line misses: each entry owns one in-flight
line address and a list of waiters (core-side callbacks) that merged onto
it.  Capacity models the Table 1 limits (32 data MSHRs per core, 64 at the
L2); a full file back-pressures the core's fetch stage, which is precisely
what bounds per-core memory-level parallelism in the paper's setup (and
what makes LREQ's 'pending request count' a bounded 1..64 quantity).

The file is state only: ``CacheHierarchy._after_l2_miss`` allocates and
merges entries, and ``CacheHierarchy._on_fill`` retires them and fires
their waiters.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["MshrFile"]

#: waiter callback signature: fn(line_addr, now)
Waiter = Callable[[int, int], None]


class MshrFile:
    """Fixed-capacity miss tracker with same-line merging."""

    __slots__ = (
        "capacity",
        "_entries",
        "peak_occupancy",
        "merges",
        "allocations",
        "on_merge",
    )

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("MSHR capacity must be >= 1")
        self.capacity = capacity
        #: line_addr -> list of waiters; entry exists while the miss is in flight
        self._entries: dict[int, list[Waiter]] = {}
        self.peak_occupancy = 0
        self.merges = 0
        #: lifetime count of new entries (misses that went to memory)
        self.allocations = 0
        #: optional observer ``fn(line_addr, now)`` fired when a miss
        #: merges onto an in-flight entry (span tracing hook; None costs
        #: one attribute test on the merge path only)
        self.on_merge: Callable[[int, int], None] | None = None

    @property
    def occupancy(self) -> int:
        return len(self._entries)
