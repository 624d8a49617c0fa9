"""Miss-status holding registers (MSHRs).

An MSHR file tracks outstanding line misses: each entry owns one in-flight
line address and a list of waiters (core-side callbacks) that merged onto
it.  Capacity models the Table 1 limits (32 data MSHRs per core, 64 at the
L2); a full file back-pressures the core's fetch stage, which is precisely
what bounds per-core memory-level parallelism in the paper's setup (and
what makes LREQ's 'pending request count' a bounded 1..64 quantity).
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
        "name",
        "_entries",
        "peak_occupancy",
        "merges",
        "allocations",
        "on_merge",
    )

    def __init__(self, capacity: int, name: str = "mshr") -> None:
        if capacity < 1:
            raise ValueError("MSHR capacity must be >= 1")
        self.capacity = capacity
        self.name = name
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

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    def outstanding(self, line_addr: int) -> bool:
        """Whether a miss for ``line_addr`` is already in flight."""
        return line_addr in self._entries

    def allocate(
        self, line_addr: int, waiter: Waiter | None = None, now: int = 0
    ) -> bool:
        """Track a new miss for ``line_addr`` observed at cycle ``now``.

        Returns ``True`` if a *new* entry was allocated (a request must be
        sent), ``False`` if the miss merged onto an existing entry.  Raises
        ``OverflowError`` if a new entry is needed but the file is full —
        callers must check :attr:`is_full` / :meth:`outstanding` first.
        """
        waiters = self._entries.get(line_addr)
        if waiters is not None:
            if waiter is not None:
                waiters.append(waiter)
            self.merges += 1
            if self.on_merge is not None:
                self.on_merge(line_addr, now)
            return False
        if self.is_full:
            raise OverflowError(f"{self.name} full ({self.capacity} entries)")
        self._entries[line_addr] = [waiter] if waiter is not None else []
        self.allocations += 1
        if len(self._entries) > self.peak_occupancy:
            self.peak_occupancy = len(self._entries)
        return True

    def complete(self, line_addr: int, now: int) -> int:
        """Retire the entry for ``line_addr`` and fire its waiters.

        Returns the number of waiters notified.
        """
        try:
            waiters = self._entries.pop(line_addr)
        except KeyError:
            raise KeyError(f"{self.name}: no outstanding miss for {line_addr:#x}") from None
        for w in waiters:
            # A ``(method, token)`` pair is the core model's closure-free
            # load waiter (see l2_miss in cpu/_core.c): the method takes
            # the load's ROB token instead of the line address.
            if type(w) is tuple:
                w[0](w[1], now)
            else:
                w(line_addr, now)
        return len(waiters)

    def clear(self) -> None:
        """Drop all entries without notifying waiters (reset between runs)."""
        self._entries.clear()
        self.peak_occupancy = 0
        self.merges = 0
        self.allocations = 0
