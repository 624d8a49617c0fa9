"""Memory request record.

One :class:`MemoryRequest` represents a full cache-line read or write moving
between the last-level cache and DRAM.  Requests are created by the cache
hierarchy (L2 misses and dirty writebacks) and consumed by the memory
controller; completion is reported back through an optional callback.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.dram.address import DramCoord

__all__ = ["MemoryRequest"]


class MemoryRequest:
    """A line-granularity DRAM read or write.

    Attributes
    ----------
    addr:
        Line-aligned physical byte address.
    coord:
        Decoded DRAM coordinate (channel/bank/row/col), filled by the
        controller at enqueue time.  Assigning it also mirrors ``bank``
        and ``row`` into plain slots: the scheduler's candidate scans
        touch those two fields for every queued request at every
        scheduling point, and the direct slot read saves the ``coord``
        indirection on that path.
    core_id:
        Originating core — the identity every core-aware policy keys on.
    is_write:
        ``True`` for writebacks, ``False`` for line-fill reads.
    arrival_cycle:
        Cycle the request entered the controller buffer.
    seq:
        Controller-assigned monotone sequence number; the age tie-breaker
        that realises FCFS order.
    on_complete:
        Callback ``fn(request, done_cycle)`` invoked when read data is
        returned to the core side (reads only; writes complete silently).
    """

    __slots__ = (
        "addr",
        "_coord",
        "bank",
        "row",
        "core_id",
        "is_write",
        "arrival_cycle",
        "seq",
        "on_complete",
        "issue_cycle",
        "done_cycle",
        "row_hit",
        "span",
    )

    def __init__(
        self,
        addr: int,
        core_id: int,
        is_write: bool,
        arrival_cycle: int,
        on_complete: Optional[Callable[["MemoryRequest", int], None]] = None,
    ) -> None:
        self.addr = addr
        self.core_id = core_id
        self.is_write = is_write
        self.arrival_cycle = arrival_cycle
        self.on_complete = on_complete
        self._coord: DramCoord | None = None
        self.bank: int = -1
        self.row: int = -1
        self.seq: int = -1
        #: filled by the controller when the transaction is committed
        self.issue_cycle: int = -1
        self.done_cycle: int = -1
        self.row_hit: bool = False
        #: lifecycle span when this request was sampled for tracing
        #: (:mod:`repro.telemetry.spans`), else None
        self.span = None

    @property
    def coord(self) -> DramCoord | None:
        return self._coord

    @coord.setter
    def coord(self, c: DramCoord | None) -> None:
        self._coord = c
        if c is not None:
            self.bank = c.bank
            self.row = c.row

    @property
    def latency(self) -> int:
        """Arrival-to-data latency in cycles (valid once completed)."""
        if self.done_cycle < 0:
            raise ValueError("request has not completed")
        return self.done_cycle - self.arrival_cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "W" if self.is_write else "R"
        return (
            f"MemoryRequest({kind} core={self.core_id} addr={self.addr:#x} "
            f"t={self.arrival_cycle})"
        )
