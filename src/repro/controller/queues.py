"""Controller request queues with per-core occupancy counters.

The paper's controller (Section 3.2) keeps a read queue and a write queue
inside one shared ``buffer_entries``-deep buffer, plus, per core, counters
of outstanding read and write requests.  Those counters are exactly what
LREQ and ME-LREQ consult, so they are maintained here, incrementally, rather
than recomputed by scanning.

Queues are small (64 entries), so plain lists with linear scans at
scheduling time are both simple and fast enough; profiling on the benchmark
workloads showed the scheduler scan is not the simulation bottleneck.
"""

from __future__ import annotations

from typing import Iterable

from repro.controller.request import MemoryRequest

__all__ = ["RequestQueues"]


class RequestQueues:
    """Shared read/write request buffer with per-core counters."""

    __slots__ = (
        "capacity",
        "num_cores",
        "reads",
        "writes",
        "reads_by_ch",
        "writes_by_ch",
        "pending_reads",
        "pending_writes",
        "occupancy",
        "_next_seq",
    )

    def __init__(self, capacity: int, num_cores: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        self.capacity = capacity
        self.num_cores = num_cores
        self.reads: list[MemoryRequest] = []
        self.writes: list[MemoryRequest] = []
        #: per-channel views of the two queues, maintained incrementally in
        #: age order (grown on demand as channels appear).  The scheduler
        #: consults one channel per scheduling point, so these spare it a
        #: full-buffer scan each time.  Treat as read-only outside this
        #: class; requests without a resolved ``coord`` are not indexed.
        self.reads_by_ch: list[list[MemoryRequest]] = []
        self.writes_by_ch: list[list[MemoryRequest]] = []
        #: outstanding read/write request counts per core (queue occupancy)
        self.pending_reads = [0] * num_cores
        self.pending_writes = [0] * num_cores
        #: total buffered requests — a plain counter, not a property: the
        #: full/space test runs on every access retry and must be O(1)
        self.occupancy = 0
        self._next_seq = 0

    # -- capacity ------------------------------------------------------------

    @property
    def is_full(self) -> bool:
        return self.occupancy >= self.capacity

    @property
    def free_slots(self) -> int:
        return self.capacity - self.occupancy

    # -- mutation ------------------------------------------------------------

    def add(self, req: MemoryRequest) -> None:
        """Insert ``req``, assigning its age sequence number.

        Raises
        ------
        OverflowError
            If the buffer is full — callers must check :attr:`is_full`
            first and apply back-pressure to the core.
        """
        if self.occupancy >= self.capacity:
            raise OverflowError("controller buffer full")
        if not 0 <= req.core_id < self.num_cores:
            raise ValueError(f"core_id {req.core_id} out of range")
        req.seq = self._next_seq
        self._next_seq += 1
        self.occupancy += 1
        if req.is_write:
            self.writes.append(req)
            self.pending_writes[req.core_id] += 1
        else:
            self.reads.append(req)
            self.pending_reads[req.core_id] += 1
        coord = req.coord
        if coord is not None:
            by_ch = self.writes_by_ch if req.is_write else self.reads_by_ch
            ch = coord.channel
            while len(by_ch) <= ch:
                by_ch.append([])
            by_ch[ch].append(req)

    def remove(self, req: MemoryRequest) -> None:
        """Remove a scheduled request and release its counter."""
        self.occupancy -= 1
        if req.is_write:
            self.writes.remove(req)
            self.pending_writes[req.core_id] -= 1
        else:
            self.reads.remove(req)
            self.pending_reads[req.core_id] -= 1
        coord = req.coord
        if coord is not None:
            by_ch = self.writes_by_ch if req.is_write else self.reads_by_ch
            by_ch[coord.channel].remove(req)

    # -- views ---------------------------------------------------------------

    def reads_for_channel(self, channel: int) -> list[MemoryRequest]:
        """Pending reads whose line maps to ``channel`` (age order)."""
        by_ch = self.reads_by_ch
        return list(by_ch[channel]) if channel < len(by_ch) else []

    def any_for_bank(self, channel: int, bank: int, row: int) -> bool:
        """Is any queued request (read or write) targeting this open row?

        This is the controller-managed page-policy query: keep the row open
        iff a queued hit exists.
        """
        if channel < len(self.reads_by_ch):
            for r in self.reads_by_ch[channel]:
                if r.bank == bank and r.row == row:
                    return True
        if channel < len(self.writes_by_ch):
            for w in self.writes_by_ch[channel]:
                if w.bank == bank and w.row == row:
                    return True
        return False

    def cores_with_reads(self) -> Iterable[int]:
        """Core ids that currently have at least one pending read."""
        return (i for i, n in enumerate(self.pending_reads) if n > 0)

    def __len__(self) -> int:
        return self.occupancy
