"""Controller request queues with per-core occupancy counters.

The paper's controller (Section 3.2) keeps a read queue and a write queue
inside one shared ``buffer_entries``-deep buffer, plus, per core, counters
of outstanding read and write requests.  Those counters are exactly what
LREQ and ME-LREQ consult, so they are maintained here, incrementally, rather
than recomputed by scanning.

Queues are small (64 entries), so plain lists with linear scans at
scheduling time are both simple and fast enough; profiling on the benchmark
workloads showed the scheduler scan is not the simulation bottleneck.

The queues are state only: ``MemoryController.enqueue`` adds a request
(assigning its age ``seq``) and the scheduling point removes the one it
commits; policies read the views.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.request import MemoryRequest

__all__ = ["RequestQueues"]


class RequestQueues:
    """Shared read/write request buffer with per-core counters."""

    __slots__ = (
        "capacity",
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
        self.reads: list[MemoryRequest] = []
        self.writes: list[MemoryRequest] = []
        #: per-channel views of the two queues, in age order (the
        #: controller sizes them to its channel count).  The scheduler
        #: consults one channel per scheduling point, so these spare it a
        #: full-buffer scan each time.  Policies treat them as read-only.
        self.reads_by_ch: list[list[MemoryRequest]] = []
        self.writes_by_ch: list[list[MemoryRequest]] = []
        #: outstanding read/write request counts per core (queue occupancy)
        self.pending_reads = [0] * num_cores
        self.pending_writes = [0] * num_cores
        #: total buffered requests — a plain counter: the full/space test
        #: runs on every access retry and must be O(1)
        self.occupancy = 0
        self._next_seq = 0
