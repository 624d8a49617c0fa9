"""Controller request queues with per-core occupancy counters.

The paper's controller (Section 3.2) keeps a read queue and a write queue
inside one shared ``buffer_entries``-deep buffer, plus, per core, counters
of outstanding read and write requests.  Those counters are exactly what
LREQ and ME-LREQ consult, so they are maintained here, incrementally, rather
than recomputed by scanning.

Queues are small (64 entries), so plain lists of requests, scanned at
scheduling time, are both simple and fast enough.  The counters live in
typed storage the model kernel updates in place (:mod:`repro.util.counters`):
``occupancy`` and ``_next_seq`` are int64 slots and ``pending_reads`` and
``pending_writes`` are ``array('q')`` vectors, read like a list of ints.

The queues are state only: ``MemoryController.enqueue`` adds a request
(assigning its age ``seq``) and the scheduling point removes the one it
commits; policies read the views and must treat them as read-only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.util.counters import Counters, int64s

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.request import MemoryRequest

__all__ = ["RequestQueues"]


class RequestQueues(Counters):
    """Shared read/write request buffer with per-core counters.

    ``occupancy`` (total buffered requests, an O(1) full/space test on
    every access retry) and ``_next_seq`` are counters.
    """

    __slots__ = (
        "capacity",
        "reads",
        "writes",
        "reads_by_ch",
        "writes_by_ch",
        "pending_reads",
        "pending_writes",
    )
    FIELDS = ("occupancy", "_next_seq")

    def __init__(self, capacity: int, num_cores: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        super().__init__()
        self.capacity = capacity
        self.reads: list[MemoryRequest] = []
        self.writes: list[MemoryRequest] = []
        #: per-channel views of the two queues, in age order (the
        #: controller sizes them to its channel count).  The scheduler
        #: consults one channel per scheduling point, so these spare it a
        #: full-buffer scan each time.
        self.reads_by_ch: list[list[MemoryRequest]] = []
        self.writes_by_ch: list[list[MemoryRequest]] = []
        #: outstanding read/write request counts per core (queue occupancy)
        self.pending_reads = int64s(num_cores)
        self.pending_writes = int64s(num_cores)
