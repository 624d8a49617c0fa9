"""Logic-channel model: banks plus a shared data bus.

A *logic channel* in the paper is a ganged pair of physical channels with a
16 B transfer width (12.8 GB/s at 800 MT/s); scheduling happens per logic
channel.  The channel owns its banks' state and a data-bus occupancy
cursor.  The memory controller's scheduling point
(``FastMemoryController._fast_point``) resolves the timing of each line
transaction it commits against this state:

* closed bank:         ACT at bank-ready, CAS after tRCD
* open-row hit:        CAS at bank-ready
* open-row conflict:   PRE (tRP), then ACT, then CAS (open-page ablation)
* data burst:          starts at max(CAS + CL, bus free), lasts tBurst
* page policy tail:    +tWR for writes, +tRP when auto-precharging

and reports it as a :class:`TransactionTiming` to each of
``DramSystem.observers``.

Bank state is held as parallel ``array('q')`` vectors indexed by bank::

    ready[bank]     earliest cycle a new command may start (busy-until)
    open_row[bank]  row latched in the row buffer, -1 when precharged
    hits/acts/confs lifetime per-bank counters

and the channel's own cursors and counters are int64 slots
(:mod:`repro.util.counters`), so a scheduling point reads and writes them
in place, without chasing per-bank objects or making a Python int.  Rows
are never negative, so ``-1`` stands in for "no open row" in every
comparison the scheduler makes.

The command bus is not separately modelled (on DDR2 it is not the
bottleneck for 64 B-granule traffic); the data bus and bank timing are.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.counters import Counters, int64s

__all__ = ["TransactionTiming", "Channel"]


@dataclass(slots=True)
class TransactionTiming:
    """Resolved timing of one line transaction on a channel.

    A plain slotted dataclass (not frozen: frozen init goes through
    ``object.__setattr__`` per field).  Treat instances as immutable all
    the same.
    """

    #: cycle the column command issues
    cas_cycle: int
    #: first cycle of the data burst
    data_start: int
    #: cycle the data burst completes (read data available to controller)
    data_end: int
    #: whether the access hit the open row
    row_hit: bool
    #: cycle the bank could first start work (before any conflict
    #: precharge) — ``cas_cycle - start_cycle`` is the row-preparation
    #: cost the span-attribution layer charges to this transaction
    start_cycle: int = 0
    #: whether a different row was open and had to be precharged first
    conflict: bool = False


class Channel(Counters):
    """One logic channel: bank state vectors and a serialised data bus.

    Counters: ``bus_free_cycle`` (next cycle the data bus is free),
    ``busy_until`` (next cycle the channel scheduler may issue another
    transaction: issue is paced at one transaction per burst slot),
    ``transactions``, ``writes`` (write transactions committed; reads =
    transactions - writes) and ``data_cycles`` (cumulative cycles the data
    bus spent bursting; epoch deltas of this against wall cycles are the
    bus-utilisation time series).  The first ``_act_count`` (at most
    four) slots of ``_act_cycles`` hold the issue cycles of the last ACTs,
    oldest first, for tRRD / tFAW enforcement (kept only when those
    constraints are enabled).
    """

    __slots__ = ("index", "num_banks", "ready", "open_row", "hits", "acts",
                 "confs", "_act_cycles")
    FIELDS = ("bus_free_cycle", "busy_until", "transactions", "writes",
              "data_cycles", "_act_count")

    def __init__(self, index: int, num_banks: int) -> None:
        if num_banks < 1:
            raise ValueError("channel needs at least one bank")
        super().__init__()
        self.index = index
        self.num_banks = num_banks
        self.ready = int64s(num_banks)
        self.open_row = int64s(num_banks, -1)
        self.hits = int64s(num_banks)
        self.acts = int64s(num_banks)
        self.confs = int64s(num_banks)
        self._act_cycles = int64s(4)

    @property
    def _act_times(self) -> list[int]:
        """The issue cycles of the last (at most four) ACTs, oldest first."""
        return list(self._act_cycles[: self._act_count])

    # -- queries -------------------------------------------------------------

    def is_row_hit(self, bank: int, row: int) -> bool:
        """Would a request to (bank, row) hit the open row right now?"""
        return self.open_row[bank] == row

    # -- statistics ----------------------------------------------------------

    @property
    def total_activations(self) -> int:
        return sum(self.acts)

    @property
    def total_row_hits(self) -> int:
        return sum(self.hits)

    @property
    def total_conflicts(self) -> int:
        """Row-buffer conflicts (precharge forced before activate)."""
        return sum(self.confs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Channel({self.index}, banks={self.num_banks}, "
            f"bus_free={self.bus_free_cycle})"
        )
