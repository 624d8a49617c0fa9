"""Logic-channel model: banks plus a shared data bus.

A *logic channel* in the paper is a ganged pair of physical channels with a
16 B transfer width (12.8 GB/s at 800 MT/s); scheduling happens per logic
channel.  The channel owns its banks' state and a data-bus occupancy
cursor, and computes the full timing of one line transaction:

* closed bank:         ACT at bank-ready, CAS after tRCD
* open-row hit:        CAS at bank-ready
* open-row conflict:   PRE (tRP), then ACT, then CAS (open-page ablation)
* data burst:          starts at max(CAS + CL, bus free), lasts tBurst
* page policy tail:    +tWR for writes, +tRP when auto-precharging

Bank state is held as parallel integer lists indexed by bank::

    ready[bank]     earliest cycle a new command may start (busy-until)
    open_row[bank]  row latched in the row buffer, -1 when precharged
    hits/acts/confs lifetime per-bank counters

so a scheduling point reads it without chasing per-bank objects.  Rows are
never negative, so ``-1`` stands in for "no open row" in every comparison
the scheduler makes.

The command bus is not separately modelled (on DDR2 it is not the
bottleneck for 64 B-granule traffic); the data bus and bank timing are.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.config import DramTimingConfig
from repro.dram.bank import Bank

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


class Channel:
    """One logic channel: bank state arrays and a serialised data bus."""

    __slots__ = (
        "index",
        "timing",
        "num_banks",
        "ready",
        "open_row",
        "hits",
        "acts",
        "confs",
        "bus_free_cycle",
        "busy_until",
        "transactions",
        "writes",
        "data_cycles",
        "_act_times",
        "_t_rp",
        "_t_rcd",
        "_t_cl",
        "_t_burst",
        "_t_rrd",
        "_t_faw",
        "_t_wr",
        "_act_tracking",
    )

    def __init__(self, index: int, num_banks: int, timing: DramTimingConfig) -> None:
        if num_banks < 1:
            raise ValueError("channel needs at least one bank")
        self.index = index
        self.timing = timing
        self.num_banks = num_banks
        # DDR2 timing table flattened once at construction: execute() must
        # not chase attributes of the (non-slotted, frozen) config.
        self._t_rp = timing.t_rp
        self._t_rcd = timing.t_rcd
        self._t_cl = timing.t_cl
        self._t_burst = timing.t_burst
        self._t_rrd = timing.t_rrd
        self._t_faw = timing.t_faw
        self._t_wr = timing.t_wr
        #: whether activate-rate constraints are enabled at all (decided
        #: at config time, not re-tested per transaction)
        self._act_tracking = bool(timing.t_rrd or timing.t_faw)
        self.ready = [0] * num_banks
        self.open_row = [-1] * num_banks
        self.hits = [0] * num_banks
        self.acts = [0] * num_banks
        self.confs = [0] * num_banks
        #: next cycle the data bus is free
        self.bus_free_cycle: int = 0
        #: next cycle the channel scheduler may issue another transaction
        #: (we pace issue at one transaction per burst slot)
        self.busy_until: int = 0
        self.transactions: int = 0
        #: write transactions committed (reads = transactions - writes)
        self.writes: int = 0
        #: cumulative cycles the data bus spent bursting — epoch deltas of
        #: this against wall cycles are the bus-utilisation time series
        self.data_cycles: int = 0
        #: recent ACT issue cycles for tRRD / tFAW enforcement (kept only
        #: when those constraints are enabled)
        self._act_times: deque[int] = deque(maxlen=4)

    # -- queries -------------------------------------------------------------

    def is_row_hit(self, bank: int, row: int) -> bool:
        """Would a request to (bank, row) hit the open row right now?"""
        return self.open_row[bank] == row

    def reset(self) -> None:
        """Reset bus and all banks to the initial state (in place: the
        controller holds references to the bank arrays)."""
        self.bus_free_cycle = 0
        self.busy_until = 0
        self.transactions = 0
        self.writes = 0
        self.data_cycles = 0
        self._act_times.clear()
        nb = self.num_banks
        self.ready[:] = [0] * nb
        self.open_row[:] = [-1] * nb
        self.hits[:] = [0] * nb
        self.acts[:] = [0] * nb
        self.confs[:] = [0] * nb

    # -- scheduling ----------------------------------------------------------

    def execute(
        self,
        bank_idx: int,
        row: int,
        now: int,
        *,
        is_write: bool,
        keep_open: bool,
    ) -> TransactionTiming:
        """Commit one line transaction and return its resolved timing.

        The caller has already chosen *which* request to serve; this method
        only resolves *when* it completes, and advances the bank and bus
        state.  The memory controller inlines this body at its scheduling
        point (keep the two in sync); this method serves the command-log
        tests and the policy unit tests.
        """
        ready = self.ready
        open_row = self.open_row
        ready_cycle = ready[bank_idx]
        start = now if now > ready_cycle else ready_cycle
        bank_start = start
        hit = open_row[bank_idx] == row
        conflict = False
        if hit:
            cas = start
        else:
            if open_row[bank_idx] != -1:
                # Open-page conflict: precharge before the activate.
                start += self._t_rp
                self.confs[bank_idx] += 1
                conflict = True
            act = start
            # Optional activate-rate constraints (tRRD / tFAW).
            if self._act_tracking:
                act_times = self._act_times
                if self._t_rrd and act_times:
                    t = act_times[-1] + self._t_rrd
                    if t > act:
                        act = t
                if self._t_faw and len(act_times) == 4:
                    t = act_times[0] + self._t_faw
                    if t > act:
                        act = t
                act_times.append(act)
            cas = act + self._t_rcd
        data_start = cas + self._t_cl
        if data_start < self.bus_free_cycle:
            data_start = self.bus_free_cycle
        data_end = data_start + self._t_burst
        self.bus_free_cycle = data_end
        # Pace the scheduler at one transaction per data-burst slot: bursts
        # can then run back-to-back on the bus while ACT/PRE of upcoming
        # transactions overlap in other banks (bank-level parallelism).
        self.busy_until = now + self._t_burst
        if hit:
            self.hits[bank_idx] += 1
        else:
            self.acts[bank_idx] += 1
        recovery = self._t_wr if is_write else 0
        if keep_open:
            open_row[bank_idx] = row
            ready[bank_idx] = data_end + recovery
        else:
            open_row[bank_idx] = -1
            ready[bank_idx] = data_end + recovery + self._t_rp
        self.transactions += 1
        if is_write:
            self.writes += 1
        self.data_cycles += data_end - data_start
        return TransactionTiming(
            cas_cycle=cas,
            data_start=data_start,
            data_end=data_end,
            row_hit=hit,
            start_cycle=bank_start,
            conflict=conflict,
        )

    # -- statistics ----------------------------------------------------------

    @property
    def banks(self) -> tuple[Bank, ...]:
        """Per-bank snapshots of the arrays (built on demand)."""
        return tuple(
            Bank(
                i,
                None if self.open_row[i] == -1 else self.open_row[i],
                self.ready[i],
                self.acts[i],
                self.hits[i],
                self.confs[i],
            )
            for i in range(self.num_banks)
        )

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
