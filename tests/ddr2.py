"""A DDR2 legality checker for the transactions a controller commits.

Test-only.  :class:`Ddr2Checker` subscribes to ``dram.observers`` and judges
every committed transaction against the model's DDR2 rules (listed in
:mod:`repro.dram.channel`).  It keeps its own table, built only from the
:class:`~repro.config.DramTimingConfig`: per bank the open row and the
cycle it is next ready for a command, per channel the last four ACTs and
the cycle its data bus is next free.  For each transaction it derives the
earliest legal ACT and checks:

* an open-row hit targets the row its table holds open, at or after the
  bank is ready;
* a closed bank is activated no earlier than it is ready, a conflict
  (another row open) precharges first, so PRE to ACT >= tRP, and the
  reported ``row_hit``/``conflict`` flags match the table;
* CAS >= ACT + tRCD, with ACT no earlier than tRRD after the channel's
  last ACT and tFAW after its fourth-last, when those are enabled;
* ``data_start`` >= CAS + CL and ``data_end`` = ``data_start`` + tBurst;
* no two bursts overlap on a channel;
* close-page precharge: a bank left closed is not hit next, and is not
  used again before ``data_end`` (+ tWR after a write) + tRP.

It shares no code with the controller, and it is the suite's one judge of
the open/close-row discipline: :class:`~repro.dram.command.CommandLog`
only reconstructs the command stream.
"""

from __future__ import annotations

from collections import deque

from repro.config import DramTimingConfig

__all__ = ["Ddr2Checker"]

#: a precharged bank's open row in the checker's table
CLOSED = None


class Ddr2Checker:
    """Judge every committed transaction of one DRAM system."""

    def __init__(self, timing: DramTimingConfig) -> None:
        self.timing = timing
        self.transactions = 0
        self.violations: list[str] = []
        #: (channel, bank) -> [open row or CLOSED, ready cycle]
        self._banks: dict[tuple[int, int], list] = {}
        #: channel -> cycles of its last four ACTs
        self._acts: dict[int, deque[int]] = {}
        #: channel -> cycle its data bus is next free
        self._bus_free: dict[int, int] = {}

    def attach(self, dram) -> "Ddr2Checker":
        """Subscribe to ``dram``'s committed transactions; returns self."""
        dram.observers.append(self)
        return self

    def __call__(self, coord, t, is_write, keep_open, conflict) -> None:
        tm = self.timing
        ch, row = coord.channel, coord.row
        bank = self._banks.setdefault((ch, coord.bank), [CLOSED, 0])
        open_row, ready = bank
        bad = []
        if t.row_hit != (open_row == row):
            bad.append(f"row_hit={t.row_hit} with row {open_row} open")
        if open_row == row:
            if t.cas_cycle < ready:
                bad.append(f"hit CAS {t.cas_cycle} before the bank is "
                           f"ready at {ready}")
        else:
            if conflict != (open_row is not CLOSED):
                bad.append(f"conflict={conflict} with row {open_row} open")
            # The earliest legal ACT: the bank ready (after a PRE when
            # another row is open), then tRRD and tFAW on the channel.
            act = ready + (tm.t_rp if open_row is not CLOSED else 0)
            acts = self._acts.setdefault(ch, deque(maxlen=4))
            if tm.t_rrd and acts:
                act = max(act, acts[-1] + tm.t_rrd)
            if tm.t_faw and len(acts) == 4:
                act = max(act, acts[0] + tm.t_faw)
            if t.cas_cycle < act + tm.t_rcd:
                bad.append(f"CAS {t.cas_cycle} before the earliest ACT "
                           f"{act} + tRCD {tm.t_rcd}")
            acts.append(t.cas_cycle - tm.t_rcd)
        if t.data_start < t.cas_cycle + tm.t_cl:
            bad.append(f"data at {t.data_start} before CAS {t.cas_cycle} "
                       f"+ CL {tm.t_cl}")
        if t.data_end != t.data_start + tm.t_burst:
            bad.append(f"burst {t.data_start}..{t.data_end} is not "
                       f"tBurst {tm.t_burst} long")
        if t.data_start < self._bus_free.get(ch, 0):
            bad.append(f"burst at {t.data_start} overlaps the channel's "
                       f"previous burst, which ends at {self._bus_free[ch]}")
        self._bus_free[ch] = t.data_end
        recovery = tm.t_wr if is_write else 0
        if keep_open:
            bank[:] = [row, t.data_end + recovery]
        else:
            bank[:] = [CLOSED, t.data_end + recovery + tm.t_rp]
        for text in bad:
            self.violations.append(
                f"transaction {self.transactions} (ch{ch} bank{coord.bank} "
                f"row{row}): {text}")
        self.transactions += 1
