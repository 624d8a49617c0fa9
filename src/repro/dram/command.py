"""DRAM command records and an optional command logger.

The simulator schedules at transaction granularity, but each committed
transaction implies a concrete DDR2 command sequence (PRE / ACT / RD / WR,
with auto-precharge folded into the column command for the close-page
policy).  :class:`CommandLog` reconstructs that sequence from the resolved
transaction timing so tests, analyses and Chrome traces can see
command-level behaviour (ordering, bank occupancy) without the simulator
paying per-command event costs.  The DDR2 rules themselves, the row
open/close discipline among them, are judged with their timing by the
test suite's checker (``tests/ddr2.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.config import DramTimingConfig
from repro.dram.channel import TransactionTiming

__all__ = ["CommandKind", "DramCommand", "CommandLog"]


class CommandKind(Enum):
    """DDR2 command types the model distinguishes."""

    PRECHARGE = "PRE"
    ACTIVATE = "ACT"
    READ = "RD"
    WRITE = "WR"
    READ_AP = "RDA"  # read with auto-precharge
    WRITE_AP = "WRA"  # write with auto-precharge


@dataclass(frozen=True, order=True)
class DramCommand:
    """One command issued to one bank."""

    cycle: int
    channel: int
    bank: int
    kind: CommandKind
    row: int


class CommandLog:
    """Reconstructs and stores the command stream of committed transactions.

    Attach one to a live simulation with :meth:`attach` (it joins the
    :class:`~repro.dram.dram_system.DramSystem`'s observers) or call
    :meth:`record` directly on saved timings.

    With a :class:`~repro.telemetry.hub.Telemetry` hub supplied to
    :meth:`attach`, every reconstructed command is also published on the
    hub's event bus (one ``"cmd"`` instant per DDR2 command, on its
    channel's track) — the same sink the decision log and drain windows
    use, so a Chrome trace shows the full command stream in context.
    """

    __slots__ = ("timing", "commands", "_bus")

    def __init__(self, timing: DramTimingConfig) -> None:
        self.timing = timing
        self.commands: list[DramCommand] = []
        self._bus = None

    def attach(self, dram, telemetry=None) -> "CommandLog":
        """Subscribe to ``dram``'s committed transactions; returns self."""
        self._bus = telemetry.bus if telemetry is not None else None

        def observer(coord, t, is_write, keep_open, had_conflict):
            self.record(
                coord.channel, coord.bank, coord.row, t,
                is_write=is_write, keep_open=keep_open, had_conflict=had_conflict,
            )

        dram.observers.append(observer)
        return self

    def record(
        self,
        channel: int,
        bank: int,
        row: int,
        t: TransactionTiming,
        *,
        is_write: bool,
        keep_open: bool,
        had_conflict: bool = False,
    ) -> None:
        """Expand one transaction into its implied command sequence."""
        cfg = self.timing
        if not t.row_hit:
            if had_conflict:
                pre_cycle = t.cas_cycle - cfg.t_rcd - cfg.t_rp
                self._add(
                    DramCommand(pre_cycle, channel, bank, CommandKind.PRECHARGE, row)
                )
            act_cycle = t.cas_cycle - cfg.t_rcd
            self._add(
                DramCommand(act_cycle, channel, bank, CommandKind.ACTIVATE, row)
            )
        if is_write:
            kind = CommandKind.WRITE if keep_open else CommandKind.WRITE_AP
        else:
            kind = CommandKind.READ if keep_open else CommandKind.READ_AP
        self._add(DramCommand(t.cas_cycle, channel, bank, kind, row))

    def _add(self, cmd: DramCommand) -> None:
        self.commands.append(cmd)
        if self._bus is not None:
            self._bus.emit(
                "cmd",
                "instant",
                cmd.cycle,
                f"ch{cmd.channel}",
                op=cmd.kind.value,
                bank=cmd.bank,
                row=cmd.row,
            )

    # -- queries -----------------------------------------------------------

    def per_bank(self, channel: int, bank: int) -> list[DramCommand]:
        """Command stream of one bank, in issue order."""
        return sorted(
            c for c in self.commands if c.channel == channel and c.bank == bank
        )

    def count(self, kind: CommandKind) -> int:
        return sum(1 for c in self.commands if c.kind == kind)

    def clear(self) -> None:
        self.commands.clear()
