"""Whole DRAM system: the channel array plus the address mapper.

This is the device-side substrate the memory controller drives.  It knows
nothing about scheduling policies; it answers row-hit queries and holds
the channels whose bank state the controller's scheduling point advances.
"""

from __future__ import annotations

from repro.config import DramTimingConfig, DramTopologyConfig
from repro.dram.address import AddressMapper, DramCoord
from repro.dram.channel import Channel

__all__ = ["DramSystem"]


class DramSystem:
    """All logic channels behind one memory controller.

    ``observers`` is the ordered list of subscribers the controller's
    scheduling point calls, in attach order, after every committed
    transaction with ``(coord, timing, is_write, keep_open,
    had_conflict)``, ``timing`` a
    :class:`~repro.dram.channel.TransactionTiming` — the attachment point
    for command-level logging and checking
    (:class:`repro.dram.command.CommandLog`).  Subscribers append
    themselves; the list object itself is never replaced, because the
    controller binds it once.  With no subscribers a commit costs one
    length test.
    """

    __slots__ = ("topology", "timing", "mapper", "channels", "observers")

    def __init__(
        self,
        topology: DramTopologyConfig,
        timing: DramTimingConfig,
        line_bytes: int = 64,
    ) -> None:
        topology.validate()
        timing.validate()
        self.topology = topology
        self.timing = timing
        self.mapper = AddressMapper(topology, line_bytes)
        self.channels = [
            Channel(i, topology.banks_per_channel)
            for i in range(topology.logic_channels)
        ]
        self.observers: list = []

    def coord(self, addr: int) -> DramCoord:
        """Decode a byte address into its DRAM coordinate."""
        return self.mapper.decode(addr)

    def is_row_hit(self, coord: DramCoord) -> bool:
        """Would a request to ``coord`` hit its bank's open row now?"""
        return self.channels[coord.channel].is_row_hit(coord.bank, coord.row)

    # -- statistics ----------------------------------------------------------

    @property
    def total_transactions(self) -> int:
        return sum(ch.transactions for ch in self.channels)

    @property
    def total_row_hits(self) -> int:
        return sum(ch.total_row_hits for ch in self.channels)

    @property
    def total_activations(self) -> int:
        return sum(ch.total_activations for ch in self.channels)

    def row_hit_rate(self) -> float:
        """Fraction of transactions that reused an open row."""
        total = self.total_transactions
        return self.total_row_hits / total if total else 0.0
