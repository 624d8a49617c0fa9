"""Physical-address -> DRAM-coordinate mapping.

The paper uses *cache-line interleaving* (Section 4.1): consecutive cache
lines are spread first across logic channels, then across the banks of a
channel, so that streams achieve maximal bank-level parallelism and the
close-page policy is sensible.  The resulting bit layout, LSB first::

    | line offset | channel bits | bank bits | column(line-in-row) | row |

Rows are ``row_bytes`` per bank, so a row holds ``row_bytes / line_bytes``
lines; the 'column' coordinate here is the line index within the row.

The mapping is a bijection between line-aligned addresses and
``(channel, bank, row, col)`` tuples, which the property tests verify.

The decode arithmetic is the model kernel's (``cpu/_core.c``): the memory
controller reads the mapper's bit layout once, when it is built, and
decodes every request it accepts in C, building the request's
:class:`DramCoord` only when something reads ``req.coord``;
:meth:`AddressMapper.decode` runs the same function, loading the kernel
at its first call (importing this module loads none).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DramTopologyConfig

__all__ = ["DramCoord", "AddressMapper"]


@dataclass(frozen=True, order=True)
class DramCoord:
    """Location of one cache line in the DRAM system."""

    channel: int
    bank: int
    row: int
    col: int


def _log2(x: int) -> int:
    if x <= 0 or x & (x - 1):
        raise ValueError(f"{x} is not a positive power of two")
    return x.bit_length() - 1


class AddressMapper:
    """Cache-line-interleaved address decoder/encoder.

    Parameters
    ----------
    topology:
        DRAM organisation; bank counts and row size must be powers of two.
    line_bytes:
        Cache-line size (the interleave granule).
    """

    __slots__ = (
        "line_bytes",
        "_off_bits",
        "_ch_bits",
        "_bank_bits",
        "_col_bits",
        "channels",
        "banks_per_channel",
        "lines_per_row",
    )

    def __init__(self, topology: DramTopologyConfig, line_bytes: int = 64) -> None:
        topology.validate()
        self.line_bytes = line_bytes
        self.channels = topology.logic_channels
        self.banks_per_channel = topology.banks_per_channel
        self.lines_per_row = topology.row_bytes // line_bytes
        if self.lines_per_row < 1:
            raise ValueError("row smaller than a cache line")
        self._off_bits = _log2(line_bytes)
        self._ch_bits = _log2(self.channels)
        self._bank_bits = _log2(self.banks_per_channel)
        self._col_bits = _log2(self.lines_per_row)

    def decode(self, addr: int) -> DramCoord:
        """Map a byte address (an int64) to its DRAM coordinate.

        Sub-line bits are ignored (the memory system moves whole lines);
        a negative address raises ``ValueError``.
        """
        from repro.cpu.kernel import kernel

        return DramCoord(*kernel.decode(addr, self._off_bits, self._ch_bits,
                                        self._bank_bits, self._col_bits))

    def encode(self, coord: DramCoord) -> int:
        """Inverse of :meth:`decode` (line-aligned address)."""
        if not 0 <= coord.channel < self.channels:
            raise ValueError(f"channel {coord.channel} out of range")
        if not 0 <= coord.bank < self.banks_per_channel:
            raise ValueError(f"bank {coord.bank} out of range")
        if not 0 <= coord.col < self.lines_per_row:
            raise ValueError(f"col {coord.col} out of range")
        if coord.row < 0:
            raise ValueError(f"negative row {coord.row}")
        line = coord.row
        line = (line << self._col_bits) | coord.col
        line = (line << self._bank_bits) | coord.bank
        line = (line << self._ch_bits) | coord.channel
        return line << self._off_bits

    def line_address(self, addr: int) -> int:
        """The line-aligned address containing ``addr``."""
        return addr & ~(self.line_bytes - 1)

    def channel_of(self, addr: int) -> int:
        """Fast path: just the logic channel of ``addr``."""
        return (addr >> self._off_bits) & (self.channels - 1)
