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
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import DramTopologyConfig

__all__ = ["DramCoord", "AddressMapper"]

#: decode memos shared across mapper instances, keyed by bit layout.
#: Sweeps build one system per (mix, policy) cell with an identical
#: geometry; sharing the line -> coordinate table means only the first
#: run of a sweep pays for decoding.  Safe because decode is a pure
#: function of the layout and DramCoord is immutable.
_SHARED_DECODE: dict[tuple, dict[int, "DramCoord"]] = {}

#: most coordinates one layout's memo keeps: a decode that would go past it
#: empties the memo in place first (controllers hold the dict itself), so a
#: long sweep or worker does not keep every line it ever decoded.  Above
#: the distinct lines of one ``repro run`` (53 202 for 4MEM-1 at its
#: defaults), so a run of that size decodes each line once.
_DECODE_CAP = 1 << 16


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
        "_decode_cache",
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
        # Memoised line -> coordinate table.  The bit layout is fixed at
        # construction, workloads re-reference the same lines heavily
        # (hot sets, streams, writebacks of resident lines), and
        # DramCoord is a frozen dataclass whose __init__ dominates the
        # decode cost — so decoding each distinct line once and sharing
        # the immutable coordinate is a large hot-path win.  The table is
        # shared process-wide between mappers with the same layout (see
        # _SHARED_DECODE), so repeated runs of a sweep start warm.
        layout = (line_bytes, self.channels, self.banks_per_channel, self.lines_per_row)
        self._decode_cache = _SHARED_DECODE.setdefault(layout, {})

    def decode(self, addr: int) -> DramCoord:
        """Map a byte address to its DRAM coordinate.

        Sub-line bits are ignored (the memory system moves whole lines).
        """
        if addr < 0:
            raise ValueError(f"negative address {addr:#x}")
        line = addr >> self._off_bits
        coord = self._decode_cache.get(line)
        if coord is None:
            channel = line & (self.channels - 1)
            rest = line >> self._ch_bits
            bank = rest & (self.banks_per_channel - 1)
            rest >>= self._bank_bits
            col = rest & (self.lines_per_row - 1)
            row = rest >> self._col_bits
            coord = DramCoord(channel=channel, bank=bank, row=row, col=col)
            if len(self._decode_cache) >= _DECODE_CAP:
                self._decode_cache.clear()
            self._decode_cache[line] = coord
        return coord

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
