"""DDR2 memory-system substrate.

Models the paper's Table 1 memory organisation: two logic channels (each a
ganged pair of physical channels with a 16 B transfer width), two DIMMs per
physical channel and four banks per DIMM, with cache-line interleaving and
the close-page policy described in Section 4.1.

The model is transaction-level but timing-faithful: each logic channel
holds its banks' open rows and ready times as arrays, plus a data bus with
occupancy, and the memory controller's scheduling point derives each
transaction's start/finish cycles from the DDR2 timing parameters (tRP,
tRCD, CL, burst, tWR) expressed in CPU cycles, reporting them as a
:class:`TransactionTiming` to :attr:`DramSystem.observers`.
"""

from repro.dram.address import AddressMapper, DramCoord
from repro.dram.channel import Channel, TransactionTiming
from repro.dram.dram_system import DramSystem

__all__ = [
    "AddressMapper",
    "Channel",
    "DramCoord",
    "DramSystem",
    "TransactionTiming",
]
