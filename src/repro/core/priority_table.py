"""The hardware priority table of the paper's Figure 1.

ME-LREQ's priority ``ME[i] / PendingRead[i]`` involves a division, which is
too expensive for the memory controller's scheduling path.  The paper's
implementation instead *pre-computes* the quotient for every possible
pending-read count (1..64) at program-load / context-switch time and stores
it, scaled to 10 bits, in a small SRAM: ``N cores x 64 entries x 10 bits``
(640 N bits total).  At a scheduling point the outstanding-read counters
index the tables in parallel and a comparator tree picks the winner.

This module models that table bit-exactly so the simulated policy sees the
same quantisation the hardware would: entries saturate at the top code, and
distinct (ME, pending) pairs may collide onto one code — the random
tie-break then decides, exactly as in the paper.

The paper only says the priorities are "scaled approximately".  Profiled
memory-efficiency values span five orders of magnitude (Table 2: 1 for
``applu`` to 16276 for ``eon``), so a *linear* 10-bit scaling quantises all
memory-intensive applications onto code 0 whenever an ILP application is in
the mix and the comparator degenerates to a coin flip among them.  The
default here is therefore **logarithmic** encoding (equal relative steps of
about 1.8 % across 8 decades), which preserves ME ratios at every
magnitude; linear encoding is available for the quantisation ablation
(`experiments.ablations`).

The codes live in one flat ``array('d')`` (:attr:`PriorityTable.codes`,
row-major, ``max_pending`` entries per core): the model kernel's ranked
rule reads them in place as the comparator's input, and :meth:`load`
rewrites them in place when the ME values change.
"""

from __future__ import annotations

import math
from array import array
from typing import Sequence

from repro.util.fixedpoint import FixedPointCodec

__all__ = ["PriorityTable"]

#: log-encoding range: priorities below this floor clamp to code 0
_LOG_FLOOR = 1e-3


class PriorityTable:
    """Per-core quantised ``ME/pending`` lookup table.

    Parameters
    ----------
    me_values:
        Profiled memory efficiency per core.
    max_pending:
        Table depth — the maximum pending-read count per core (64 in the
        paper's setup).
    bits:
        Entry width (10 in the paper).
    encoding:
        ``"log"`` (default) or ``"linear"`` — see the module docstring.
    scale_to:
        The real priority value mapped to the full-scale code.  Defaults to
        the largest ``ME[i]/1`` across cores, i.e. the tables are scaled
        jointly so priorities stay comparable *across* cores — the OS would
        do this scaling when it initialises the tables.
    """

    __slots__ = ("me_values", "max_pending", "bits", "encoding", "scale_to",
                 "codec", "codes")

    def __init__(
        self,
        me_values: Sequence[float],
        max_pending: int = 64,
        bits: int = 10,
        encoding: str = "log",
        scale_to: float | None = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if encoding not in ("log", "linear"):
            raise ValueError(f"unknown encoding {encoding!r}")
        self.max_pending = max_pending
        self.bits = bits
        self.encoding = encoding
        self.scale_to = scale_to
        #: codes[core * max_pending + pending - 1] = the code for
        #: ME[core]/pending, as float64
        self.codes = array("d")
        self.load(me_values)

    def load(self, me_values: Sequence[float]) -> None:
        """Recompute every code for ``me_values``, rewriting :attr:`codes`
        in place (a model kernel bound to them reads the new codes at its
        next decision; it refuses a change in the number of cores)."""
        if not me_values:
            raise ValueError("me_values must be non-empty")
        if any(v < 0 for v in me_values):
            raise ValueError("memory efficiency cannot be negative")
        self.me_values = tuple(float(v) for v in me_values)
        top = self.scale_to if self.scale_to is not None else max(self.me_values)
        if top <= 0:
            # All-zero ME profile: any positive scale works, every entry is 0.
            top = 1.0
        if self.encoding == "log":
            # Codes span [_LOG_FLOOR, top] in equal relative steps.
            self.codec = FixedPointCodec(
                bits=self.bits, max_value=max(math.log(top / _LOG_FLOOR), 1e-9)
            )
        else:
            self.codec = FixedPointCodec(bits=self.bits, max_value=top)
        self.codes[:] = array("d", [
            self._encode(me / p)
            for me in self.me_values
            for p in range(1, self.max_pending + 1)
        ])

    def _encode(self, priority: float) -> int:
        if self.encoding == "linear":
            return self.codec.encode(priority)
        if priority <= _LOG_FLOOR:
            return 0
        return self.codec.encode(math.log(priority / _LOG_FLOOR))

    @property
    def num_cores(self) -> int:
        return len(self.me_values)

    @property
    def total_bits(self) -> int:
        """Storage cost — the paper's ``N x 64 x 10`` = 640 N bits."""
        return self.num_cores * self.max_pending * self.codec.bits

    def lookup(self, core_id: int, pending_reads: int) -> int:
        """Quantised priority code of ``core_id`` with ``pending_reads``
        outstanding reads.

        Counts above the table depth clamp to the last entry (the hardware
        counter saturates); a zero count is a caller bug — cores without
        pending reads never reach the comparator.
        """
        if pending_reads < 1:
            raise ValueError("priority lookup requires pending_reads >= 1")
        idx = min(pending_reads, self.max_pending) - 1
        return int(self.codes[self._start(core_id) + idx])

    def exact(self, core_id: int, pending_reads: int) -> float:
        """Unquantised ``ME/pending`` — reference value for tests/ablations."""
        if pending_reads < 1:
            raise ValueError("pending_reads must be >= 1")
        return self.me_values[core_id] / pending_reads

    def row(self, core_id: int) -> tuple[int, ...]:
        """The full quantised row for one core (for inspection/tests)."""
        start = self._start(core_id)
        return tuple(int(c) for c in self.codes[start:start + self.max_pending])

    def _start(self, core_id: int) -> int:
        if not 0 <= core_id < len(self.me_values):
            raise IndexError(f"core {core_id} has no table row")
        return core_id * self.max_pending
