"""Fixed-point quantisation helpers for the hardware priority table.

The paper's ME-LREQ implementation (its Figure 1) stores *pre-computed,
scaled* priorities in a small SRAM table — ``N cores x 64 pending levels x
10 bits`` — because real memory controllers cannot afford dividers in the
scheduling path.  These helpers model that quantisation so the simulated
policy sees exactly what the hardware would see, including rounding and
saturation artefacts.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FixedPointCodec"]


@dataclass(frozen=True)
class FixedPointCodec:
    """Encode non-negative reals into ``bits``-wide unsigned integers.

    The codec is defined by the largest representable value ``max_value``;
    encoding maps ``[0, max_value]`` linearly onto ``[0, 2**bits - 1]`` with
    round-to-nearest and saturation above ``max_value``.

    Parameters
    ----------
    bits:
        Entry width in bits (the paper uses 10).
    max_value:
        The real value that maps to the all-ones code.
    """

    bits: int
    max_value: float

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError(f"bits must be >= 1, got {self.bits}")
        if not self.max_value > 0:
            raise ValueError(f"max_value must be > 0, got {self.max_value}")

    @property
    def levels(self) -> int:
        """Number of representable codes (``2**bits``)."""
        return 1 << self.bits

    @property
    def scale(self) -> float:
        """Real-value step per code."""
        return self.max_value / (self.levels - 1)

    def encode(self, value: float) -> int:
        """Quantise ``value`` to a code, saturating at the top code.

        Negative inputs are clamped to zero (priorities are non-negative).
        """
        if value <= 0:
            return 0
        code = round(value / self.scale)
        return min(code, self.levels - 1)

    def decode(self, code: int) -> float:
        """Return the real value represented by ``code``."""
        if not 0 <= code < self.levels:
            raise ValueError(f"code {code} out of range for {self.bits}-bit codec")
        return code * self.scale
