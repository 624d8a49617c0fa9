"""Small shared utilities: deterministic RNG streams, fixed-point helpers,
and unit conversions between wall-clock time and CPU cycles.

Everything in the simulator that needs randomness draws from a
:class:`~repro.util.rng.RngStream` derived from a single experiment seed, so
every run is exactly reproducible.
"""

from repro.util.fixedpoint import FixedPointCodec
from repro.util.rng import RngStream, derive_seed
from repro.util.units import (
    CPU_FREQ_HZ,
    bytes_per_sec_to_gbps,
    gbps,
    ns_to_cycles,
    seconds,
)

__all__ = [
    "CPU_FREQ_HZ",
    "FixedPointCodec",
    "RngStream",
    "bytes_per_sec_to_gbps",
    "derive_seed",
    "gbps",
    "ns_to_cycles",
    "seconds",
]
