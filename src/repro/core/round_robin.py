"""Round-Robin over cores (Section 2, 'Round-Robin').

The controller serves one request from each core in turn, skipping cores
with nothing pending on the channel being scheduled.  This bounds any
core's waiting time but, as the paper notes, 'destroys the spatial locality
available in memory access streams' — within the chosen core we still apply
hit-first/oldest, but the forced rotation across cores breaks up row-hit
runs that HF-RF would have exploited.

The rotation pointer is per-policy (i.e. global across channels), matching
a controller that arbitrates cores once and lets address interleaving pick
the channel.
"""

from __future__ import annotations

from array import array

from repro.core.complexity import HardwareCost, log2_bits
from repro.core.policy import SchedulingPolicy
from repro.core.registry import register_policy
from repro.util.rng import RngStream

__all__ = ["RoundRobinPolicy"]


@register_policy("RR")
class RoundRobinPolicy(SchedulingPolicy):
    """Serve cores in cyclic order, skipping cores with no candidates."""

    # Walk the rotation from the pointer to the first core with work, and
    # move the pointer past it (even when it is the only candidate).
    read_rule = "rotate"

    def __init__(self) -> None:
        super().__init__()
        #: the rotation pointer, in storage the kernel advances in place
        self._rotor = array("q", [0])

    @property
    def _next_core(self) -> int:
        """The core the rotation tries first at the next read decision."""
        return self._rotor[0]

    def setup(self, num_cores: int, rng: RngStream) -> None:
        super().setup(num_cores, rng)
        self._rotor[0] = 0

    def reset(self) -> None:
        self._rotor[0] = 0

    @classmethod
    def describe_hardware(cls, num_cores: int) -> HardwareCost:
        return HardwareCost(
            global_bits=log2_bits(num_cores),
            notes="single rotation pointer",
        )
