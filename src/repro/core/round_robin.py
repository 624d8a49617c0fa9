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

from typing import TYPE_CHECKING, Sequence

from repro.core.complexity import HardwareCost, log2_bits
from repro.core.policy import SchedulingContext, SchedulingPolicy, hit_first_oldest
from repro.core.registry import register_policy
from repro.util.rng import RngStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.request import MemoryRequest

__all__ = ["RoundRobinPolicy"]


@register_policy("RR")
class RoundRobinPolicy(SchedulingPolicy):
    """Serve cores in cyclic order, skipping cores with no candidates."""

    def __init__(self) -> None:
        super().__init__()
        self._next_core = 0

    def setup(self, num_cores: int, rng: RngStream) -> None:
        super().setup(num_cores, rng)
        self._next_core = 0

    def reset(self) -> None:
        self._next_core = 0

    def select_read(
        self, candidates: Sequence[MemoryRequest], ctx: SchedulingContext
    ) -> MemoryRequest:
        by_core: dict[int, list[MemoryRequest]] = {}
        for r in candidates:
            by_core.setdefault(r.core_id, []).append(r)
        # Walk the rotation from the pointer until a core with work is found.
        for step in range(self.num_cores):
            core = (self._next_core + step) % self.num_cores
            if core in by_core:
                self._next_core = (core + 1) % self.num_cores
                return hit_first_oldest(by_core[core], ctx)
        raise ValueError("select_read called with no candidates")

    @classmethod
    def describe_hardware(cls, num_cores: int) -> HardwareCost:
        return HardwareCost(
            global_bits=log2_bits(num_cores),
            notes="single rotation pointer",
        )
