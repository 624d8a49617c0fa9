"""FIX-*: arbitrary fixed core-priority orders (Section 5.2).

The paper asks whether ME's gains come merely from *having* a fixed
priority order, by comparing against two arbitrary orders: FIX-3210
(core 3 highest) and FIX-0123 (core 0 highest).  The answer is no — an
arbitrary order can help one workload by +2.8 % and hurt another by −13.8 %
or −18 %, while ME's profiled order behaves consistently.  This module
implements any permutation so that experiment (and broader sweeps) can run.
"""

from __future__ import annotations

from array import array
from typing import Sequence

from repro.core.complexity import HardwareCost, log2_bits
from repro.core.policy import SchedulingPolicy
from repro.util.rng import RngStream

__all__ = ["FixedPriorityPolicy"]


class FixedPriorityPolicy(SchedulingPolicy):
    """Fixed core priority by an explicit order.

    Parameters
    ----------
    order:
        Core ids from highest to lowest priority; must be a permutation of
        ``range(num_cores)`` (checked at :meth:`setup`).

    Note: not decorated with ``@register_policy`` — instances are built by
    :func:`repro.core.registry.make_policy` from ``FIX-<digits>`` names.
    """

    name = "FIX"
    #: one fixed priority level per core: rows of depth 1 in ``_rank``
    read_rule = "ranked"

    def __init__(self, order: Sequence[int]) -> None:
        super().__init__()
        self.order = tuple(int(c) for c in order)
        if len(set(self.order)) != len(self.order):
            raise ValueError(f"priority order {self.order} repeats a core")
        self.name = "FIX-" + "".join(str(c) for c in self.order)

    def setup(self, num_cores: int, rng: RngStream) -> None:
        super().setup(num_cores, rng)
        if sorted(self.order) != list(range(num_cores)):
            raise ValueError(
                f"order {self.order} is not a permutation of 0..{num_cores - 1}"
            )
        # priority level per core: first in order = highest
        levels = [0.0] * num_cores
        for i, c in enumerate(self.order):
            levels[c] = len(self.order) - i
        self._rank = array("d", levels)

    @classmethod
    def describe_hardware(cls, num_cores: int) -> HardwareCost:
        # A priority-level register per core holding its place in the
        # fixed order.
        return HardwareCost(
            per_core_bits=log2_bits(num_cores),
            notes="fixed priority-level register/core",
        )
