"""ME: fixed-priority scheduling by memory efficiency (Section 3.1 / 5.1).

Each core's priority is its application's profiled memory efficiency
``ME[i] = IPC_single[i] / BW_single[i]`` (Eq. 1), fixed for the whole run.
The paper evaluates this scheme to isolate the long-term component of
ME-LREQ: it turns out slightly *worse* than HF-RF on average, because a
fixed order ignores the dynamic gain of serving a request — a burst from a
high-ME core blocks everyone else unconditionally and can starve
low-priority cores (Figure 4's 1042-cycle core-3 latency under 4MEM-5).
"""

from __future__ import annotations

from array import array
from typing import Sequence

from repro.core.complexity import HardwareCost
from repro.core.policy import SchedulingPolicy
from repro.core.registry import register_policy
from repro.util.rng import RngStream

__all__ = ["MemoryEfficiencyPolicy"]


@register_policy("ME")
class MemoryEfficiencyPolicy(SchedulingPolicy):
    """Fixed core priority = profiled memory efficiency.

    Parameters
    ----------
    me_values:
        Memory efficiency per core (same order as core ids), from profiling
        — see :mod:`repro.metrics.memory_efficiency`.
    """

    reads_me = True
    #: one fixed priority per core: rows of depth 1 in ``_rank``
    read_rule = "ranked"

    def __init__(self, me_values: Sequence[float]) -> None:
        super().__init__()
        if not me_values:
            raise ValueError("me_values must be non-empty")
        if any(v < 0 for v in me_values):
            raise ValueError("memory efficiency cannot be negative")
        self.me_values = tuple(float(v) for v in me_values)
        self._rank = array("d", self.me_values)

    def setup(self, num_cores: int, rng: RngStream) -> None:
        super().setup(num_cores, rng)
        if len(self.me_values) != num_cores:
            raise ValueError(
                f"got {len(self.me_values)} ME values for {num_cores} cores"
            )

    @classmethod
    def describe_hardware(cls, num_cores: int) -> HardwareCost:
        # One quantised ME register per core (the 10-bit code width of the
        # paper's Figure 1 table, depth 1 — no pending-read index needed).
        return HardwareCost(
            per_core_bits=10,
            notes="10b profiled-ME register/core",
        )
