"""LREQ: Least-Request scheduling (Section 2, after Zhu & Zhang HPCA'05).

The core with the *fewest pending read requests* gets the highest priority:
returning one of its few requests likely unblocks more dependent
instructions than serving a core that has dozens of requests queued — the
short-term-urgency argument.  Within the chosen core, hit-first then oldest;
equal pending counts are tie-broken randomly.

LREQ is the scheme ME-LREQ extends, and the second-best performer in the
paper's evaluation.
"""

from __future__ import annotations

from repro.core.complexity import HardwareCost
from repro.core.policy import SchedulingPolicy
from repro.core.registry import register_policy

__all__ = ["LeastRequestPolicy"]


@register_policy("LREQ")
class LeastRequestPolicy(SchedulingPolicy):
    """Fewest-pending-reads core first."""

    # Higher priority == fewer pending reads: the priority is -pending.
    read_rule = "ranked"
    rank_kind = "pending"

    @classmethod
    def describe_hardware(cls, num_cores: int) -> HardwareCost:
        # The pending-read counters are LREQ's ranking input, so they are
        # billed to the scheme (6 bits cover the 64-deep queue).
        return HardwareCost(
            per_core_bits=6,
            notes="pending-read counter/core feeds the comparator",
        )
