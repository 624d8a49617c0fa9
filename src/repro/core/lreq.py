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

from typing import TYPE_CHECKING, Sequence

from repro.core.complexity import HardwareCost
from repro.core.policy import SchedulingContext, SchedulingPolicy
from repro.core.registry import register_policy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.request import MemoryRequest

__all__ = ["LeastRequestPolicy"]


@register_policy("LREQ")
class LeastRequestPolicy(SchedulingPolicy):
    """Fewest-pending-reads core first."""

    def select_read(
        self, candidates: Sequence[MemoryRequest], ctx: SchedulingContext
    ) -> MemoryRequest:
        # Higher priority == fewer pending reads, hence the negation.
        return self._select_core_then_request(
            candidates, ctx, lambda core: -ctx.pending_reads(core)
        )

    @classmethod
    def describe_hardware(cls, num_cores: int) -> HardwareCost:
        # The pending-read counters are LREQ's ranking input, so they are
        # billed to the scheme (6 bits cover the 64-deep queue).
        return HardwareCost(
            per_core_bits=6,
            notes="pending-read counter/core feeds the comparator",
        )
