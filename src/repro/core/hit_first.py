"""HF-RF: Hit-First with Read-First — the paper's performance baseline.

Row-buffer hits are scheduled before misses (Hit-First, after Rixner et
al.'s FR-FCFS), reads bypass writes (Read-First; the controller's write
drain provides the bypass), and age breaks ties.  HF-RF is core-oblivious:
it 'serves requests from different cores as if they were produced by a
single core' (Section 5.3), which is why every core observes nearly the
same average read latency under it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.policy import SchedulingContext, SchedulingPolicy, hit_first_oldest
from repro.core.registry import register_policy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.request import MemoryRequest

__all__ = ["HitFirstReadFirstPolicy"]


@register_policy("HF-RF")
class HitFirstReadFirstPolicy(SchedulingPolicy):
    """Global hit-first / oldest-first over all cores' reads."""

    def select_read(
        self, candidates: Sequence[MemoryRequest], ctx: SchedulingContext
    ) -> MemoryRequest:
        return hit_first_oldest(candidates, ctx)
