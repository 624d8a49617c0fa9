"""CADS: core-aware dynamic scheduling with adaptive rank intervals
(after Jain et al., arXiv:1907.07776).

The ranking schedulers in this repo recompute core priorities either
never (ME, FIX) or on a fixed window (ME-LREQ-ONLINE).  CADS's
contribution is making the *re-ranking cadence itself* adaptive: cores
are ranked by attained service — the least-served core gets the highest
priority, an ATLAS-style long-term fairness rule — and the interval at
which ranks are recomputed shrinks when the service distribution is
skewed (ranks are stale, interference is being mis-attributed) and grows
when service is balanced (re-ranking buys nothing, so save the
comparator work and keep row locality stable for longer).

Mechanism, as implemented here:

* per core, a *served-request* counter accumulates during the current
  rank interval;
* when the interval expires, cores are ranked by served count ascending
  (least-served = rank 0 = highest priority; ties by core id — fully
  deterministic), the counters are reset, and the next interval begins;
* at the same boundary the interval length adapts: if the service
  *imbalance* ``max(served)/min(served)`` exceeds ``imbalance_high`` the
  interval halves (clamped to ``min_interval``); if it is below
  ``imbalance_low`` the interval doubles (clamped to ``max_interval``);
  otherwise it is kept;
* between boundaries, selection is the standard two-level rule of
  Section 3.2 of the base paper: global hit-first, then the
  highest-ranked core with a candidate (random tie-break between cores
  sharing a rank value across channels never occurs — ranks are a
  permutation — but the shared tie-break machinery is reused so an
  unranked/equal-rank start behaves like the other core-aware policies),
  then oldest within the core.

Interval boundaries are evaluated lazily at scheduling points, on a
``now``-based grid, so the adaptation depends only on cycle time and
served counts, never on how often scheduling points fire.

Hardware cost: a served counter and a rank register per core, plus the
interval length and its countdown globally — no SRAM table, no division.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.complexity import HardwareCost, log2_bits
from repro.core.policy import SchedulingContext, SchedulingPolicy
from repro.core.registry import register_policy
from repro.util.rng import RngStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.request import MemoryRequest

__all__ = ["CadsPolicy"]


@register_policy("CADS")
class CadsPolicy(SchedulingPolicy):
    """Least-attained-service ranking with an adaptive re-rank interval.

    Parameters
    ----------
    rank_interval:
        Starting interval, in cycles, between rank recomputations.
    min_interval / max_interval:
        Clamps for the adaptive interval.
    imbalance_high:
        Served-count imbalance above which the interval halves.
    imbalance_low:
        Imbalance below which the interval doubles.
    """

    def __init__(
        self,
        rank_interval: int = 10_000,
        min_interval: int = 2_500,
        max_interval: int = 40_000,
        imbalance_high: float = 4.0,
        imbalance_low: float = 1.5,
    ) -> None:
        super().__init__()
        if not 1 <= min_interval <= rank_interval <= max_interval:
            raise ValueError(
                "need 1 <= min_interval <= rank_interval <= max_interval"
            )
        if not 0 < imbalance_low < imbalance_high:
            raise ValueError("need 0 < imbalance_low < imbalance_high")
        self.rank_interval = rank_interval
        self.min_interval = min_interval
        self.max_interval = max_interval
        self.imbalance_high = imbalance_high
        self.imbalance_low = imbalance_low
        self._served: list[int] = []
        self._rank: list[int] = []
        self._interval = rank_interval
        self._interval_end = rank_interval
        #: adaptation counters (tests/diagnostics)
        self.rerank_count = 0
        self.shrink_count = 0
        self.grow_count = 0

    def setup(self, num_cores: int, rng: RngStream) -> None:
        super().setup(num_cores, rng)
        self._served = [0] * num_cores
        self._rank = [0] * num_cores
        self._interval = self.rank_interval
        self._interval_end = self.rank_interval
        self.rerank_count = 0
        self.shrink_count = 0
        self.grow_count = 0

    def reset(self) -> None:
        n = max(self.num_cores, 1)
        self._served = [0] * n
        self._rank = [0] * n
        self._interval = self.rank_interval
        self._interval_end = self.rank_interval
        self.rerank_count = 0
        self.shrink_count = 0
        self.grow_count = 0

    def rank_of(self, core_id: int) -> int:
        """Current rank of ``core_id`` (0 = highest priority)."""
        return self._rank[core_id]

    @property
    def current_interval(self) -> int:
        """The adaptive rank interval, in cycles."""
        return self._interval

    def _maybe_rerank(self, now: int) -> None:
        # Lazy boundary evaluation on a now-based grid: catch up over any
        # skipped boundaries one at a time so interval adaptation sees the
        # same sequence regardless of how sparse scheduling points are.
        while now >= self._interval_end:
            self._rerank()
            self._adapt_interval()
            self._served = [0] * self.num_cores
            self._interval_end += self._interval

    def _rerank(self) -> None:
        # Least attained service first; core id breaks ties so the rank
        # permutation is deterministic.
        order = sorted(range(self.num_cores), key=lambda c: (self._served[c], c))
        for rank, core in enumerate(order):
            self._rank[core] = rank
        self.rerank_count += 1

    def _adapt_interval(self) -> None:
        busiest = max(self._served)
        if busiest == 0:
            # Idle interval: nothing to learn, keep the cadence.
            return
        imbalance = busiest / max(min(self._served), 1)
        if imbalance > self.imbalance_high and self._interval > self.min_interval:
            self._interval = max(self._interval // 2, self.min_interval)
            self.shrink_count += 1
        elif imbalance < self.imbalance_low and self._interval < self.max_interval:
            self._interval = min(self._interval * 2, self.max_interval)
            self.grow_count += 1

    def select_read(
        self, candidates: Sequence[MemoryRequest], ctx: SchedulingContext
    ) -> MemoryRequest:
        self._maybe_rerank(ctx.now)
        chosen = self._select_core_then_request(
            candidates, ctx, lambda core: -self._rank[core]
        )
        self._served[chosen.core_id] += 1
        return chosen

    @classmethod
    def describe_hardware(cls, num_cores: int) -> HardwareCost:
        # Per core: a 16-bit served counter plus a log2(N)-bit rank
        # register; globally the interval length and its countdown
        # (16 bits each, covering max_interval = 40000 cycles).
        return HardwareCost(
            per_core_bits=16 + log2_bits(num_cores),
            global_bits=32,
            notes="16b served counter + rank register/core; "
            "global interval length + countdown",
        )
