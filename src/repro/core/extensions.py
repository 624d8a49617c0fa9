"""Extension policies from the paper's related-work section.

The paper positions ME-LREQ against two contemporaneous fairness-oriented
schedulers (Section 6): Nesbit et al.'s *Fair Queuing CMP Memory Systems*
(MICRO'06) and Mutlu & Moscibroda's *Stall-Time Fair Memory scheduling*
(MICRO'07).  Neither is evaluated in the paper, but a reproduction that
wants to explore the design space needs comparable implementations, so
simplified-but-faithful versions are provided here:

* :class:`FairQueueingPolicy` (``FQ``) — network-fair-queueing transplant:
  each core owns a virtual clock that advances by a service quantum per
  transaction served; the core with the smallest virtual finish time wins.
  Idle cores' clocks are clamped forward so they cannot hoard credit.
* :class:`StallTimeFairPolicy` (``STFM``) — prioritises the core whose
  estimated slowdown (observed memory latency vs an unloaded-latency
  baseline) is currently largest, the core idea of STFM without its
  detailed interference accounting.
* :class:`BatchSchedulingPolicy` (``BATCH``) — a PAR-BS-style scheduler
  (Mutlu & Moscibroda, ISCA'08, contemporaneous with the paper): requests
  are grouped into batches (up to ``marking_cap`` per core); the current
  batch is fully served before newer requests, which bounds any request's
  wait to one batch, and within the batch cores are ranked
  shortest-job-first (fewest marked requests).

All plug into the same controller/per-channel scheduling machinery as the
paper's policies and honour the global hit-first command rule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.complexity import HardwareCost
from repro.core.policy import SchedulingContext, SchedulingPolicy
from repro.core.registry import register_policy
from repro.util.rng import RngStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.request import MemoryRequest

__all__ = ["BatchSchedulingPolicy", "FairQueueingPolicy", "StallTimeFairPolicy"]


@register_policy("FQ")
class FairQueueingPolicy(SchedulingPolicy):
    """Fair queueing over cores via virtual finish times.

    Parameters
    ----------
    quantum:
        Virtual service units charged per transaction.  The absolute value
        is irrelevant (only comparisons matter); shares are equal, as in
        the base fair-queueing formulation.
    """

    def __init__(self, quantum: int = 64) -> None:
        super().__init__()
        if quantum < 1:
            raise ValueError("quantum must be >= 1")
        self.quantum = quantum
        self._vclock: list[int] = []
        #: system virtual time: a core (re)joining the backlog starts here,
        #: so idle periods bank no credit
        self._vfloor = 0

    def setup(self, num_cores: int, rng: RngStream) -> None:
        super().setup(num_cores, rng)
        self._vclock = [0] * num_cores
        self._vfloor = 0

    def reset(self) -> None:
        self._vclock = [0] * max(self.num_cores, 1)
        self._vfloor = 0

    def select_read(
        self, candidates: Sequence[MemoryRequest], ctx: SchedulingContext
    ) -> MemoryRequest:
        active = {r.core_id for r in candidates}
        for c in active:
            if self._vclock[c] < self._vfloor:
                self._vclock[c] = self._vfloor
        self._vfloor = min(self._vclock[c] for c in active)
        chosen = self._select_core_then_request(
            candidates, ctx, lambda core: -float(self._vclock[core])
        )
        self._vclock[chosen.core_id] += self.quantum
        return chosen

    def virtual_clock(self, core_id: int) -> int:
        """Expose a core's virtual time (tests/diagnostics)."""
        return self._vclock[core_id]

    @classmethod
    def describe_hardware(cls, num_cores: int) -> HardwareCost:
        return HardwareCost(
            per_core_bits=32,
            global_bits=32,
            notes="32b virtual clock/core + system virtual-time floor",
        )


@register_policy("STFM")
class StallTimeFairPolicy(SchedulingPolicy):
    """Approximate stall-time fairness: serve the most-slowed-down core.

    Each core's *slowdown estimate* is the exponentially-smoothed ratio of
    its observed read latencies to ``baseline_latency`` (the unloaded DRAM
    round trip).  The scheduler promotes the core whose estimate is
    largest — the one currently suffering most interference.

    Parameters
    ----------
    baseline_latency:
        Unloaded read latency in cycles (row-miss service + controller
        overhead; the Table 1 value is 144).
    alpha:
        Smoothing factor for the latency estimate.
    """

    def __init__(self, baseline_latency: int = 144, alpha: float = 0.1) -> None:
        super().__init__()
        if baseline_latency < 1:
            raise ValueError("baseline_latency must be >= 1")
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self.baseline_latency = baseline_latency
        self.alpha = alpha
        self._avg_latency: list[float] = []
        self._last_issue: list[int] = []

    def setup(self, num_cores: int, rng: RngStream) -> None:
        super().setup(num_cores, rng)
        self._avg_latency = [float(self.baseline_latency)] * num_cores
        self._last_issue = [0] * num_cores

    def reset(self) -> None:
        n = max(self.num_cores, 1)
        self._avg_latency = [float(self.baseline_latency)] * n
        self._last_issue = [0] * n

    def slowdown(self, core_id: int) -> float:
        """Current slowdown estimate of ``core_id`` (>= ~1)."""
        return self._avg_latency[core_id] / self.baseline_latency

    def select_read(
        self, candidates: Sequence[MemoryRequest], ctx: SchedulingContext
    ) -> MemoryRequest:
        # Fold the waiting time of each candidate's oldest request into its
        # core's latency estimate (observable controller state).
        now = ctx.now
        oldest_wait: dict[int, int] = {}
        for r in candidates:
            w = now - r.arrival_cycle
            if r.core_id not in oldest_wait or w > oldest_wait[r.core_id]:
                oldest_wait[r.core_id] = w
        for core, wait in oldest_wait.items():
            sample = wait + self.baseline_latency
            self._avg_latency[core] += self.alpha * (sample - self._avg_latency[core])
        return self._select_core_then_request(
            candidates, ctx, lambda core: self.slowdown(core)
        )

    @classmethod
    def describe_hardware(cls, num_cores: int) -> HardwareCost:
        return HardwareCost(
            per_core_bits=16,
            notes="16b smoothed-latency estimator/core",
        )


@register_policy("BATCH")
class BatchSchedulingPolicy(SchedulingPolicy):
    """PAR-BS-style batch scheduling.

    Semantics (simplified from the ISCA'08 mechanism):

    * when the current batch is empty, mark up to ``marking_cap`` of the
      oldest pending reads of *each* core as the new batch;
    * marked requests strictly precede unmarked ones — no request waits
      longer than one batch turnaround (starvation freedom);
    * within the batch, cores with fewer marked requests rank higher
      (shortest-job-first maximises the number of unblocked cores), ties
      by the shared random tie-break, oldest within a core.

    The global hit-first rule still applies above this policy, mirroring
    PAR-BS's own row-hit-first ranking.
    """

    def __init__(self, marking_cap: int = 5) -> None:
        super().__init__()
        if marking_cap < 1:
            raise ValueError("marking_cap must be >= 1")
        self.marking_cap = marking_cap
        #: seq numbers of the currently marked (batched) requests
        self._batch: set[int] = set()
        self.batches_formed = 0

    def reset(self) -> None:
        self._batch.clear()
        self.batches_formed = 0

    def _form_batch(self, ctx: SchedulingContext) -> None:
        """Mark the oldest <= marking_cap pending reads of every core."""
        per_core: dict[int, list[MemoryRequest]] = {}
        for r in ctx.queues.reads:
            per_core.setdefault(r.core_id, []).append(r)
        self._batch.clear()
        for reqs in per_core.values():
            reqs.sort(key=lambda r: r.seq)
            for r in reqs[: self.marking_cap]:
                self._batch.add(r.seq)
        self.batches_formed += 1

    def select_read(
        self, candidates: Sequence[MemoryRequest], ctx: SchedulingContext
    ) -> MemoryRequest:
        # Drop marks of requests that have left the queue entirely.
        live = {r.seq for r in ctx.queues.reads}
        self._batch &= live
        if not self._batch:
            self._form_batch(ctx)
        marked = [r for r in candidates if r.seq in self._batch]
        pool = marked if marked else list(candidates)
        # shortest-job-first over *marked* request counts per core
        marked_count: dict[int, int] = {}
        for r in ctx.queues.reads:
            if r.seq in self._batch:
                marked_count[r.core_id] = marked_count.get(r.core_id, 0) + 1
        chosen = self._select_core_then_request(
            pool, ctx, lambda core: -marked_count.get(core, 0)
        )
        self._batch.discard(chosen.seq)
        return chosen

    @classmethod
    def describe_hardware(cls, num_cores: int) -> HardwareCost:
        # One marked bit per queue slot (64-deep read queue) plus a 3-bit
        # marked-request counter per core for the shortest-job ranking.
        return HardwareCost(
            per_core_bits=3,
            global_bits=64,
            notes="marked bit/queue slot + 3b marked-count/core",
        )
