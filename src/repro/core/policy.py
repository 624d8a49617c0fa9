"""Scheduling-policy interface and shared selection helpers.

A policy is consulted at each per-channel scheduling point with the list of
candidate requests (already filtered to that channel and to the correct
kind — reads normally, writes in drain mode) and a
:class:`SchedulingContext` exposing exactly the state a real controller
could see: the cycle, per-core outstanding-request counters, and row-buffer
hit status.  The policy returns the single request to commit.

Precedence, following the paper exactly:

1. **hit-first, globally** — 'memory commands are issued according to the
   hit-first policy' (Section 4.1) and 'row buffer hits have higher
   priority than ... row buffer misses' (Section 3.2): when any candidate
   hits an open row, only row-hit candidates are eligible, *regardless of
   core priority*.  This is what keeps core-aware policies from breaking
   row-hit chains and losing DRAM efficiency; policies that predate
   hit-first (plain FCFS/RF) opt out via :attr:`~SchedulingPolicy.
   hit_first_global`.
2. the policy's core-selection rule (round-robin, fewest-pending,
   memory-efficiency, ...), with ties between cores broken randomly
   ('a tie of equal priority may be broken by a random selection');
3. oldest-first within the chosen core ('the first read request of the
   selected thread is scheduled').
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Sequence

from repro.controller.request import MemoryRequest
from repro.core.complexity import HardwareCost
from repro.util.rng import RngStream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.controller.queues import RequestQueues
    from repro.dram.dram_system import DramSystem

__all__ = ["SchedulingContext", "SchedulingPolicy", "hit_first_oldest", "oldest"]


class SchedulingContext:
    """Controller state visible to a policy at a scheduling point."""

    __slots__ = ("now", "channel", "queues", "dram", "rng", "hits_prefiltered")

    def __init__(
        self,
        now: int,
        channel: int,
        queues: "RequestQueues",
        dram: "DramSystem",
        rng: RngStream,
        hits_prefiltered: bool = False,
    ) -> None:
        self.now = now
        self.channel = channel
        self.queues = queues
        self.dram = dram
        self.rng = rng
        #: the controller already applied the global hit-first rule to the
        #: candidate list: either every candidate is a row hit or none is,
        #: and that also holds for any per-core subset — so
        #: :func:`hit_first_oldest` provably reduces to :func:`oldest` and
        #: skips its per-candidate row-hit probes (a hot-path win; the
        #: selection outcome is unchanged)
        self.hits_prefiltered = hits_prefiltered

    def is_row_hit(self, req: MemoryRequest) -> bool:
        """Whether ``req`` targets the currently open row of its bank."""
        return self.dram.is_row_hit(req.coord)

    def pending_reads(self, core_id: int) -> int:
        """Outstanding read count of ``core_id`` (the LREQ input)."""
        return self.queues.pending_reads[core_id]


_by_seq = attrgetter("seq")


def oldest(candidates: Sequence[MemoryRequest]) -> MemoryRequest:
    """The request with the smallest controller sequence number."""
    return min(candidates, key=_by_seq)


def hit_first_oldest(
    candidates: Sequence[MemoryRequest], ctx: SchedulingContext
) -> MemoryRequest:
    """Row-buffer hits first, then oldest — the hit-first command rule.

    When the controller pre-applied the global hit-first filter
    (``ctx.hits_prefiltered``) the hit/miss split is degenerate on any
    subset of its candidate list, so the re-filter is skipped outright.
    """
    if len(candidates) == 1:
        return candidates[0]
    if ctx.hits_prefiltered:
        return min(candidates, key=_by_seq)
    hits = [r for r in candidates if ctx.is_row_hit(r)]
    return oldest(hits) if hits else oldest(candidates)


class SchedulingPolicy(ABC):
    """Base class for all memory-access scheduling schemes.

    Subclasses implement :meth:`select_read`; the shared write path
    (hit-first, oldest) is policy-independent because the paper schedules
    writes only in drain mode, outside the policy's core-ranking logic.
    """

    #: registry name; subclasses override
    name: str = "abstract"

    #: apply the paper's global hit-first command rule before this
    #: policy's selection (Section 4.1); FCFS/RF opt out
    hit_first_global: bool = True

    #: construction takes the profiled memory-efficiency vector
    #: (``me_values``, Eq. 1), so this policy's runs depend on the offline
    #: ME profile; ME and ME-LREQ opt in
    reads_me: bool = False

    def __init__(self) -> None:
        self.num_cores: int = 0

    def setup(self, num_cores: int, rng: RngStream) -> None:
        """Bind the policy to a system; called once before simulation."""
        if num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        self.num_cores = num_cores

    @abstractmethod
    def select_read(
        self, candidates: Sequence[MemoryRequest], ctx: SchedulingContext
    ) -> MemoryRequest:
        """Choose the read request to commit, from a non-empty candidate list."""

    def select_write(
        self, candidates: Sequence[MemoryRequest], ctx: SchedulingContext
    ) -> MemoryRequest:
        """Choose the write to commit during a drain (hit-first, oldest)."""
        return hit_first_oldest(candidates, ctx)

    def on_read_complete(self, core_id: int, bytes_moved: int, now: int) -> None:
        """Completion hook (used by the online-ME extension); default no-op."""

    def reset(self) -> None:
        """Clear any dynamic state between runs; default no-op."""

    @classmethod
    def describe_hardware(cls, num_cores: int) -> HardwareCost:
        """Scheduling-state cost of this policy on an ``num_cores`` system.

        The default is the all-zeros sheet — correct for the stateless
        schemes (FCFS/RF/HF-RF), whose age and row-hit inputs are
        controller baseline state charged to every policy alike.  Stateful
        policies override this; the arena prints the result as its
        hardware-complexity column (see :mod:`repro.core.complexity`).
        """
        return HardwareCost()

    # -- shared core-selection machinery --------------------------------------

    def _select_core_then_request(
        self,
        candidates: Sequence[MemoryRequest],
        ctx: SchedulingContext,
        core_priority: Callable[[int], float],
    ) -> MemoryRequest:
        """Pick the core with maximal ``core_priority`` among those with a
        candidate on this channel (random tie-break), then that core's
        hit-first/oldest request.

        This is the two-level structure of Section 3.2: 'select the thread
        with the highest priority, and then the first read request of the
        selected thread is scheduled'.
        """
        if len(candidates) == 1:
            # One candidate: one core, no tie-break draw, one request.
            return candidates[0]
        by_core: dict[int, list[MemoryRequest]] = {}
        for r in candidates:
            by_core.setdefault(r.core_id, []).append(r)
        best_cores: list[int] = []
        best_prio = float("-inf")
        for core_id in by_core:
            p = core_priority(core_id)
            if p > best_prio:
                best_prio = p
                best_cores = [core_id]
            elif p == best_prio:
                best_cores.append(core_id)
        if len(best_cores) == 1:
            chosen = best_cores[0]
        else:
            chosen = best_cores[ctx.rng.randint(0, len(best_cores))]
        return hit_first_oldest(by_core[chosen], ctx)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
