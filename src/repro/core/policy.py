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

Each built-in policy names its selection as data (``read_rule``,
``write_rule``): one of the model kernel's rules ``"oldest"``,
``"hit_first_oldest"``, ``"ranked"`` (step 2 by ``rank_kind``, then step
3) and ``"rotate"`` (round-robin, then step 3), whose bodies are in
``cpu/_core.c``.  At a decision where the policy's method is this base
class's own, the scheduling point runs the rule with no Python call;
otherwise (an override, or a wrap on the class or the instance) it calls
the method.  :func:`oldest`, :func:`hit_first_oldest` and
``_select_core_then_request`` run the same bodies for a Python caller.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.complexity import HardwareCost
from repro.util.rng import RngStream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.controller.queues import RequestQueues
    from repro.controller.request import MemoryRequest
    from repro.dram.dram_system import DramSystem

__all__ = ["RULE_METHODS", "SchedulingContext", "SchedulingPolicy",
           "hit_first_oldest", "oldest"]


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
        #: skips its per-candidate row-hit probes (the selection outcome
        #: is unchanged)
        self.hits_prefiltered = hits_prefiltered

    def is_row_hit(self, req: MemoryRequest) -> bool:
        """Whether ``req`` targets the currently open row of its bank."""
        return self.dram.is_row_hit(req.coord)

    def pending_reads(self, core_id: int) -> int:
        """Outstanding read count of ``core_id`` (the LREQ input)."""
        return self.queues.pending_reads[core_id]


def _rules():
    """The model kernel, which holds every selection rule's body.

    Candidates are kernel ``MemoryRequest`` objects, so the first
    selection loads it; importing a policy module does not.
    """
    from repro.cpu.kernel import kernel

    return kernel


def oldest(candidates: Sequence[MemoryRequest]) -> MemoryRequest:
    """The request with the smallest controller sequence number."""
    return _rules().oldest(candidates)


def hit_first_oldest(
    candidates: Sequence[MemoryRequest], ctx: SchedulingContext
) -> MemoryRequest:
    """Row-buffer hits first, then oldest — the hit-first command rule.

    When the controller pre-applied the global hit-first filter
    (``ctx.hits_prefiltered``) the hit/miss split is degenerate on any
    subset of its candidate list, so the re-filter is skipped outright;
    otherwise each candidate is probed with ``ctx.is_row_hit``.
    """
    return _rules().hit_first_oldest(candidates, ctx)


class SchedulingPolicy:
    """Base class for all memory-access scheduling schemes.

    A subclass either names the kernel rule its reads follow
    (:attr:`read_rule`, with its inputs) or overrides :meth:`select_read`
    in Python.  The shared write path (hit-first, oldest) is
    policy-independent because the paper schedules writes only in drain
    mode, outside the policy's core-ranking logic.
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

    #: the kernel rule the base :meth:`select_read` runs (see the module
    #: docstring); None for a policy that overrides the method
    read_rule: str | None = None

    #: the kernel rule the base :meth:`select_write` runs
    write_rule: str = "hit_first_oldest"

    #: how the ``"ranked"`` rule reads a core's priority from the float64
    #: array ``_rank`` and its pending-read count ``p``: ``"table"`` is
    #: Figure 1's per-core row of ``_rank_depth`` entries, indexed by
    #: ``min(max(p, 1), _rank_depth) - 1`` (a row of depth 1 is a fixed
    #: priority); ``"pending"`` is ``-p`` (no ``_rank``); ``"divide"`` is
    #: ``_rank[core] / max(p, 1)``.  The kernel pins ``_rank`` when the
    #: machine is built; from then on a policy rewrites it in place
    rank_kind: str = "table"
    _rank_depth: int = 1

    def __init__(self) -> None:
        self.num_cores: int = 0

    def setup(self, num_cores: int, rng: RngStream) -> None:
        """Bind the policy to a system; called once before simulation."""
        if num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        self.num_cores = num_cores

    def select_read(
        self, candidates: Sequence[MemoryRequest], ctx: SchedulingContext
    ) -> MemoryRequest:
        """Choose the read request to commit, from a non-empty candidate
        list: :attr:`read_rule`, run by the kernel."""
        return _rules().select(self, candidates, ctx, False)

    def select_write(
        self, candidates: Sequence[MemoryRequest], ctx: SchedulingContext
    ) -> MemoryRequest:
        """Choose the write to commit during a drain: :attr:`write_rule`
        (hit-first, oldest unless a policy says otherwise)."""
        return _rules().select(self, candidates, ctx, True)

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
        selected thread is scheduled'.  It is the kernel's ``"ranked"``
        rule with the priority taken from ``core_priority``, called once
        per core in the order the cores first appear and compared as
        Python compares; one candidate is returned at once.
        """
        return _rules().select_by(candidates, ctx, core_priority)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


#: the base select_read and select_write as defined here: at a decision the
#: kernel runs the policy's rule itself while the policy's method resolves
#: to one of these, and calls the method otherwise
RULE_METHODS = (SchedulingPolicy.select_read, SchedulingPolicy.select_write)
