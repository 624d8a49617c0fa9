"""Per-request lifecycle spans.

One :class:`RequestSpan` follows a sampled memory request through every
stage of its life — core issue, structural stall, controller enqueue,
scheduler pick, bank preparation (ACT/PRE), data-bus transfer, and the
return path — stamping the cycle of each transition.  The stamps are
pure observations: the hooks that fill them (in
:mod:`repro.cache.hierarchy`, :mod:`repro.cpu.core_model`,
:mod:`repro.controller.controller` and the
:class:`~repro.dram.channel.TransactionTiming` the channel resolves)
read simulator state but never change it, so a run with spans enabled is
bit-identical to one without.

Sampling is deterministic: the :class:`SpanCollector` traces every
``sample_every``-th request it is offered (a plain counter, no RNG), so
the *set* of traced requests is reproducible across runs and policies.
``sample_every=1`` traces everything.

The post-run decomposition of a span into additive latency components —
with the conservation invariant that components sum exactly to the
end-to-end latency — lives in :mod:`repro.telemetry.attribution`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import DramTimingConfig

__all__ = ["RequestSpan", "SpanCollector"]


class RequestSpan:
    """Cycle stamps for one traced memory request.

    Stage timeline (cycles, all stamped by observation hooks)::

        first_attempt   core first tried to issue the access (== arrival
                        unless a structural stall blocked the front end)
        arrival         request entered the controller buffer (this is
                        also the cycle the MSHR entry was allocated —
                        allocation and enqueue are atomic in this model)
        pick            the scheduler committed the request
        bank_start      earliest cycle its bank could start work
                        (pick .. bank_start = bank busy with prior work)
        cas             the column command issued (bank_start .. cas =
                        row activation: tRCD, plus tRP on a conflict,
                        plus any tRRD/tFAW throttle)
        data_start      first cycle of the data burst (cas + tCL ..
                        data_start = waiting for the shared data bus)
        data_end        last cycle of the data burst
        done            data delivered core-side (data_end + controller
                        overhead for reads; == data_end for writes)
    """

    __slots__ = (
        "core_id",
        "addr",
        "kind",
        "first_attempt",
        "arrival",
        "pick",
        "bank_start",
        "cas",
        "data_start",
        "data_end",
        "done",
        "row_hit",
        "conflict",
        "channel",
        "bank",
        "row",
        "track",
        "merged_waiters",
    )

    def __init__(self, core_id: int, addr: int, kind: str, cycle: int) -> None:
        self.core_id = core_id
        self.addr = addr
        #: "read" | "write"
        self.kind = kind
        self.first_attempt = cycle
        self.arrival = cycle
        self.pick = -1
        self.bank_start = -1
        self.cas = -1
        self.data_start = -1
        self.data_end = -1
        self.done = -1
        self.row_hit = False
        self.conflict = False
        self.channel = -1
        self.bank = -1
        self.row = -1
        #: bus track of the owning controller ("controller" or
        #: "controller-chN"), for matching write-drain windows
        self.track = "controller"
        #: later same-line misses that merged onto this in-flight request
        self.merged_waiters = 0

    @property
    def complete(self) -> bool:
        return self.done >= 0

    @property
    def latency(self) -> int:
        """End-to-end cycles from first issue attempt to data delivery."""
        return self.done - self.first_attempt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestSpan({self.kind} core={self.core_id} addr={self.addr:#x} "
            f"{self.first_attempt}->{self.done})"
        )


class SpanCollector:
    """Deterministic 1-in-N request tracer attached to a Telemetry hub.

    The collector is handed to every producer at system-assembly time
    (:class:`~repro.sim.system.MultiCoreSystem` wires it); producers call
    it only from already-slow paths (miss handling, structural stalls,
    transaction commit), never from per-cycle code.
    """

    __slots__ = (
        "sample_every",
        "max_spans",
        "timing",
        "overhead",
        "completed",
        "dropped",
        "offered",
        "_count",
        "_blocked",
        "_inflight",
    )

    def __init__(self, sample_every: int = 64, max_spans: int = 200_000) -> None:
        if sample_every < 1:
            raise ValueError("span sample_every must be >= 1")
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.sample_every = sample_every
        #: retention cap; spans past it are counted in ``dropped``
        self.max_spans = max_spans
        #: DRAM timing of the run (attribution needs tCL); wired by the system
        self.timing: "DramTimingConfig | None" = None
        #: controller return-path overhead in cycles; wired by the system
        self.overhead = 0
        self.completed: list[RequestSpan] = []
        self.dropped = 0
        #: requests offered for sampling (traced = offered // sample_every)
        self.offered = 0
        self._count = 0
        #: core_id -> (cycle, line) of the oldest unresolved structural stall
        self._blocked: dict[int, tuple[int, int]] = {}
        #: (core_id, line) -> in-flight traced read span, for merge counting
        self._inflight: dict[tuple[int, int], RequestSpan] = {}

    # -- producer-facing hooks ---------------------------------------------------

    def note_blocked(self, core_id: int, cycle: int, line: int) -> None:
        """A core's access to ``line`` hit a structural stall at ``cycle``.

        Only the first stall per (core, line) is kept: retries of the same
        blocked access must not advance the stamp.  The core kernel
        (``note_blocked`` in ``cpu/_core.c``) does this on ``_blocked``
        itself instead of calling here: keep the two in sync.
        """
        prev = self._blocked.get(core_id)
        if prev is None or prev[1] != line:
            self._blocked[core_id] = (cycle, line)

    def start_request(
        self, core_id: int, line: int, kind: str, cycle: int
    ) -> RequestSpan | None:
        """Offer a newly created request for tracing.

        Returns a span for every ``sample_every``-th offer, else ``None``.
        A demand read consumes any pending structural-stall stamp for its
        core either way, so a stale stamp can never leak onto a later
        request (writebacks are not core-issued and leave the stamp
        alone).  For a read this call would not sample, the hierarchy
        kernel (``offer_read`` in ``cpu/_core.c``) pops the stamp and
        counts the offer on this collector itself, without the call:
        keep the two in sync.
        """
        blocked = self._blocked.pop(core_id, None) if kind == "read" else None
        self.offered += 1
        self._count += 1
        if self._count < self.sample_every:
            return None
        self._count = 0
        if len(self.completed) >= self.max_spans:
            self.dropped += 1
            return None
        span = RequestSpan(core_id, line, kind, cycle)
        if blocked is not None and blocked[1] == line:
            span.first_attempt = blocked[0]
        if kind != "write":
            # Reads own an MSHR entry until the fill returns; later
            # misses can merge onto them.
            self._inflight[(core_id, line)] = span
        return span

    def note_merge(self, core_id: int, line: int, _now: int) -> None:
        """A later miss merged onto an in-flight line of ``core_id``."""
        span = self._inflight.get((core_id, line))
        if span is not None:
            span.merged_waiters += 1

    def finish(self, span: RequestSpan) -> None:
        """Record a span whose request just committed (all stamps set).

        The in-flight registration survives until :meth:`end_inflight` —
        misses may still merge onto the line between the transaction
        commit and the fill delivery.
        """
        self.completed.append(span)

    def end_inflight(self, core_id: int, line: int) -> None:
        """The fill for (core, line) delivered; stop accepting merges.

        Only a sampled read registers, so the fill path calls this only
        for a request that carries a span."""
        self._inflight.pop((core_id, line), None)

    # -- queries -------------------------------------------------------------------

    def per_core(self, num_cores: int | None = None) -> dict[int, list[RequestSpan]]:
        """Completed spans grouped by originating core."""
        out: dict[int, list[RequestSpan]] = {}
        if num_cores is not None:
            for i in range(num_cores):
                out[i] = []
        for s in self.completed:
            out.setdefault(s.core_id, []).append(s)
        return out

    def __len__(self) -> int:
        return len(self.completed)
