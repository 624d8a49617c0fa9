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

from repro.util.counters import Counters, int64s

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


class SpanCollector(Counters):
    """Deterministic 1-in-N request tracer attached to a Telemetry hub.

    The collector is handed to every producer at system-assembly time
    (:class:`~repro.sim.system.MultiCoreSystem` wires it); producers call
    it only from already-slow paths (miss handling, structural stalls,
    transaction commit), never from per-cycle code.  ``offered``
    (requests offered for sampling; traced = offered // sample_every) and
    ``_count`` are counters, and ``_stamps`` holds per core the
    ``(cycle, line)`` of its oldest unresolved structural stall (line -1:
    none): the model kernel updates both in place, through
    :meth:`bind_cores`'s arrays.
    """

    __slots__ = (
        "sample_every",
        "max_spans",
        "timing",
        "overhead",
        "completed",
        "dropped",
        "_stamps",
        "_inflight",
    )
    FIELDS = ("offered", "_count")

    def __init__(self, sample_every: int = 64, max_spans: int = 200_000) -> None:
        if sample_every < 1:
            raise ValueError("span sample_every must be >= 1")
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        super().__init__()
        self.sample_every = sample_every
        #: retention cap; spans past it are counted in ``dropped``
        self.max_spans = max_spans
        #: DRAM timing of the run (attribution needs tCL); wired by the system
        self.timing: "DramTimingConfig | None" = None
        #: controller return-path overhead in cycles; wired by the system
        self.overhead = 0
        self.completed: list[RequestSpan] = []
        self.dropped = 0
        self._stamps = int64s(0)
        #: (core_id, line) -> in-flight traced read span, for merge counting
        self._inflight: dict[tuple[int, int], RequestSpan] = {}

    def bind_cores(self, num_cores: int) -> None:
        """Give ``num_cores`` cores a stall stamp.  A machine calls this
        before it hands the collector to its producers, which keep the
        stamp array they are handed."""
        if len(self._stamps) < 2 * num_cores:
            stamps = int64s(2 * num_cores, -1)
            stamps[: len(self._stamps)] = self._stamps
            self._stamps = stamps

    # -- producer-facing hooks ---------------------------------------------------

    def offer_write(self, core_id: int, line: int, cycle: int
                    ) -> RequestSpan | None:
        """Offer a writeback for tracing: a span for every
        ``sample_every``-th offer, else ``None``.

        The hierarchy kernel offers reads itself (``offer_read`` in
        ``cpu/_core.c``): it counts a read's offer here too, pops its
        core's structural-stall stamp, and registers a sampled read in
        :attr:`_inflight` until its fill returns; the controller kernel
        stamps a committed span and appends it to :attr:`completed`.  A
        writeback is not core-issued and leaves the stamp alone.
        """
        c = self._c  # offered, _count
        c[0] += 1
        c[1] += 1
        if c[1] < self.sample_every:
            return None
        c[1] = 0
        if len(self.completed) >= self.max_spans:
            self.dropped += 1
            return None
        return RequestSpan(core_id, line, "write", cycle)

    def note_merge(self, core_id: int, line: int, _now: int) -> None:
        """A later miss merged onto an in-flight line of ``core_id``."""
        span = self._inflight.get((core_id, line))
        if span is not None:
            span.merged_waiters += 1

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
