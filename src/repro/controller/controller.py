"""The memory controller: per-channel scheduling, write drain, statistics.

This is the component the paper modifies.  Responsibilities:

* accept line requests from the cache hierarchy into the shared buffer
  (back-pressure when the 64-entry buffer is full);
* at each per-channel scheduling point, choose the next transaction via the
  active :class:`~repro.core.policy.SchedulingPolicy` — reads normally,
  writes when the drain hysteresis is engaged (write queue above half the
  buffer, drain until a quarter; Section 3.2/4.1) or opportunistically when
  a channel has no pending reads;
* decide the page policy per transaction (close-page default: keep the row
  open only while another queued request targets it);
* add the fixed controller overhead (15 ns) to every read's return path and
  deliver completions back to the cores through the event engine.

Scheduling cadence: one transaction is committed per channel per burst
slot — the next decision point is the previous burst's data-start cycle, so
bank preparation (ACT/PRE) overlaps data transfer, giving bank-level
parallelism without letting the scheduler commit far into the future.

``enqueue``, the scheduling point (``_fast_point``) and completion
delivery (``_fast_deliver``) run in the model kernel's ``ControllerKernel``
(``cpu/_core.c``).  ``enqueue`` decodes the request's address itself,
with the mapper's bit layout read once, at construction.  A scheduling point reads and writes the channel's bank
vectors (:class:`~repro.dram.channel.Channel`) in place, resolves the
committed transaction's DDR2 timing there (the one copy of that model),
reports it to each of ``dram.observers``, and routes its two event
shapes through the engine's per-channel lanes (decision slots and read
completions) instead of the heap.  At each decision it runs the selection
rule the policy names (:mod:`repro.core.policy`) itself, while the
policy's ``select_read``/``select_write`` is the base method that runs
that rule; otherwise (a policy that selects in Python, an override, a
wrapped method) it calls the method, looked up on the policy, with the
candidate list.  What stays here is construction and the rare paths: the write-drain transition
(:meth:`FastMemoryController._update_drain_mode`) and ``close``.

The class is defined as ``FastMemoryController``, and
``repro.controller.fast`` re-exports it, because ``bench/ledger.py``
wraps its entry points by that qualified name; the rest of the package
uses :data:`MemoryController`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import ControllerConfig
from repro.controller.queues import RequestQueues
from repro.core.policy import RULE_METHODS, SchedulingContext, SchedulingPolicy
from repro.cpu.kernel import kernel
from repro.dram.channel import TransactionTiming
from repro.dram.dram_system import DramSystem
from repro.util.counters import Counters, int64s
from repro.util.rng import RngStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import EventEngine
    from repro.telemetry.hub import Telemetry

__all__ = ["ControllerStats", "MemoryController"]

#: bus track drain windows and request spans render on
TRACK = "controller"


class ControllerStats(Counters):
    """Per-core and global memory-traffic statistics.

    The six per-core vectors are ``array('q')``; ``read_row_hits`` and
    ``drain_entries`` are counters.  The model kernel updates all of them
    in place (:mod:`repro.util.counters`).
    """

    __slots__ = (
        "read_count",
        "read_latency_sum",
        "read_latency_max",
        "bytes_read",
        "bytes_written",
        "write_count",
    )
    FIELDS = ("read_row_hits", "drain_entries")

    def __init__(self, num_cores: int) -> None:
        super().__init__()
        self.read_count = int64s(num_cores)
        self.read_latency_sum = int64s(num_cores)
        self.read_latency_max = int64s(num_cores)
        self.bytes_read = int64s(num_cores)
        self.bytes_written = int64s(num_cores)
        self.write_count = int64s(num_cores)

    def avg_read_latency(self, core_id: int | None = None) -> float:
        """Average read latency in cycles, per core or overall."""
        if core_id is None:
            n = sum(self.read_count)
            s = sum(self.read_latency_sum)
        else:
            n = self.read_count[core_id]
            s = self.read_latency_sum[core_id]
        return s / n if n else 0.0

    def total_bytes(self, core_id: int) -> int:
        """All DRAM bytes moved on behalf of ``core_id`` (reads + writes)."""
        return self.bytes_read[core_id] + self.bytes_written[core_id]


ControllerKernel = kernel.ControllerKernel


class FastMemoryController(ControllerKernel):
    """Policy-driven DDR2 memory controller.

    ``engine``, ``dram``, ``policy``, ``queues`` (the shared
    :class:`~repro.controller.queues.RequestQueues` buffer), ``stats``
    (:class:`ControllerStats`), ``drain_mode`` and ``spans`` are kernel
    fields.  Requests whose bank is busy beyond ``now + 2 * tBurst`` are
    ineligible at a scheduling point (committing to a still-busy bank
    would wedge the data bus behind it), and the point re-arms at the
    earliest cycle one becomes eligible.
    """

    # The kernel's entry points, named in this class's own namespace so
    # instrumentation can wrap them by name before a machine is built.
    enqueue = ControllerKernel.enqueue
    _fast_point = ControllerKernel._fast_point
    _fast_deliver = ControllerKernel._fast_deliver

    def __init__(
        self,
        config: ControllerConfig,
        dram: DramSystem,
        policy: SchedulingPolicy,
        num_cores: int,
        engine: "EventEngine",
        rng: RngStream,
        line_bytes: int = 64,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        config.validate()
        self.config = config
        self.num_cores = num_cores
        self.rng = rng
        self.line_bytes = line_bytes
        #: telemetry hub; drain-mode transitions publish spans on its bus
        #: (None in normal runs — read only on the rare transitions)
        self.telemetry = telemetry
        #: request-lifecycle span collector (None unless the hub captures
        #: spans; the per-commit guard is one field test)
        self.spans = telemetry.spans if telemetry is not None else None
        policy.setup(num_cores, rng.child("policy"))
        queues = RequestQueues(config.buffer_entries, num_cores)
        # Completion-side policy notification: the base
        # ``on_read_complete`` is a documented no-op, so it is not called
        # unless the bound policy overrides it (online-ME does).
        notify = (
            getattr(policy.on_read_complete, "__func__", None)
            is not SchedulingPolicy.on_read_complete
        )
        self._bind(
            engine=engine,
            dram=dram,
            policy=policy,
            queues=queues,
            stats=ControllerStats(num_cores),
            # One reusable scheduling context, its now/channel updated at
            # each decision (policies only read it during the select
            # call); hits_prefiltered is a property of the bound policy,
            # which the kernel reads once, at _bind.
            ctx=SchedulingContext(
                0, 0, queues, dram, rng,
                hits_prefiltered=policy.hit_first_global,
            ),
            transaction_timing=TransactionTiming,
            on_read_complete=policy.on_read_complete if notify else None,
            rule_methods=RULE_METHODS,
            write_drain_high=config.write_drain_high,
            write_drain_low=config.write_drain_low,
            overhead=config.overhead,
            line_bytes=line_bytes,
            open_page=config.page_policy == "open",
        )
        engine.attach_channels(len(dram.channels), self._fast_point,
                               self._fast_deliver)

    def close(self) -> None:
        """Drop the space waiters and the completion callbacks of requests
        still queued, which reach back into the cache hierarchy (see
        :meth:`~repro.sim.system.MultiCoreSystem.close`)."""
        self._unbind()
        for req in self.queues.reads:
            req.on_complete = None

    def _update_drain_mode(self, now: int) -> None:
        """Perform the write-drain transition the kernel found due.

        The kernel holds the hysteresis test (at every enqueue and
        scheduling point): a drain begins at ``write_drain_high`` queued
        writes and ends at ``write_drain_low``.  This flips the mode,
        counts the drain and publishes it on the telemetry bus.
        """
        self.drain_mode = not self.drain_mode
        if self.drain_mode:
            self.stats.drain_entries += 1
        if self.telemetry is not None:
            self.telemetry.bus.emit(
                "write_drain", "begin" if self.drain_mode else "end", now,
                TRACK, writes=len(self.queues.writes),
            )


#: the memory controller (see the module docstring for the defined name)
MemoryController = FastMemoryController
