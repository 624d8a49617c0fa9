"""Multi-core system assembly.

Builds the full simulated machine from a :class:`~repro.config.SystemConfig`:
event engine, DDR2 DRAM, policy-driven memory controller, shared cache
hierarchy and one trace-driven core per workload stream — then runs it until
every core has committed its instruction budget.

Methodology notes (paper Section 4.1):

* statistics for each core freeze the moment it commits its budget (its
  ``finish_cycle``); the core *keeps executing* so the other cores continue
  to see its memory traffic — the paper's 'reload and keep running';
* the run ends when the last core crosses its budget;
* if the active policy is :class:`~repro.core.me_lreq.OnlineMeLreqPolicy`,
  the system drives its measurement window from per-core commit and DRAM
  byte counters, modelling the performance-counter loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Sequence

from repro.config import SystemConfig
from repro.core.me_lreq import OnlineMeLreqPolicy
from repro.core.policy import SchedulingPolicy
from repro.cpu.trace import TraceSource
from repro.dram.dram_system import DramSystem
from repro.telemetry.hub import Telemetry
from repro.telemetry.sampler import Sampler
from repro.util.rng import RngStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.core_model import TraceCore

__all__ = ["CoreSnapshot", "MultiCoreSystem"]


@dataclass
class CoreSnapshot:
    """Controller-side counters for one core, frozen at a commit crossing."""

    cycle: int
    read_count: int
    read_latency_sum: int
    bytes_read: int
    bytes_written: int

    def minus(self, start: "CoreSnapshot") -> "CoreSnapshot":
        """Counter deltas over a measurement window (finish - warmup)."""
        return CoreSnapshot(
            cycle=self.cycle - start.cycle,
            read_count=self.read_count - start.read_count,
            read_latency_sum=self.read_latency_sum - start.read_latency_sum,
            bytes_read=self.bytes_read - start.bytes_read,
            bytes_written=self.bytes_written - start.bytes_written,
        )

    @property
    def avg_read_latency(self) -> float:
        return self.read_latency_sum / self.read_count if self.read_count else 0.0

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written


class MultiCoreSystem:
    """One fully-assembled simulated machine."""

    def __init__(
        self,
        config: SystemConfig,
        policy: SchedulingPolicy,
        traces: Sequence[TraceSource],
        target_insts: int,
        warmup_insts: int = 0,
        seed: int = 0,
        lookahead: int = 256,
        telemetry: Telemetry | None = None,
    ) -> None:
        """``telemetry`` attaches a :class:`~repro.telemetry.hub.Telemetry`
        hub: a periodic sampler rides the event engine and the controller
        publishes drain windows on the hub's bus.  ``None`` (the default)
        schedules no extra events and costs nothing."""
        config.validate()
        if len(traces) != config.num_cores:
            raise ValueError(
                f"{len(traces)} traces for {config.num_cores} cores"
            )
        # The model kernel's classes: the first machine build loads (and,
        # with an empty kernel cache, builds) the kernel.
        from repro.cache.hierarchy import CacheHierarchy
        from repro.controller.controller import MemoryController
        from repro.cpu.core_model import TraceCore
        from repro.sim.engine import EventEngine

        self.config = config
        self.policy = policy
        self.target_insts = target_insts
        self.warmup_insts = warmup_insts
        self.rng = RngStream(seed, "system")
        self.engine = EventEngine()
        self.dram = DramSystem(
            config.dram_topology, config.dram_timing, config.line_bytes
        )
        self.controller = MemoryController(
            config.controller,
            self.dram,
            policy,
            config.num_cores,
            self.engine,
            self.rng.child("controller"),
            line_bytes=config.line_bytes,
            telemetry=telemetry,
        )
        self.hierarchy = CacheHierarchy(config, self.controller, config.num_cores)
        self.cores = [
            TraceCore(
                core_id=i,
                config=config.core,
                trace=traces[i],
                hierarchy=self.hierarchy,
                engine=self.engine,
                target_insts=target_insts,
                warmup_insts=warmup_insts,
                lookahead=lookahead,
            )
            for i in range(config.num_cores)
        ]
        self.start_snapshots: list[CoreSnapshot | None] = [None] * config.num_cores
        self.snapshots: list[CoreSnapshot | None] = [None] * config.num_cores
        #: cores still short of their budget; the last crossing sets the
        #: engine's ``stop_requested``
        self._unfinished = config.num_cores
        for core in self.cores:
            core.on_warmup = self._make_snapshot_hook(core.core_id, self.start_snapshots)
            core.on_finish = self._make_snapshot_hook(core.core_id, self.snapshots)
        if warmup_insts == 0:
            # Warmup crossing is immediate; snapshot the pristine counters.
            for i in range(config.num_cores):
                self.start_snapshots[i] = CoreSnapshot(0, 0, 0, 0, 0)
        # Online-ME support: a recurring measurement window.
        self._online = policy if isinstance(policy, OnlineMeLreqPolicy) else None
        self._win_committed = [0] * config.num_cores
        self._win_bytes = [0] * config.num_cores
        self._win_start = 0
        # Telemetry: a read-only sampler riding the event engine, plus the
        # opt-in high-volume streams (per-decision / per-command events on
        # the shared bus).
        self.telemetry = telemetry
        self.sampler = Sampler(telemetry, self) if telemetry is not None else None
        self.decision_log = None
        self.command_log = None
        if telemetry is not None and telemetry.spans is not None:
            # Request-lifecycle tracing: hand the collector to every
            # producer that stamps a stage transition.  The controller
            # picked it up from the hub already.
            spans = telemetry.spans
            spans.timing = config.dram_timing
            spans.overhead = config.controller.overhead
            self.hierarchy.spans = spans
            for core in self.cores:
                core.spans = spans
            for i, mshr in enumerate(self.hierarchy.mshrs):
                mshr.on_merge = partial(spans.note_merge, i)
        if telemetry is not None:
            if telemetry.capture_decisions:
                from repro.controller.decision_log import DecisionLog

                self.decision_log = DecisionLog.attach(self.controller, telemetry)
            if telemetry.capture_commands:
                from repro.dram.command import CommandLog

                self.command_log = CommandLog(config.dram_timing).attach(
                    self.dram, telemetry
                )

    # -- finish bookkeeping -----------------------------------------------------

    def _make_snapshot_hook(self, core_id: int, store: list):
        def hook(core: TraceCore) -> None:
            st = self.controller.stats
            cycle = (
                core.finish_cycle
                if store is self.snapshots
                else core.warmup_cycle
            )
            store[core_id] = CoreSnapshot(
                cycle=cycle,
                read_count=st.read_count[core_id],
                read_latency_sum=st.read_latency_sum[core_id],
                bytes_read=st.bytes_read[core_id],
                bytes_written=st.bytes_written[core_id],
            )
            if store is self.snapshots:
                self._unfinished -= 1
                if self._unfinished == 0:
                    # The engine tests this one flag after every event.
                    self.engine.stop_requested = True

        return hook

    def window(self, core_id: int) -> CoreSnapshot:
        """Measurement-window deltas for one core (finish - warmup)."""
        end = self.snapshots[core_id]
        start = self.start_snapshots[core_id]
        if end is None or start is None:
            raise RuntimeError(f"core {core_id} has not finished")
        return end.minus(start)

    @property
    def all_finished(self) -> bool:
        return self._unfinished == 0

    # -- online-ME window -----------------------------------------------------------

    def _window_tick(self, now: int) -> None:
        policy = self._online
        assert policy is not None
        committed = [c.committed for c in self.cores]
        st = self.controller.stats
        bytes_now = [
            st.bytes_read[i] + st.bytes_written[i]
            for i in range(self.config.num_cores)
        ]
        d_committed = [
            committed[i] - self._win_committed[i]
            for i in range(self.config.num_cores)
        ]
        d_bytes = [
            bytes_now[i] - self._win_bytes[i] for i in range(self.config.num_cores)
        ]
        policy.observe_window(d_committed, d_bytes, now - self._win_start)
        self._win_committed = committed
        self._win_bytes = bytes_now
        self._win_start = now
        if not self.all_finished:
            self.engine.schedule(now + policy.window, self._window_tick)

    # -- execution ----------------------------------------------------------------

    def run(self, max_events: int | None = None) -> None:
        """Run until every core commits its budget; more than
        ``max_events`` events raise (a livelock)."""
        for core in self.cores:
            core.start()
        if self._online is not None:
            self.engine.schedule(self._online.window, self._window_tick)
        if self.sampler is not None:
            self.sampler.start()
        self.engine.run(max_events=max_events)
        for core in self.cores:
            core.stop()
        if self.sampler is not None:
            # Flush the trailing partial epoch to the true end of run:
            # commit crossings are interpolated analytically and can land
            # past the last engine event, so engine.now alone would leave
            # the final cycles unsampled.
            end = self.engine.now
            if self.all_finished:
                end = max(end, self.end_cycle)
            self.sampler.finalize(end)
        if not self.all_finished:
            unfinished = [i for i, s in enumerate(self.snapshots) if s is None]
            raise RuntimeError(
                f"cores {unfinished} did not reach {self.target_insts} "
                f"instructions within the simulation bounds"
            )

    def close(self) -> None:
        """Free the finished machine by reference counting.

        A machine is a web of reference cycles: the engine's pending
        events and lane handlers, callbacks bound to the cores, hierarchy
        and controller, in-flight requests, the snapshot hooks and the
        telemetry links that point back at the system.  Only the cycle
        collector could reclaim them.  ``close`` drops them all, so the
        machine is freed the moment its last outside reference goes.  Its
        counters, snapshots, caches and queues stay readable; it cannot
        run again.  :meth:`run` does not close, so a caller may inspect
        the live machine after it.
        """
        self.engine.close()
        self.controller.close()
        self.hierarchy.close()
        for core in self.cores:
            core.close()
        if self.decision_log is not None:
            self.decision_log.detach(self.controller)
        self.dram.observer = None  # the command log's link
        self.sampler = None

    @property
    def end_cycle(self) -> int:
        """Cycle the last core crossed its budget."""
        return max(s.cycle for s in self.snapshots)
