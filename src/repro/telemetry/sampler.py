"""Periodic time-series sampling of a running simulation.

The :class:`Sampler` rides the :class:`~repro.sim.engine.EventEngine`:
every ``sample_every`` cycles it snapshots cheap cumulative counters the
components already maintain (channel transaction/byte/burst counts, core
commit and stall accumulators, queue occupancies) and appends one
:class:`Sample` of *epoch deltas* to the owning
:class:`~repro.telemetry.hub.Telemetry`.  Reading existing counters at
epoch boundaries — instead of instrumenting every event — is what keeps
the subsystem's overhead a fraction of a percent even when enabled, and
exactly zero when disabled (no tick events are ever scheduled).

Sampler ticks are strictly read-only observers: they mutate no simulator
state, so a run produces bit-identical results with sampling on or off
(the telemetry test suite locks this in).

Epoch boundaries: ticks fire at ``E, 2E, 3E, ...``; the engine stops the
moment the last core crosses its budget, and :meth:`Sampler.finalize`
then emits one trailing partial epoch covering ``(last_tick, end]`` so
the series always accounts for the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.util.units import gbps

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.hub import Telemetry

__all__ = ["ChannelSample", "CoreSample", "Sample", "Sampler"]


@dataclass(frozen=True)
class ChannelSample:
    """One logic channel over one epoch."""

    index: int
    #: DRAM bytes moved this epoch (reads + writes)
    bytes: int
    bw_gbps: float
    #: fraction of the epoch the data bus spent bursting
    bus_util: float
    #: row-buffer hit fraction among this epoch's transactions
    row_hit_rate: float
    reads: int
    writes: int


@dataclass(frozen=True)
class CoreSample:
    """One core over one epoch."""

    index: int
    #: instructions committed this epoch
    committed: int
    ipc: float
    #: demand reads waiting in the controller buffer (instantaneous)
    pending_reads: int
    #: outstanding line misses in this core's MSHR file (instantaneous)
    mshr_occupancy: int
    #: instructions in flight between fetch and commit (instantaneous)
    rob_occupancy: int
    #: fraction of the epoch commit sat stalled under a head load
    rob_stall_frac: float


@dataclass(frozen=True)
class Sample:
    """One telemetry epoch: per-channel and per-core deltas plus queue state."""

    #: cycle the epoch ended (the tick cycle, or run end for the tail)
    cycle: int
    #: epoch length in cycles (== sample_every except for the final tail)
    span: int
    channels: tuple[ChannelSample, ...]
    cores: tuple[CoreSample, ...]
    #: controller read-queue depth at the tick (instantaneous)
    read_queue: int
    #: controller write-queue depth at the tick (instantaneous)
    write_queue: int
    #: whether the write-drain hysteresis was engaged at the tick
    drain_mode: bool
    #: engine events processed during the epoch
    events: int
    #: past-cycle schedules clamped during the epoch
    clamped_events: int


class Sampler:
    """Epoch-boundary snapshotter for one :class:`MultiCoreSystem`."""

    def __init__(self, telemetry: "Telemetry", system) -> None:
        self.telemetry = telemetry
        self.system = system
        self.every = telemetry.sample_every
        if self.every < 1:
            raise ValueError("sample_every must be >= 1")
        #: tick events actually executed (== samples taken at boundaries)
        self.ticks = 0
        self._last_cycle = 0
        self._finalized = False
        # Previous cumulative counter values, for delta computation.
        nch = len(system.dram.channels)
        ncore = system.config.num_cores
        self._ch_tx = [0] * nch
        self._ch_hits = [0] * nch
        self._ch_data_cycles = [0] * nch
        self._ch_writes = [0] * nch
        self._core_committed = [0] * ncore
        self._core_stall_q = [0] * ncore
        self._events = 0
        self._clamped = 0

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Arm the first tick (call once, before the system runs)."""
        self.system.engine.schedule(self.every, self._tick)

    def _tick(self, now: int) -> None:
        self.ticks += 1
        self._take(now)
        if not self.system.all_finished:
            self.system.engine.schedule(now + self.every, self._tick)

    def finalize(self, end_cycle: int | None = None) -> None:
        """Emit the trailing partial epoch after the run stops."""
        if self._finalized:
            return
        self._finalized = True
        end = end_cycle if end_cycle is not None else self.system.engine.now
        if end > self._last_cycle:
            self._take(end)

    # -- snapshotting -------------------------------------------------------------

    def _take(self, now: int) -> None:
        system = self.system
        span = now - self._last_cycle
        if span <= 0:
            return
        line_bytes = system.config.line_bytes

        channels = []
        for i, ch in enumerate(system.dram.channels):
            d_tx = ch.transactions - self._ch_tx[i]
            d_hits = ch.total_row_hits - self._ch_hits[i]
            d_data = ch.data_cycles - self._ch_data_cycles[i]
            d_wr = ch.writes - self._ch_writes[i]
            self._ch_tx[i] = ch.transactions
            self._ch_hits[i] = ch.total_row_hits
            self._ch_data_cycles[i] = ch.data_cycles
            self._ch_writes[i] = ch.writes
            nbytes = d_tx * line_bytes
            channels.append(
                ChannelSample(
                    index=i,
                    bytes=nbytes,
                    bw_gbps=gbps(nbytes, span),
                    bus_util=min(d_data / span, 1.0),
                    row_hit_rate=d_hits / d_tx if d_tx else 0.0,
                    reads=d_tx - d_wr,
                    writes=d_wr,
                )
            )

        ctrl = system.controller
        q = ctrl.queues
        pending_reads = list(q.pending_reads)
        read_q = len(q.reads)
        write_q = len(q.writes)
        drain = ctrl.drain_mode

        Q = system.config.core.issue_width
        cores = []
        for i, core in enumerate(system.cores):
            d_committed = core.committed - self._core_committed[i]
            d_stall = core.stall_q - self._core_stall_q[i]
            self._core_committed[i] = core.committed
            self._core_stall_q[i] = core.stall_q
            cores.append(
                CoreSample(
                    index=i,
                    committed=d_committed,
                    ipc=d_committed / span,
                    pending_reads=pending_reads[i],
                    mshr_occupancy=system.hierarchy.mshrs[i].occupancy,
                    rob_occupancy=core.fetched - core.committed,
                    rob_stall_frac=min(d_stall / (Q * span), 1.0),
                )
            )

        engine = system.engine
        d_events = engine.events_processed - self._events
        d_clamped = engine.clamped_events - self._clamped
        self._events = engine.events_processed
        self._clamped = engine.clamped_events

        self._last_cycle = now
        self.telemetry.samples.append(
            Sample(
                cycle=now,
                span=span,
                channels=tuple(channels),
                cores=tuple(cores),
                read_queue=read_q,
                write_queue=write_q,
                drain_mode=drain,
                events=d_events,
                clamped_events=d_clamped,
            )
        )
