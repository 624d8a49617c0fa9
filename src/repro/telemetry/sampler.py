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

from repro.util.counters import int64s
from repro.util.units import seconds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.hub import Telemetry

__all__ = ["ChannelSample", "CoreSample", "Sample", "Sampler"]


@dataclass(slots=True)
class ChannelSample:
    """One logic channel over one epoch.

    The sample records are plain slotted dataclasses, not frozen (frozen
    init goes through ``object.__setattr__`` per field, and the sampler
    builds one record per channel and core every epoch).  Treat instances
    as immutable all the same.
    """

    # The sampler builds these records positionally: keep the field order.
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


@dataclass(slots=True)
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


@dataclass(slots=True)
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
        # The model kernel's epoch() reads what a sample holds where the
        # kernel keeps it (each channel's counters and per-bank hits, each
        # core's cursors and MSHR occupancy, the per-core pending reads,
        # the queues, the engine's counters) and builds the epoch's
        # Sample; _prev keeps the cumulative values of the last epoch, for
        # the deltas.
        from repro.cpu.kernel import kernel

        self._epoch = kernel.epoch
        self._prev = int64s(4 * len(system.dram.channels)
                            + 2 * len(system.cores) + 2)
        self._engine = system.engine

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Arm the first tick (call once, before the system runs)."""
        self._engine.schedule(self.every, self._tick)

    def _tick(self, now: int) -> None:
        self.ticks += 1
        self._take(now)
        if not self.system.all_finished:
            self._engine.schedule(now + self.every, self._tick)

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
        span = now - self._last_cycle
        if span <= 0:
            return
        self._last_cycle = now
        system = self.system
        self.telemetry.samples.append(self._epoch(
            system.controller, system.cores, self._engine, self._prev, now,
            span, seconds(span), Sample, ChannelSample, CoreSample))
