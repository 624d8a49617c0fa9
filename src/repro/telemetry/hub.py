"""The per-run telemetry hub: event bus + sampled series + spans.

One :class:`Telemetry` instance accompanies one simulation run.  Pass it
to :class:`~repro.sim.system.MultiCoreSystem` (or the
:func:`~repro.sim.runner.run_multicore` helpers, or the CLI's
``--telemetry`` flag) and after the run it holds what happened:

* ``bus``      — the discrete event stream (drain windows, decisions,
  commands) every producer shares;
* ``samples``  — the periodic time series the
  :class:`~repro.telemetry.sampler.Sampler` took;
* ``spans``    — the sampled request lifecycles, when captured.

Exporters in :mod:`repro.telemetry.export` turn a hub into JSONL, CSV or
a Chrome/Perfetto trace;
:func:`repro.telemetry.report.render_summary` renders it for a terminal.

When no hub is attached the simulator schedules no sampler ticks and
emits no events — disabled telemetry is the absence of work, not work
that is discarded.
"""

from __future__ import annotations

from repro.telemetry.bus import TelemetryBus
from repro.telemetry.sampler import Sample

__all__ = ["Telemetry"]


class Telemetry:
    """Everything observed about one run.

    Parameters
    ----------
    sample_every:
        Sampler epoch length in CPU cycles.
    capture_decisions / capture_commands:
        Opt-in high-volume streams: per-decision and per-DRAM-command
        events on the bus.  The periodic series does not need them; the
        Chrome trace is far richer with them.
    capture_spans / span_sample:
        Opt-in per-request lifecycle tracing
        (:mod:`repro.telemetry.spans`): every ``span_sample``-th memory
        request carries a stage-stamped span record, decomposable into
        additive latency components by
        :func:`repro.telemetry.attribution.attribute`.  ``span_sample=1``
        traces every request.
    """

    def __init__(
        self,
        sample_every: int = 1000,
        capture_decisions: bool = False,
        capture_commands: bool = False,
        capture_spans: bool = False,
        span_sample: int = 64,
    ) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.capture_decisions = capture_decisions
        self.capture_commands = capture_commands
        self.bus = TelemetryBus()
        self.samples: list[Sample] = []
        #: request-lifecycle span collector, or None when not capturing
        self.spans = None
        if capture_spans:
            from repro.telemetry.spans import SpanCollector

            self.spans = SpanCollector(sample_every=span_sample)
        #: free-form run description exporters embed (policy, mix, seed...)
        self.meta: dict = {}

    # -- convenience -------------------------------------------------------------

    @property
    def end_cycle(self) -> int:
        """Last sampled cycle (0 before any sample)."""
        return self.samples[-1].cycle if self.samples else 0

    def series(self, picker) -> list[tuple[int, float]]:
        """Extract ``(cycle, value)`` pairs via ``picker(sample)``."""
        return [(s.cycle, picker(s)) for s in self.samples]

    def totals(self) -> dict:
        """Whole-run aggregates of the sampled series."""
        if not self.samples:
            return {}
        cycles = sum(s.span for s in self.samples)
        nch = len(self.samples[0].channels)
        ncore = len(self.samples[0].cores)
        ch_bytes = [0] * nch
        ch_tx = [0] * nch
        ch_hits = 0.0
        tx_total = 0
        for s in self.samples:
            for c in s.channels:
                ch_bytes[c.index] += c.bytes
                tx = c.reads + c.writes
                ch_tx[c.index] += tx
                ch_hits += c.row_hit_rate * tx
                tx_total += tx
        committed = [0] * ncore
        for s in self.samples:
            for c in s.cores:
                committed[c.index] += c.committed
        return {
            "cycles": cycles,
            "channel_bytes": ch_bytes,
            "channel_transactions": ch_tx,
            "row_hit_rate": ch_hits / tx_total if tx_total else 0.0,
            "committed": committed,
            "events": sum(s.events for s in self.samples),
            "clamped_events": sum(s.clamped_events for s in self.samples),
        }
