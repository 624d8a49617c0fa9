"""repro.telemetry — unified, low-overhead instrumentation & trace export.

One :class:`Telemetry` hub per run collects two complementary views:

* a shared event bus (:mod:`repro.telemetry.bus`) the decision log,
  command log and write-drain hysteresis all publish through;
* a periodic time series (:mod:`repro.telemetry.sampler`): per-channel
  bandwidth, data-bus utilisation, row-hit rate, queue depths, per-core
  pending reads, MSHR occupancy and ROB stall fraction.

Exporters (:mod:`repro.telemetry.export`) write JSONL, CSV, and Chrome
trace-event JSON that Perfetto loads — one JSONL schema and one Chrome
writer for single runs and for the fleet traces of the distributed
sweep service (:mod:`repro.telemetry.fleet`, whose coordinator metrics
live in an instrument registry, :mod:`repro.telemetry.registry`);
:mod:`repro.telemetry.report` renders a terminal summary.  Opt-in
request-lifecycle tracing (:mod:`repro.telemetry.spans`,
``Telemetry(capture_spans=True)``) stamps sampled requests at every
stage and :mod:`repro.telemetry.attribution` decomposes them into
additive latency components.  See docs/OBSERVABILITY.md for the tour.

Quick start::

    from repro import Telemetry, run_multicore, workload_by_name
    from repro.telemetry import render_summary, write_chrome_trace

    tm = Telemetry(sample_every=2000, capture_decisions=True)
    result = run_multicore(workload_by_name("4MEM-1"), "LREQ",
                           inst_budget=30_000, telemetry=tm)
    print(render_summary(tm))
    write_chrome_trace(tm, "run.trace.json")
"""

from repro.telemetry.attribution import (
    AttributionReport,
    CoreBreakdown,
    attribute,
    decompose,
    format_attribution,
)
from repro.telemetry.bus import TelemetryBus, TraceEvent
from repro.telemetry.export import (
    JsonlRecorder,
    merge_traces,
    read_jsonl,
    run_metadata,
    write_chrome_trace,
    write_csv,
    write_jsonl,
    write_merged_trace,
    write_spans_jsonl,
)
from repro.telemetry.fleet import (
    FleetMetrics,
    new_run_id,
    prometheus_text,
    render_dashboard,
    write_prometheus,
    write_snapshots,
)
from repro.telemetry.hub import Telemetry
from repro.telemetry.profiling import EngineProfiler
from repro.telemetry.registry import Counter, Histogram, TelemetryRegistry
from repro.telemetry.report import render_summary
from repro.telemetry.sampler import ChannelSample, CoreSample, Sample, Sampler
from repro.telemetry.spans import RequestSpan, SpanCollector

__all__ = [
    "Telemetry",
    "TelemetryBus",
    "TraceEvent",
    "TelemetryRegistry",
    "Counter",
    "Histogram",
    "Sampler",
    "Sample",
    "ChannelSample",
    "CoreSample",
    "RequestSpan",
    "SpanCollector",
    "AttributionReport",
    "CoreBreakdown",
    "attribute",
    "decompose",
    "format_attribution",
    "run_metadata",
    "write_jsonl",
    "JsonlRecorder",
    "read_jsonl",
    "write_csv",
    "write_chrome_trace",
    "write_spans_jsonl",
    "merge_traces",
    "write_merged_trace",
    "render_summary",
    "FleetMetrics",
    "new_run_id",
    "prometheus_text",
    "write_prometheus",
    "write_snapshots",
    "render_dashboard",
    "EngineProfiler",
]
