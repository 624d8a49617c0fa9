"""Tests for the repro.telemetry subsystem.

Covers the three ISSUE-mandated properties — disabled-mode no-op
behaviour (bit-identical simulation with telemetry on/off), sampler
epoch math at run boundaries, and exporter round-trip validity — plus
the registry/bus primitives and the decision/command-log bus refactor.
"""

import csv
import json

import pytest

from repro.config import SystemConfig
from repro.controller.decision_log import DecisionLog
from repro.core.registry import make_policy
from repro.metrics.serialize import to_jsonable
from repro.sim.system import MultiCoreSystem
from repro.telemetry import (
    NULL_INSTRUMENT,
    Telemetry,
    TelemetryBus,
    TelemetryRegistry,
    read_jsonl,
    render_summary,
    write_chrome_trace,
    write_csv,
    write_jsonl,
)
from repro.sim.runner import run_multicore
from repro.workloads.mixes import workload_by_name
from repro.workloads.synthetic import make_trace

BUDGET = 4000


def _build_system(telemetry=None, policy="LREQ", cores=2, mix="2MEM-1"):
    m = workload_by_name(mix)
    cfg = SystemConfig().with_cores(cores)
    traces = [
        make_trace(app, 1, "eval", core_id=i) for i, app in enumerate(m.apps())
    ]
    return MultiCoreSystem(
        cfg, make_policy(policy), traces, BUDGET, warmup_insts=1000, seed=1,
        telemetry=telemetry,
    )


@pytest.fixture(scope="module")
def captured():
    """One telemetry-enabled run shared by the read-only assertions."""
    tm = Telemetry(sample_every=1000, capture_decisions=True)
    system = _build_system(tm)
    system.run()
    return tm, system


class TestRegistry:
    def test_counter_gauge_histogram(self):
        reg = TelemetryRegistry()
        c = reg.counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5
        g = reg.gauge("g")
        g.set(2.5)
        assert g.value == 2.5
        h = reg.histogram("h")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        assert h.count == 3 and h.min == 1.0 and h.max == 3.0
        assert h.mean == pytest.approx(2.0)

    def test_same_name_shares_instrument(self):
        reg = TelemetryRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_disabled_registry_returns_null_stubs(self):
        reg = TelemetryRegistry(enabled=False)
        c = reg.counter("c")
        assert c is NULL_INSTRUMENT
        assert c is reg.histogram("h") is reg.gauge("g")
        c.inc()
        c.set(9)
        c.observe(1.0)  # all no-ops
        assert c.value == 0
        assert len(reg) == 0

    def test_snapshot(self):
        reg = TelemetryRegistry()
        reg.counter("a").inc(2)
        reg.histogram("b").observe(4.0)
        snap = reg.snapshot()
        assert snap["a"] == {"kind": "counter", "value": 2}
        assert snap["b"]["count"] == 1 and snap["b"]["mean"] == 4.0


class TestBus:
    def test_emit_retains_and_notifies(self):
        bus = TelemetryBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit("x", "instant", 5, "controller", a=1)
        assert len(bus) == 1
        assert seen[0].args == {"a": 1}
        with pytest.raises(ValueError):
            bus.emit("x", "bogus", 5, "controller")

    def test_span_matching(self):
        bus = TelemetryBus()
        bus.emit("drain", "begin", 10, "controller")
        bus.emit("drain", "end", 30, "controller")
        bus.emit("drain", "begin", 50, "controller")
        assert bus.spans("drain") == [(10, 30, "controller")]
        # open span closed at the supplied end cycle
        assert bus.spans("drain", end_cycle=99) == [
            (10, 30, "controller"),
            (50, 99, "controller"),
        ]

    def test_no_retain_mode(self):
        bus = TelemetryBus(retain=False)
        seen = []
        bus.subscribe(seen.append)
        bus.emit("x", "instant", 1, "t")
        assert len(bus) == 0 and len(seen) == 1


class TestDisabledModeNoOp:
    """Telemetry must be a pure observer: bit-identical simulation."""

    def test_results_identical_with_and_without_telemetry(self):
        off = _build_system(None)
        off.run()
        tm = Telemetry(sample_every=500)
        on = _build_system(tm)
        on.run()
        assert [c.ipc() for c in on.cores] == [c.ipc() for c in off.cores]
        assert [c.committed for c in on.cores] == [c.committed for c in off.cores]
        assert on.end_cycle == off.end_cycle
        assert on.dram.row_hit_rate() == off.dram.row_hit_rate()
        assert on.controller.stats.read_latency_sum == off.controller.stats.read_latency_sum
        # The only event-count difference is the sampler's own ticks.
        assert (
            on.engine.events_processed - off.engine.events_processed
            == on.sampler.ticks
        )

    def test_capture_streams_do_not_perturb_results(self):
        base = run_multicore(
            workload_by_name("2MIX-1"), "HF-RF", inst_budget=BUDGET, seed=2
        )
        tm = Telemetry(sample_every=750, capture_decisions=True,
                       capture_commands=True)
        traced = run_multicore(
            workload_by_name("2MIX-1"), "HF-RF", inst_budget=BUDGET, seed=2,
            telemetry=tm,
        )
        assert traced.ipcs() == base.ipcs()
        assert traced.end_cycle == base.end_cycle
        assert traced.extra["telemetry"] is tm
        assert tm.bus.named("decision")
        assert tm.bus.named("cmd")

    def test_plain_run_schedules_no_sampler(self):
        system = _build_system(None)
        assert system.sampler is None and system.telemetry is None


class TestSamplerEpochMath:
    def test_boundary_ticks_and_final_partial_epoch(self, captured):
        tm, system = captured
        samples = tm.samples
        assert samples, "sampler took no samples"
        every = tm.sample_every
        # All but the last sample land exactly on epoch boundaries.
        for i, s in enumerate(samples[:-1]):
            assert s.cycle == (i + 1) * every
            assert s.span == every
        last = samples[-1]
        # Regression: commit crossings are interpolated analytically and
        # can land past the last engine event, so the tail epoch must
        # flush to the true end of run, not to engine.now — otherwise
        # the final cycles (and their committed instructions) vanish
        # from the series.
        assert last.cycle == max(system.engine.now, system.end_cycle)
        assert 0 < last.span <= every
        assert last.cycle == sum(s.span for s in samples)

    def test_byte_conservation(self, captured):
        """Per-epoch channel bytes sum to the DRAM totals."""
        tm, system = captured
        line = system.config.line_bytes
        for i, ch in enumerate(system.dram.channels):
            sampled = sum(s.channels[i].bytes for s in tm.samples)
            assert sampled == ch.transactions * line

    def test_committed_conservation(self, captured):
        tm, system = captured
        for i, core in enumerate(system.cores):
            sampled = sum(s.cores[i].committed for s in tm.samples)
            assert sampled == core.committed

    def test_sampled_ranges_are_physical(self, captured):
        tm, _ = captured
        for s in tm.samples:
            for c in s.channels:
                assert 0.0 <= c.bus_util <= 1.0
                assert 0.0 <= c.row_hit_rate <= 1.0
                assert c.bytes >= 0 and c.reads >= 0 and c.writes >= 0
            for c in s.cores:
                assert 0.0 <= c.rob_stall_frac <= 1.0
                assert c.pending_reads >= 0 and c.mshr_occupancy >= 0

    def test_required_series_present(self, captured):
        """The ISSUE's acceptance series all exist in each sample."""
        tm, _ = captured
        s = tm.samples[0]
        assert hasattr(s.channels[0], "bw_gbps")
        assert hasattr(s.channels[0], "bus_util")
        assert hasattr(s.channels[0], "row_hit_rate")
        assert hasattr(s, "read_queue") and hasattr(s, "write_queue")
        assert hasattr(s.cores[0], "pending_reads")
        assert hasattr(s.cores[0], "rob_stall_frac")
        assert hasattr(s.cores[0], "mshr_occupancy")


class TestExporters:
    def test_jsonl_round_trip(self, captured, tmp_path):
        tm, _ = captured
        path = tmp_path / "run.jsonl"
        lines = write_jsonl(tm, path)
        # header + samples + events + registry footer
        assert lines == 1 + len(tm.samples) + len(tm.bus.events) + 1
        back = read_jsonl(path)
        assert back["header"]["sample_every"] == tm.sample_every
        assert back["samples"] == [to_jsonable(s) for s in tm.samples]
        assert len(back["events"]) == len(tm.bus.events)
        # ISSUE acceptance: the JSONL series carries bandwidth, queue
        # depths and row-hit rate.
        s0 = back["samples"][0]
        assert "bw_gbps" in s0["channels"][0]
        assert "row_hit_rate" in s0["channels"][0]
        assert "read_queue" in s0 and "write_queue" in s0

    def test_jsonl_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"type": "header", "format": "nope"}\n')
        with pytest.raises(ValueError):
            read_jsonl(path)

    def test_csv_round_trip(self, captured, tmp_path):
        tm, _ = captured
        path = tmp_path / "run.csv"
        rows = write_csv(tm, path)
        assert rows == len(tm.samples)
        with open(path, newline="") as f:
            comments = []
            data = []
            for line in f:
                (comments if line.startswith("#") else data).append(line)
            parsed = list(csv.DictReader(data))
        # metadata rides ahead of the header as '# key: value' comments
        assert any(c.startswith("# format:") for c in comments)
        assert len(parsed) == rows
        for rec, s in zip(parsed, tm.samples):
            assert int(rec["cycle"]) == s.cycle
            assert int(rec["ch0_bytes"]) == s.channels[0].bytes
            assert float(rec["core0_stall_frac"]) == pytest.approx(
                s.cores[0].rob_stall_frac, abs=1e-6
            )

    def test_chrome_trace_is_valid_trace_event_json(self, captured, tmp_path):
        tm, _ = captured
        path = tmp_path / "run.trace.json"
        n = write_chrome_trace(tm, path)
        with open(path) as f:
            doc = json.load(f)
        events = doc["traceEvents"]
        assert len(events) == n
        phases = {"M", "C", "B", "E", "i"}
        tracks = set()
        last_ts = -1.0
        for e in events:
            assert e["ph"] in phases
            assert isinstance(e["pid"], int)
            if e["ph"] != "M":
                assert e["ts"] >= 0
            if e["ph"] == "M" and e["name"] == "thread_name":
                tracks.add(e["args"]["name"])
        # Counter events must be time-ordered per the sample series.
        counter_ts = [e["ts"] for e in events if e["ph"] == "C"]
        assert counter_ts == sorted(counter_ts)
        # One track per channel and per core, plus the controller.
        assert {"controller", "ch0", "ch1", "core0", "core1"} <= tracks
        # Decisions landed as thread-scoped instants.
        assert any(e["ph"] == "i" and e["name"] == "decision" for e in events)

    def test_empty_hub_exports_cleanly(self, tmp_path):
        tm = Telemetry()
        assert write_csv(tm, tmp_path / "e.csv") == 0
        assert write_chrome_trace(tm, tmp_path / "e.json") >= 1  # metadata only
        back = read_jsonl_after_write(tm, tmp_path / "e.jsonl")
        assert back["samples"] == [] and back["events"] == []


def read_jsonl_after_write(tm, path):
    write_jsonl(tm, path)
    return read_jsonl(path)


class TestSharedSink:
    """DecisionLog / CommandLog / drain hysteresis share one bus."""

    def test_decision_log_keeps_api_and_emits(self, captured):
        tm, system = captured
        log = system.decision_log
        assert isinstance(log, DecisionLog)
        assert log.decisions, "no decisions logged"
        emitted = tm.bus.named("decision")
        assert len(emitted) == len(log.decisions)
        for ev, d in zip(emitted, log.decisions):
            assert ev.cycle == d.cycle
            assert ev.args["core"] == d.core_id
            assert ev.track == f"ch{d.channel}"

    def test_decision_log_attach_without_telemetry_unchanged(self):
        system = _build_system(None)
        log = DecisionLog.attach(system.controller)
        system.run()
        assert log.decisions
        assert 0.0 <= log.hit_rate() <= 1.0

    def test_drain_spans_on_bus(self):
        # A write-heavy synthetic mix engages the drain hysteresis.
        tm = Telemetry(sample_every=1000)
        result = run_multicore(
            workload_by_name("4MEM-1"), "HF-RF", inst_budget=BUDGET, seed=1,
            telemetry=tm,
        )
        begins = [e for e in tm.bus.named("write_drain") if e.kind == "begin"]
        assert len(begins) == result.drain_entries


class TestSummary:
    def test_render_summary_mentions_key_series(self, captured):
        tm, _ = captured
        text = render_summary(tm)
        assert "channel bandwidth" in text
        assert "row-hit rate" in text
        assert "queue depth" in text
        assert "stall fraction" in text

    def test_empty_summary(self):
        assert "no samples" in render_summary(Telemetry())
