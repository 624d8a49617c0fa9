"""Tests for request-lifecycle spans and stall attribution.

Covers the PR's acceptance criteria:

* components of every traced span sum *exactly* to its end-to-end
  latency (the conservation invariant), on a deterministic multi-core
  workload;
* span stamps are monotone and the exported Chrome trace is valid
  trace-event JSON with properly nested span slices;
* per-core breakdowns move in the paper-predicted direction between
  HF-RF and ME-LREQ (the high-ME core's buffered-wait share shrinks);
* a run with span tracing enabled is bit-identical to one without.
"""

import json
from functools import partial

import pytest

from repro.cache.hierarchy import MERGED, PENDING
from repro.metrics.memory_efficiency import MeProfiler
from repro.sim.runner import run_multicore
from repro.telemetry import (
    Telemetry,
    attribute,
    decompose,
    format_attribution,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_spans_jsonl,
)
from repro.telemetry.attribution import COMPONENTS, drain_windows
from repro.telemetry.spans import RequestSpan, SpanCollector
from repro.workloads.mixes import workload_by_name
from tests.machine import make_stack

BUDGET = 8000

#: stage stamps in required timeline order
_STAGE_ORDER = (
    "first_attempt", "arrival", "pick", "bank_start", "cas",
    "data_start", "data_end", "done",
)


@pytest.fixture(scope="module")
def traced():
    """One span-traced 4-core run shared by the read-only assertions."""
    tm = Telemetry(sample_every=2000, capture_spans=True, span_sample=4)
    result = run_multicore(
        workload_by_name("4MEM-1"), "HF-RF", inst_budget=BUDGET, seed=1,
        telemetry=tm,
    )
    return tm, result


class Offers:
    """A one-core stack (``tests/machine.py``) whose hierarchy offers its
    reads to a span collector through the kernel's miss path, wired as a
    machine wires it.  ``stamp`` is a ``(cycle, line)`` structural stall,
    stamped the way the core kernel stamps it."""

    def __init__(self, sample_every, stamp=None):
        _, self.engine, ctrl, self.hier = make_stack(num_cores=1)
        self.ctrl = ctrl
        self.spans = c = SpanCollector(sample_every=sample_every)
        c.bind_cores(1)
        self.hier.spans = ctrl.spans = c
        self.hier.mshrs[0].on_merge = partial(c.note_merge, 0)
        if stamp is not None:
            c._stamps[0], c._stamps[1] = stamp

    def read(self, line, cycle=None, result=PENDING):
        """A demand read of ``line`` misses both caches at ``cycle`` (now
        by default): the span it registers in flight, or ``None``."""
        cycle = self.engine.now if cycle is None else cycle
        assert self.hier._after_l2_miss(0, line, False, cycle, None) == result
        return self.spans._inflight.get((0, line))


#: a line address
LINE = 7 << 6


class TestSpanCollector:
    def test_deterministic_sampling_rate(self):
        m = Offers(sample_every=3)
        traced = []
        for i in range(12):
            traced.append(m.read((i + 1) << 6) is not None)
            m.engine.run()  # the fill returns: its MSHR entry frees
        assert traced == [False, False, True] * 4
        assert m.spans.offered == 12

    def test_sample_every_one_traces_everything(self):
        m = Offers(sample_every=1)
        assert all(m.read((i + 1) << 6) is not None for i in range(5))

    def test_blocked_stamp_consumed_by_reads_only(self):
        m = Offers(sample_every=1, stamp=(10, LINE))
        # A writeback from the same core must not consume the stamp...
        wb = m.spans.offer_write(0, LINE, 30)
        assert wb.first_attempt == 30
        # ...so the demand read that was actually stalled still gets it.
        rd = m.read(LINE, 40)
        assert rd.first_attempt == 10

    def test_blocked_stamp_keeps_first_cycle(self):
        m = Offers(sample_every=1, stamp=(10, LINE))
        assert m.read(LINE, 40).first_attempt == 10
        m.engine.run()  # the fill returns: the line's MSHR entry frees
        # The read consumed the stamp: a later read starts when it issues.
        later = m.engine.now + 10
        assert m.read(LINE, later).first_attempt == later

    def test_merges_count_until_fill_returns(self):
        m = Offers(sample_every=1)
        span = m.read(LINE, 0)
        m.read(LINE, 5, result=MERGED)
        # Stop right after the read commits, before its fill delivers.
        m.ctrl.dram.observers.append(
            lambda *_: setattr(m.engine, "stop_requested", True))
        m.engine.run()
        assert m.spans.completed == [span]
        m.read(LINE, m.engine.now, result=MERGED)  # between commit and fill
        m.ctrl.dram.observers.clear()
        m.engine.stop_requested = False
        m.engine.run()
        # After the fill: no longer merging; the miss is a new request.
        m.read(LINE)
        assert span.merged_waiters == 2


class TestStallStamp:
    def test_a_blocked_read_keeps_its_first_stall_cycle(self, monkeypatch):
        """One core with a one-entry L1D MSHR file: its second read
        stalls behind the first until that fill returns, and retries in
        between fail.  Its span starts at the first stall."""
        from dataclasses import replace

        from repro.config import SystemConfig
        from repro.core import make_policy
        from repro.cpu.core_model import TraceCore
        from repro.cpu.trace import ListTrace, MemOp
        from repro.sim.system import MultiCoreSystem

        cfg = SystemConfig(num_cores=1)
        cfg = replace(cfg, caches=replace(
            cfg.caches, l1d=replace(cfg.caches.l1d, mshrs=1)))
        failed_retries = []
        on_unblock = TraceCore._on_unblock

        def counted(core, now):
            stalls = core.stats.structural_stalls
            on_unblock(core, now)
            if core.stats.structural_stalls > stalls:
                failed_retries.append(now)

        monkeypatch.setattr(TraceCore, "_on_unblock", counted)
        # At 4-issue the first read is fetched at slot 40 (cycle 10) and
        # takes the only MSHR; the second at slot 44 (cycle 11) stalls.
        first, second = MemOp(40, 1 << 20), MemOp(3, 2 << 20)
        stall_cycle = (first.gap + 1 + second.gap) // cfg.core.issue_width
        tm = Telemetry(capture_spans=True, span_sample=1)
        system = MultiCoreSystem(cfg, make_policy("HF-RF"),
                                 [ListTrace([first, second])], 4000,
                                 telemetry=tm)
        system.run()
        spans = {s.addr: s for s in tm.spans.completed}
        blocked = spans[second.addr]
        assert failed_retries and stall_cycle not in failed_retries
        assert system.cores[0].stats.structural_stalls == 1 + len(failed_retries)
        assert blocked.first_attempt == stall_cycle
        assert blocked.first_attempt < blocked.arrival
        assert spans[first.addr].first_attempt == spans[first.addr].arrival


class TestConservation:
    def test_components_sum_exactly_to_latency(self, traced):
        tm, _ = traced
        spans = tm.spans.completed
        assert len(spans) > 100, "workload too short to exercise tracing"
        t_cl = tm.spans.timing.t_cl
        windows = drain_windows(tm)
        for s in spans:
            parts = decompose(
                s, t_cl, tm.spans.overhead, windows.get(s.track, ())
            )
            assert sum(parts.values()) == s.latency
            assert all(v >= 0 for v in parts.values())
            assert set(parts) == set(COMPONENTS)

    def test_stamps_monotone(self, traced):
        tm, _ = traced
        for s in tm.spans.completed:
            stamps = [getattr(s, name) for name in _STAGE_ORDER]
            assert stamps == sorted(stamps), f"non-monotone stamps on {s!r}"

    def test_decompose_rejects_incomplete_span(self):
        span = RequestSpan(0, 0x40, "read", 100)
        with pytest.raises(ValueError):
            decompose(span, t_cl=40)

    def test_attribution_report_totals_conserve(self, traced):
        tm, _ = traced
        report = attribute(tm, kind="all")
        assert report.spans_used == report.spans_seen == len(tm.spans.completed)
        total_latency = sum(s.latency for s in tm.spans.completed)
        assert sum(report.totals().values()) == total_latency
        # The rendered table includes every component column.
        text = format_attribution(report)
        for comp in COMPONENTS:
            assert comp in text


class TestExports:
    def test_chrome_trace_spans_parse_and_nest(self, traced, tmp_path):
        tm, _ = traced
        path = tmp_path / "spans.trace.json"
        write_chrome_trace(tm, path)
        with open(path) as f:
            doc = json.load(f)  # must be valid JSON
        span_events = [e for e in doc["traceEvents"] if e.get("cat") == "span"]
        assert span_events, "no span slices in the trace"
        # Per tid: timestamps monotone in emission order (ties allowed)
        # and B/E strictly balanced, never negative depth => proper
        # nesting when the viewer replays them.
        by_tid = {}
        for e in span_events:
            by_tid.setdefault(e["tid"], []).append(e)
        for tid, evs in by_tid.items():
            last_ts = -1.0
            depth = 0
            for e in evs:
                assert e["ts"] >= last_ts
                last_ts = e["ts"]
                depth += 1 if e["ph"] == "B" else -1
                assert depth >= 0
            assert depth == 0, f"unbalanced B/E on tid {tid}"
        assert doc["otherData"]["format"] == "repro-telemetry-v1"

    def test_jsonl_span_records_round_trip(self, traced, tmp_path):
        tm, _ = traced
        path = tmp_path / "run.jsonl"
        write_jsonl(tm, path)
        back = read_jsonl(path)
        assert len(back["spans"]) == len(tm.spans.completed)
        for rec in back["spans"]:
            assert sum(rec["components"].values()) == rec["latency"]
        assert back["header"]["meta"]["run"]["policy"] == "HF-RF"
        assert "config_hash" in back["header"]["meta"]["run"]

    def test_spans_jsonl_artifact(self, traced, tmp_path):
        tm, _ = traced
        path = tmp_path / "spans.jsonl"
        lines = write_spans_jsonl(tm, path)
        assert lines == 1 + len(tm.spans.completed)
        with open(path) as f:
            header = json.loads(f.readline())
        assert header["span_sample_every"] == 4
        assert header["spans_offered"] == tm.spans.offered


class TestBitIdentity:
    def test_spans_do_not_perturb_results(self):
        mix = workload_by_name("2MEM-1")

        def fingerprint(tm):
            r = run_multicore(
                mix, "LREQ", inst_budget=4000, seed=1, telemetry=tm
            )
            return (
                r.end_cycle, r.ipcs(), r.row_hit_rate,
                tuple(c.avg_read_latency for c in r.per_core),
                tuple(c.bw_gbps for c in r.per_core),
            )

        base = fingerprint(None)
        spanned = fingerprint(
            Telemetry(capture_spans=True, span_sample=1)
        )
        assert spanned == base


class TestPolicyDirection:
    def test_me_lreq_cuts_high_me_core_queue_share(self):
        """Paper direction: ME-LREQ prioritises high-ME cores, so the
        highest-ME core's buffered-wait (queue + drain) share of its
        read latency must drop relative to HF-RF."""
        mix = workload_by_name("4MEM-1")
        me = MeProfiler(inst_budget=10_000, seed=1).me_values(mix)
        top = me.index(max(me))

        def queue_share(policy):
            tm = Telemetry(capture_spans=True, span_sample=4)
            run_multicore(
                mix, policy, inst_budget=20_000, seed=1, me_values=me,
                telemetry=tm,
            )
            report = attribute(tm, kind="read")
            return report.core(top).queue_share()

        assert queue_share("ME-LREQ") < queue_share("HF-RF")
