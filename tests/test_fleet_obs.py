"""Tests for fleet observability: traces, metrics, merge, dashboard."""

import json

import pytest

from repro import Telemetry
from repro.telemetry.bus import TelemetryBus, TraceEvent
from repro.telemetry.export import (
    FORMAT,
    JsonlRecorder,
    merge_traces,
    read_jsonl,
    write_jsonl,
    write_merged_trace,
)
from repro.telemetry.fleet import (
    FleetMetrics,
    new_run_id,
    prometheus_text,
    render_dashboard,
    write_prometheus,
    write_snapshots,
)

S = 1_000_000  # one second on the fleet clock (wall-clock µs)


class TestIds:
    def test_new_run_id_short_and_unique(self):
        a, b = new_run_id(), new_run_id()
        assert a != b
        assert len(a) == 12
        assert all(c in "0123456789abcdef" for c in a)


def _recording_bus(path, **fleet):
    bus = TelemetryBus(retain=False)
    trace = JsonlRecorder(path, **fleet)
    bus.subscribe(trace)
    return bus, trace


class TestTraceWriter:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "w.jsonl"
        bus, trace = _recording_bus(p, role="worker", run_id="r1",
                                    worker_id="w0")
        bus.emit("cell a", "begin", 10 * S, "cells", attempt=0)
        bus.emit("progress", "counter", 11 * S, "progress", executed=1,
                 hits=0)
        bus.emit("note", "instant", 11 * S, "cells")
        bus.emit("cell a", "end", 12 * S, "cells", status="done")
        registry = FleetMetrics("r1").registry
        trace.close(registry)
        doc = read_jsonl(p)
        assert doc["header"]["format"] == FORMAT
        fleet = doc["header"]["fleet"]
        assert (fleet["role"], fleet["run_id"], fleet["worker_id"]) == (
            "worker", "r1", "w0")
        assert {"pid", "host"} <= set(fleet)
        assert [e["kind"] for e in doc["events"]] == [
            "begin", "counter", "instant", "end"]
        assert doc["events"][0]["args"] == {"attempt": 0}
        assert doc["events"][1]["args"] == {"executed": 1, "hits": 0}
        assert doc["events"][3]["cycle"] == 12 * S
        assert doc["registry"] == registry.snapshot()
        assert doc["samples"] == [] and doc["spans"] == []

    def test_bad_phase_rejected(self, tmp_path):
        bus, trace = _recording_bus(tmp_path / "x.jsonl", role="worker",
                                    run_id="r1")
        with pytest.raises(ValueError, match="kind"):
            bus.emit("oops", "X", 0, "cells")
        trace.close()
        assert read_jsonl(tmp_path / "x.jsonl")["events"] == []

    def test_close_idempotent(self, tmp_path):
        bus, trace = _recording_bus(tmp_path / "x.jsonl", role="worker",
                                    run_id="r1")
        trace.close()
        trace.close()  # second close is a no-op, not a crash
        bus.emit("late", "instant", 0, "cells")  # after close: dropped
        assert read_jsonl(tmp_path / "x.jsonl")["events"] == []

    def test_crashed_process_leaves_readable_prefix(self, tmp_path):
        p = tmp_path / "crash.jsonl"
        bus, trace = _recording_bus(p, role="worker", run_id="r1")
        bus.emit("cell a", "begin", S, "cells")
        # no close(): simulates a killed worker — flushed lines remain
        doc = read_jsonl(p)
        assert len(doc["events"]) == 1
        assert doc["registry"] == {}
        trace.close()

    def test_foreign_file_rejected(self, tmp_path):
        p = tmp_path / "foreign.jsonl"
        p.write_text('{"type": "header", "format": "something-else"}\n')
        with pytest.raises(ValueError, match=FORMAT):
            read_jsonl(p)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_jsonl(empty)

    def test_one_reader_for_run_and_fleet_files(self, tmp_path):
        """A run export and a fleet trace share one schema and reader;
        only the fleet trace names a fleet role, which merging needs."""
        run = tmp_path / "run.jsonl"
        tm = Telemetry()
        tm.bus.emit("write_drain", "begin", 5, "controller")
        write_jsonl(tm, run)
        fleet = tmp_path / "coord.jsonl"
        bus, trace = _recording_bus(fleet, role="coordinator", run_id="r1")
        bus.emit("service.job", "instant", S, "jobs", status="done")
        trace.close()
        docs = [read_jsonl(run), read_jsonl(fleet)]
        assert [d["header"]["format"] for d in docs] == [FORMAT, FORMAT]
        assert [d["events"][0]["name"] for d in docs] == [
            "write_drain", "service.job"]
        assert set(docs[0]) == set(docs[1])
        with pytest.raises(ValueError, match="not a fleet trace"):
            merge_traces([fleet, run])


def _two_process_traces(tmp_path, run_id="r1"):
    """Coordinator and worker traces with interleaved concurrent flushes,
    the way two live processes write them."""
    cp = tmp_path / "coord.jsonl"
    wp = tmp_path / "worker.jsonl"
    coord, coord_trace = _recording_bus(cp, role="coordinator",
                                        run_id=run_id)
    work, work_trace = _recording_bus(wp, role="worker", run_id=run_id,
                                      worker_id="w0")
    # flushes alternate between the two files (concurrent processes)
    coord.emit("lease eval:4MEM-1", "begin", 100 * S, "w0", cell_id="d1")
    work.emit("cell eval:4MEM-1", "begin", 100 * S + S // 10, "cells",
              cell_id="d1")
    work.emit("progress", "counter", 100 * S + S // 2, "progress",
              executed=0, hits=0)
    work.emit("cell eval:4MEM-1", "end", 101 * S, "cells", status="done")
    coord.emit("lease eval:4MEM-1", "end", 101 * S + S // 10, "w0",
               status="done")
    coord.emit("service.job", "instant", 101 * S + S // 5, "jobs",
               status="done")
    coord_trace.close()
    work_trace.close()
    return cp, wp


class TestMerge:
    def test_two_process_merge(self, tmp_path):
        cp, wp = _two_process_traces(tmp_path)
        doc = merge_traces([wp, cp])  # order given must not matter
        assert doc["otherData"]["run_id"] == "r1"
        assert doc["otherData"]["format"] == FORMAT
        # coordinator sorts first regardless of argument order
        assert [s["role"] for s in doc["otherData"]["sources"]] == [
            "coordinator", "worker"]
        events = doc["traceEvents"]
        names = {e["args"]["name"] for e in events if e["ph"] == "M"
                 and e["name"] == "process_name"}
        assert names == {"coordinator", "worker w0"}
        lease_b = [e for e in events if e["ph"] == "B"
                   and e["name"].startswith("lease ")]
        cell_b = [e for e in events if e["ph"] == "B"
                  and e["name"].startswith("cell ")]
        assert len(lease_b) == len(cell_b) == 1
        # both slices carry the shared run_id and lie on different pids
        assert lease_b[0]["args"]["run_id"] == "r1"
        assert cell_b[0]["args"]["run_id"] == "r1"
        assert lease_b[0]["pid"] != cell_b[0]["pid"]
        # timestamps are µs relative to the earliest event (t=100 s)
        assert lease_b[0]["ts"] == 0.0
        assert cell_b[0]["ts"] == pytest.approx(0.1e6)
        counters = [e for e in events if e["ph"] == "C"]
        assert [c["name"] for c in counters] == ["progress"]
        assert counters[0]["args"] == {"executed": 0, "hits": 0}
        instants = [e for e in events if e["ph"] == "i"]
        assert instants and all(e["s"] == "t" for e in instants)

    def test_mixed_run_ids_rejected(self, tmp_path):
        cp, _ = _two_process_traces(tmp_path, run_id="r1")
        other = tmp_path / "other.jsonl"
        JsonlRecorder(other, role="worker", run_id="r2").close()
        with pytest.raises(ValueError, match="one run at a time"):
            merge_traces([cp, other])

    def test_no_files_rejected(self):
        with pytest.raises(ValueError, match="no fleet trace"):
            merge_traces([])

    def test_write_merged_trace(self, tmp_path):
        cp, wp = _two_process_traces(tmp_path)
        out = tmp_path / "merged.json"
        doc = write_merged_trace([cp, wp], out)
        assert json.loads(out.read_text()) == doc

    def test_merge_trace_cli(self, tmp_path, capsys):
        from repro.cli import main

        cp, wp = _two_process_traces(tmp_path)
        out = tmp_path / "merged.json"
        assert main(["obs", "merge-trace", str(cp), str(wp),
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "run r1" in printed
        assert json.loads(out.read_text())["otherData"]["run_id"] == "r1"


def _ev(name, kind, t, track, **args):
    """A coordinator event at ``t`` seconds on the fleet clock."""
    return TraceEvent(name, kind, int(t * S), track, args)


def _join(m, worker, t=0.0):
    m(_ev("service.worker", "instant", t, worker, status="join",
          worker=worker))


def _lease(m, worker, key, t0, t1, status, attempt=0, requeued=None):
    name = "lease " + key.split(":cfg=")[0]
    m(_ev(name, "begin", t0, worker, key=key, attempt=attempt))
    args = {} if requeued is None else {"requeued": requeued}
    m(_ev(name, "end", t1, worker, status=status, **args))


class TestFleetMetrics:
    def test_lease_lifecycle_counters(self):
        m = FleetMetrics("r1")
        _join(m, "w0")
        _lease(m, "w0", "eval:4MEM-1:HF-RF", 1.0, 3.0, "done")
        _lease(m, "w0", "eval:4MEM-1:RR", 3.0, 3.5, "failed", attempt=1,
               requeued=True)
        _lease(m, "w0", "eval:4MEM-1:RR", 4.0, 4.0, "expired", attempt=2,
               requeued=False)
        snap = m.snapshot(queue={"pending": 4})
        inst = snap["instruments"]
        assert inst["fleet.lease.granted"]["value"] == 3
        assert inst["fleet.lease.completed"]["value"] == 1
        assert inst["fleet.lease.retried"]["value"] == 2
        assert inst["fleet.lease.failed"]["value"] == 1
        assert inst["fleet.lease.expired"]["value"] == 1
        assert inst["fleet.cell.seconds"]["count"] == 1
        assert inst["fleet.cell.seconds"]["sum"] == 2.0
        assert snap["queue"] == {"pending": 4}
        assert snap["run_id"] == "r1"
        row = snap["workers"]["w0"]
        assert row["cells"] == 1
        assert row["busy_seconds"] == 2.0
        assert row["current"] is None

    def test_stats_count_every_outcome(self):
        """The coordinator's eight lifetime counts, folded from its bus;
        a late result after its lease expired is an instant: it counts
        as a result and a corrupt payload as a verify failure, but
        neither closes a lease."""
        m = FleetMetrics("r1")
        m(_ev("service.job", "instant", 0, "jobs", status="submitted",
              job=1, total=3, hits=1, misses=2))
        _join(m, "w0")
        _join(m, "w1")
        _lease(m, "w0", "eval:a", 1, 2, "expired", requeued=True)
        _lease(m, "w1", "eval:a", 2, 3, "corrupt", attempt=1, requeued=True)
        m(_ev("lease eval:a", "instant", 3.5, "w0", status="corrupt",
              requeued=False))
        m(_ev("lease eval:a", "instant", 3.6, "w0", status="done"))
        _lease(m, "w1", "eval:b", 4, 5, "disconnect", requeued=True)
        _lease(m, "w0", "eval:b", 5, 6, "done", attempt=1)
        m(_ev("service.job", "instant", 7, "jobs", status="done", job=1))
        assert m.stats() == {
            "results": 2, "hits": 1, "reassigned": 3, "expired": 1,
            "sha_mismatch": 2, "worker_errors": 0, "failed_cells": 1,
            "jobs": 1,
        }
        inst = m.snapshot()["instruments"]
        assert inst["fleet.lease.completed"]["value"] == 1
        assert inst["fleet.store.misses"]["value"] == 2
        assert inst["fleet.jobs.completed"]["value"] == 1

    def test_worker_leave_marks_disconnected(self):
        m = FleetMetrics("r1")
        _join(m, "w0")
        m(_ev("lease eval:x", "begin", 1, "w0", key="eval:x", attempt=0))
        assert m.workers["w0"]["current"] == "eval:x"
        m(_ev("lease eval:x", "end", 2, "w0", status="disconnect",
              requeued=True))
        m(_ev("service.worker", "instant", 2, "w0", status="leave",
              worker="w0"))
        table = m.worker_table()
        assert table["w0"]["connected"] is False
        assert table["w0"]["current"] is None
        assert table["w0"]["cells"] == 0
        assert m.lease_completed.value == 0
        assert m.stats()["reassigned"] == 1

    def test_late_result_closes_no_lease(self):
        m = FleetMetrics("r1")
        _join(m, "w0")
        m(_ev("lease eval:x", "instant", 1, "w0", status="done"))
        assert m.lease_completed.value == 0  # no open lease to complete
        assert m.cell_seconds.count == 0
        assert m.stats()["results"] == 1

    def test_other_events_ignored(self):
        m = FleetMetrics("r1")
        m(_ev("experiment.cell", "instant", 1, "experiments", status="run"))
        assert m.workers == {}
        assert all(v == 0 for v in m.stats().values())

    def test_heartbeat_gap_tracked(self):
        m = FleetMetrics("r1")
        _join(m, "w0", t=10.0)
        m(_ev("service.heartbeat", "instant", 13.0, "w0", worker="w0"))
        assert m.workers["w0"]["heartbeat_gap_max"] == 3.0
        snap = m.snapshot()
        assert snap["instruments"]["fleet.worker.heartbeat_gap"]["max"] == 3.0


class TestCoordinatorTrace:
    """The coordinator's trace file, recorded from its bus the way
    ``repro serve --trace-out`` wires it, against a raw-protocol worker."""

    def test_trace_slices_and_disconnect(self, tmp_path):
        import asyncio

        from repro.experiments.cache import (
            code_fingerprint,
            encode,
            payload_sha,
        )
        from repro.experiments.cells import execute_cell
        from repro.experiments.harness import ExperimentContext
        from repro.experiments.parallel import plan_cells
        from repro.service.coordinator import Coordinator
        from repro.service.protocol import (
            MAX_LINE_BYTES,
            PROTOCOL_VERSION,
            decode_cell,
            expect,
            read_msg,
            send_msg,
        )

        ctx = ExperimentContext(inst_budget=300, warmup_insts=200,
                                profile_budget=200, seeds=(7,))
        cells = [c for c in plan_cells(ctx, figure2=((2,), ("MEM",)))
                 if c.key.policy == "HF-RF"][:2]
        assert len(cells) == 2
        p = tmp_path / "coord.jsonl"

        async def connect(coord, hello):
            reader, writer = await asyncio.open_connection(
                coord.host, coord.port, limit=MAX_LINE_BYTES)
            await send_msg(writer, {"protocol": PROTOCOL_VERSION,
                                    "fingerprint": code_fingerprint(),
                                    **hello})
            expect(await read_msg(reader), "welcome")
            return reader, writer

        async def scenario():
            coord = Coordinator()
            trace = JsonlRecorder(p, role="coordinator",
                                  run_id=coord.run_id)
            coord.bus.subscribe(trace)
            await coord.start()
            try:
                wr, ww = await connect(coord, {"t": "hello",
                                               "role": "worker",
                                               "worker": "w0"})
                cr, cw = await connect(coord, {"t": "hello",
                                               "role": "client"})
                await send_msg(cw, {"t": "submit", "cells": [
                    encode(c) for c in cells]})
                expect(await read_msg(cr), "accepted")
                task = expect(await read_msg(wr), "task")
                payload = encode(
                    execute_cell(decode_cell(task["cell"])))
                await send_msg(ww, {"t": "result", "task": task["task"],
                                    "key": task["cell_id"],
                                    "payload": payload,
                                    "sha": payload_sha(payload)})
                expect(await read_msg(wr), "task")
                # worker vanishes mid-lease: the open slice closes as
                # disconnect
                ww.close()
                for _ in range(200):
                    if "w0" not in coord.workers:
                        break
                    await asyncio.sleep(0.01)
                cw.close()
            finally:
                await coord.stop()
                trace.close()
            return coord

        coord = asyncio.run(asyncio.wait_for(scenario(), 60))
        doc = read_jsonl(p)
        assert doc["header"]["fleet"]["role"] == "coordinator"
        slices = [(e["name"], e["kind"], e["args"].get("status"))
                  for e in doc["events"] if e["name"].startswith("lease ")]
        first, second = (e["name"] for e in doc["events"]
                         if e["name"].startswith("lease ")
                         and e["kind"] == "begin")
        assert slices == [
            (first, "begin", None),
            (first, "end", "done"),
            (second, "begin", None),
            (second, "end", "disconnect"),
        ]
        assert first != second
        assert coord.metrics.lease_completed.value == 1


class TestPrometheus:
    def _snapshot(self):
        m = FleetMetrics("r1")
        _join(m, "w0")
        _lease(m, "w0", "eval:x", 1.0, 2.5, "done")
        return m.snapshot(queue={"pending": 2, "leased": 0})

    def test_format(self):
        text = prometheus_text(self._snapshot())
        lines = text.splitlines()
        assert "# TYPE repro_fleet_queue_pending gauge" in lines
        assert "repro_fleet_queue_pending 2" in lines
        assert "# TYPE repro_fleet_lease_completed_total counter" in lines
        assert "repro_fleet_lease_completed_total 1" in lines
        assert "# TYPE repro_fleet_cell_seconds_count gauge" in lines
        worker = [ln for ln in lines
                  if ln.startswith("repro_fleet_worker_cells_total{")]
        assert worker == [
            'repro_fleet_worker_cells_total{worker="w0",run_id="r1"} 1']
        # every sample line ends in a parseable number
        for ln in lines:
            if ln.startswith("#"):
                continue
            float(ln.rsplit(" ", 1)[1])

    def test_write_is_atomic_replace(self, tmp_path):
        path = tmp_path / "fleet.prom"
        snap = self._snapshot()
        write_prometheus(snap, path)
        assert path.read_text() == prometheus_text(snap)
        assert not (tmp_path / "fleet.prom.tmp").exists()
        assert "repro_fleet_uptime_seconds" in path.read_text()


class TestSnapshots:
    def _run(self, every, seconds, **outputs):
        import asyncio

        m = FleetMetrics("r1")
        _join(m, "w0")

        async def scenario():
            task = asyncio.create_task(write_snapshots(
                lambda: m.snapshot(queue={"pending": 1}), every, **outputs))
            await asyncio.sleep(seconds)
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)

        asyncio.run(scenario())

    def test_snapshot_files(self, tmp_path):
        self._run(0.01, 0.2, metrics_out=tmp_path / "m.jsonl",
                  prometheus_out=tmp_path / "f.prom")
        snaps = [json.loads(ln) for ln in
                 (tmp_path / "m.jsonl").read_text().splitlines()]
        assert len(snaps) >= 2  # JSONL appends
        assert snaps[-1]["queue"] == {"pending": 1}
        assert snaps[-1]["instruments"]["fleet.workers.joined"]["value"] == 1
        prom = (tmp_path / "f.prom").read_text()
        assert "repro_fleet_workers_joined_total 1" in prom  # prom rewrites
        assert prom.count("# TYPE repro_fleet_uptime_seconds") == 1

    def test_stop_writes_final_snapshot(self, tmp_path):
        self._run(3600.0, 0.0, metrics_out=tmp_path / "m.jsonl")
        snaps = (tmp_path / "m.jsonl").read_text().splitlines()
        assert len(snaps) == 1  # run shorter than the interval still lands


class TestDashboard:
    def _status(self):
        m = FleetMetrics("r1")
        _join(m, "w0")
        _lease(m, "w0", "eval:4MEM-1:HF-RF:cfg=abc", 1.0, 2.0, "done")
        key = "eval:4MEM-1:RR:cfg=abc"
        m(_ev("lease eval:4MEM-1:RR", "begin", 2.0, "w0", key=key,
              attempt=0))
        return {"tasks": {"pending": 2, "leased": 1, "done": 1,
                          "failed": 0},
                "fleet": m.snapshot()}

    def test_renders_bar_board_and_workers(self):
        text = render_dashboard(self._status(), done=1, total=4)
        assert "1/4 cells" in text
        assert "25.0%" in text
        assert "board: pending=2  leased=1  done=1  failed=0" in text
        assert "w0" in text
        assert "eval:4MEM-1:RR" in text     # current cell, cfg stripped
        assert ":cfg=" not in text

    def test_renders_without_fleet_section(self):
        text = render_dashboard({"workers": ["a", "b"]}, done=0, total=0)
        assert "workers: a, b" in text
        assert "100.0%" in text  # empty job renders as complete


class TestExporterFleetCorrelation:
    """Exporter edge cases next to the fleet: empty runs, and run
    exports that are not fleet traces."""

    def test_empty_run_exports_cleanly(self, tmp_path):
        tm = Telemetry()  # nothing ran: no samples, no events, no spans
        p = tmp_path / "empty.jsonl"
        assert write_jsonl(tm, p) == 1  # the header alone
        doc = read_jsonl(p)
        assert doc["samples"] == [] and doc["events"] == []
        assert doc["spans"] == [] and doc["registry"] == {}

    def test_no_fleet_section_outside_fleet(self, tmp_path):
        p = tmp_path / "plain.jsonl"
        write_jsonl(Telemetry(), p)
        assert "fleet" not in read_jsonl(p)["header"]
