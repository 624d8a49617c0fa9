"""Loopback end-to-end tests of the distributed sweep service.

Everything runs in one process on 127.0.0.1 — coordinator, workers and
client are asyncio tasks sharing a loop — which makes the fault
scenarios of docs/DISTRIBUTED.md deterministic and fast:

* a distributed run is **byte-identical** to a serial one (compared
  through the canonical float-hex payload encoding);
* a worker killed mid-cell releases its lease instantly and the cell is
  reassigned; a worker that *hangs* loses the lease at its deadline;
* a corrupted payload (SHA-256 mismatch) costs the cell one attempt and
  is retried, never stored or forwarded;
* a coordinator restarted against a warm store completes a whole job
  from hits with zero workers attached;
* a code-fingerprint mismatch is rejected at the handshake, for clients
  and workers alike.

No pytest-asyncio in the environment: each test drives its scenario
with ``asyncio.run`` from a synchronous body.
"""

from __future__ import annotations

import asyncio
import importlib.util
import json
from pathlib import Path

import pytest

from repro.experiments.cache import (
    ResultCache,
    code_fingerprint,
    encode,
)
from repro.experiments.harness import ExperimentContext
from repro.experiments.parallel import plan_cells, run_cells
from repro.service.client import (
    coordinator_status,
    request_shutdown,
    submit_cells,
    submit_cells_async,
)
from repro.service.coordinator import Coordinator
from repro.service.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ServiceError,
    expect,
    read_msg,
    send_msg,
)
from repro.service.worker import run_worker
from repro.telemetry.bus import TelemetryBus

BUDGET = 300
WARMUP = 200
PROFILE = 200
SEED = 7

TIMEOUT = 120  # generous per-scenario ceiling; normal runs take seconds


def _ctx(**overrides) -> ExperimentContext:
    kw = dict(inst_budget=BUDGET, warmup_insts=WARMUP,
              profile_budget=PROFILE, seeds=(SEED,))
    kw.update(overrides)
    return ExperimentContext(**kw)


def _figure2_cells():
    return plan_cells(_ctx(), figure2=((2,), ("MEM",)))


def _hfrf_cells():
    """A small dependency-free cell set for the fault scenarios."""
    cells = [c for c in _figure2_cells() if c.key.policy == "HF-RF"]
    assert len(cells) >= 2
    return cells


def _payload_bytes(report) -> list[str]:
    return [json.dumps(encode(v), sort_keys=True)
            for v in report.results.values()]


@pytest.fixture(scope="module")
def serial_figure2():
    report = run_cells(_figure2_cells(), jobs=1)
    assert not report.failures
    return report


@pytest.fixture(scope="module")
def serial_hfrf():
    report = run_cells(_hfrf_cells(), jobs=1)
    assert not report.failures
    return report


def _assert_identical(report, serial) -> None:
    assert not report.failures, report.failures
    assert [k.key_str() for k in report.results] \
        == [k.key_str() for k in serial.results]
    assert _payload_bytes(report) == _payload_bytes(serial)


async def _run_scenario(cells, *, n_workers=2, store=None,
                        coordinator_kwargs=None, before_submit=None,
                        after_submit=None):
    """Start a coordinator + N workers, submit ``cells``, tear down.

    Returns ``(report, coordinator)``; optional hooks run inside the
    loop before/after the submission (fault choreography).
    """
    coord = Coordinator(port=0, store=store, **(coordinator_kwargs or {}))
    await coord.start()
    workers = []
    try:
        if before_submit is not None:
            await before_submit(coord)
        workers = [
            asyncio.create_task(run_worker(coord.host, coord.port,
                                           worker_id=f"w{i}"))
            for i in range(n_workers)
        ]
        report = await asyncio.wait_for(
            submit_cells_async(coord.host, coord.port, cells), TIMEOUT)
        if after_submit is not None:
            await after_submit(coord)
    finally:
        await coord.stop()
        for w in workers:
            try:
                await asyncio.wait_for(w, 10)
            except (ConnectionError, ServiceError, asyncio.IncompleteReadError):
                pass
    return report, coord


# -- the happy path ----------------------------------------------------------------


def test_distributed_run_is_byte_identical_to_serial(serial_figure2,
                                                     tmp_path):
    cells = _figure2_cells()
    store = ResultCache(root=tmp_path, mode="rw")
    report, coord = asyncio.run(
        _run_scenario(cells, n_workers=2, store=store))
    _assert_identical(report, serial_figure2)
    assert report.executed == len(cells) and report.cache_hits == 0
    assert coord.stats["results"] == len(cells)
    assert coord.stats["failed_cells"] == 0

    # restart: a brand-new coordinator on the warm store finishes the
    # same job from hits alone, with ZERO workers attached
    report2, coord2 = asyncio.run(
        _run_scenario(cells, n_workers=0,
                      store=ResultCache(root=tmp_path, mode="rw")))
    _assert_identical(report2, serial_figure2)
    assert report2.cache_hits == len(cells) and report2.executed == 0
    assert coord2.stats["hits"] == len(cells)
    assert coord2.stats["results"] == 0  # nothing was ever dispatched


def test_two_concurrent_jobs_share_one_execution(serial_hfrf):
    """The same cell submitted by two clients runs once; both get it."""
    cells = _hfrf_cells()

    async def scenario():
        coord = Coordinator(port=0)
        await coord.start()
        worker = asyncio.create_task(
            run_worker(coord.host, coord.port, worker_id="w0"))
        try:
            r1, r2 = await asyncio.wait_for(asyncio.gather(
                submit_cells_async(coord.host, coord.port, cells),
                submit_cells_async(coord.host, coord.port, cells),
            ), TIMEOUT)
        finally:
            await coord.stop()
            try:
                await asyncio.wait_for(worker, 10)
            except (ConnectionError, asyncio.IncompleteReadError):
                pass
        return r1, r2, coord

    r1, r2, coord = asyncio.run(scenario())
    _assert_identical(r1, serial_hfrf)
    assert _payload_bytes(r1) == _payload_bytes(r2)
    assert coord.stats["results"] == len(cells)  # executed exactly once
    assert coord.stats["jobs"] == 2


def test_fleet_observability_end_to_end(serial_hfrf, tmp_path):
    """Fleet observability on the loopback cluster: the coordinator,
    workers and client share one run_id, results stay byte-identical,
    and the merged Chrome timeline pairs lease slices with cell slices
    and result arrivals."""
    from repro.telemetry.bus import TelemetryBus
    from repro.telemetry.export import JsonlRecorder, merge_traces
    from repro.telemetry.fleet import write_snapshots

    cells = _hfrf_cells()
    client_bus = TelemetryBus()

    async def scenario():
        coord = Coordinator(port=0)
        trace = JsonlRecorder(tmp_path / "coord.fleet.jsonl",
                              role="coordinator", run_id=coord.run_id)
        coord.bus.subscribe(trace)
        await coord.start()
        snapshots = asyncio.create_task(write_snapshots(
            coord.fleet_snapshot, 0.2, tmp_path / "metrics.jsonl",
            tmp_path / "fleet.prom"))
        workers = [
            asyncio.create_task(run_worker(
                coord.host, coord.port, worker_id=f"w{i}",
                trace_out=tmp_path / f"w{i}.fleet.jsonl",
                snapshot_seconds=0.2))
            for i in range(2)
        ]
        try:
            report = await asyncio.wait_for(
                submit_cells_async(coord.host, coord.port, cells,
                                   bus=client_bus), TIMEOUT)
            status = await asyncio.to_thread(
                coordinator_status, f"{coord.host}:{coord.port}")
        finally:
            await coord.stop()
            snapshots.cancel()
            await asyncio.gather(snapshots, return_exceptions=True)
            trace.close(coord.metrics.registry)
            for w in workers:
                try:
                    await asyncio.wait_for(w, 10)
                except (ConnectionError, ServiceError,
                        asyncio.IncompleteReadError):
                    pass
        return report, coord, status

    report, coord, status = asyncio.run(scenario())
    _assert_identical(report, serial_hfrf)
    assert report.run_id == coord.run_id
    assert status["fleet"]["run_id"] == coord.run_id
    assert status["stats"] == coord.stats

    snaps = [json.loads(ln) for ln in
             (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert snaps  # the final snapshot always lands
    done = snaps[-1]["instruments"]["fleet.lease.completed"]["value"]
    assert done == len(cells)
    assert "repro_fleet_lease_completed_total" in \
        (tmp_path / "fleet.prom").read_text()

    client = JsonlRecorder(tmp_path / "client.fleet.jsonl", role="client",
                           run_id=report.run_id)
    for ev in client_bus.events:
        client(ev)
    client.close()
    traces = [tmp_path / "coord.fleet.jsonl", tmp_path / "w0.fleet.jsonl",
              tmp_path / "w1.fleet.jsonl", tmp_path / "client.fleet.jsonl"]
    merged = merge_traces(traces)
    assert merged["otherData"]["run_id"] == coord.run_id
    assert [s["role"] for s in merged["otherData"]["sources"]] == [
        "coordinator", "worker", "worker", "client"]
    events = merged["traceEvents"]
    leases = [e for e in events
              if e.get("ph") == "B" and e["name"].startswith("lease ")]
    cells_b = [e for e in events
               if e.get("ph") == "B" and e["name"].startswith("cell ")]
    arrivals = [e for e in events if e["name"] == "experiment.cell"]
    assert len(leases) == len(cells) and len(cells_b) == len(cells)
    assert len(arrivals) == len(cells)
    assert {e["args"]["run_id"] for e in leases + cells_b + arrivals} \
        == {coord.run_id}


# -- fault paths -------------------------------------------------------------------


async def _saboteur(host, port, *, taken: asyncio.Event,
                    die: str, release: asyncio.Event | None = None):
    """A raw-protocol worker that accepts one task and never finishes it.

    ``die="disconnect"`` drops the connection (instant lease release);
    ``die="hang"`` keeps it open without heartbeats (lease expiry).
    """
    reader, writer = await asyncio.open_connection(host, port,
                                                   limit=MAX_LINE_BYTES)
    await send_msg(writer, {
        "t": "hello", "role": "worker", "protocol": PROTOCOL_VERSION,
        "worker": "saboteur", "fingerprint": code_fingerprint(),
    })
    expect(await read_msg(reader), "welcome")
    msg = await read_msg(reader)
    assert msg is not None and msg["t"] == "task"
    taken.set()
    if die == "hang":
        await release.wait()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


def test_worker_killed_mid_cell_is_reassigned(serial_hfrf):
    cells = _hfrf_cells()
    taken = asyncio.Event()
    # the event loop only holds weak references to tasks — the holder
    # keeps the saboteur alive across the scenario
    holder = {}

    async def before(coord):
        # the saboteur registers first, so the first dispatch is its
        holder["sab"] = asyncio.create_task(
            _saboteur(coord.host, coord.port, taken=taken,
                      die="disconnect"))
        await asyncio.sleep(0.05)  # welcome exchanged, worker idle
        assert "saboteur" in coord.workers

    async def after(coord):
        await asyncio.wait_for(holder["sab"], 10)

    bus = TelemetryBus()
    report, coord = asyncio.run(
        _run_scenario(cells, n_workers=1, before_submit=before,
                      after_submit=after,
                      coordinator_kwargs={"bus": bus}))
    assert taken.is_set()
    _assert_identical(report, serial_hfrf)
    # the dropped cell cost one reassignment, and the client saw the
    # retry (attempts > 1 on at least one cell)
    assert coord.stats["reassigned"] >= 1
    assert report.retried
    # the saboteur's open lease slice closed as a disconnect, before it
    # left; the cells all completed on the real worker
    sab = [(e.name.split()[0], e.kind, e.args.get("status"))
           for e in bus.events if e.track == "saboteur"]
    assert sab == [("service.worker", "instant", "join"),
                   ("lease", "begin", None), ("lease", "end", "disconnect"),
                   ("service.worker", "instant", "leave")]
    assert coord.metrics.lease_completed.value == len(cells)


def test_hung_worker_lease_expires_and_cell_is_reassigned(serial_hfrf):
    cells = _hfrf_cells()
    taken = asyncio.Event()
    release = asyncio.Event()
    holder = {}

    async def before(coord):
        holder["sab"] = asyncio.create_task(
            _saboteur(coord.host, coord.port, taken=taken, die="hang",
                      release=release))
        await asyncio.sleep(0.05)
        assert "saboteur" in coord.workers

    async def after(coord):
        release.set()
        await asyncio.wait_for(holder["sab"], 10)

    report, coord = asyncio.run(
        _run_scenario(cells, n_workers=1, before_submit=before,
                      after_submit=after,
                      coordinator_kwargs={"lease_seconds": 0.4}))
    assert taken.is_set()
    _assert_identical(report, serial_hfrf)
    assert coord.stats["expired"] >= 1
    assert report.retried


def test_corrupt_payload_costs_one_attempt_and_is_retried(
        serial_hfrf, tmp_path, monkeypatch):
    cells = _hfrf_cells()
    target = cells[0].key.key_str()
    monkeypatch.setenv("REPRO_SERVICE_CORRUPT", target)
    store = ResultCache(root=tmp_path, mode="rw")
    report, coord = asyncio.run(
        _run_scenario(cells, n_workers=1, store=store))
    _assert_identical(report, serial_hfrf)
    assert coord.stats["sha_mismatch"] == 1
    assert report.retried == [target]
    # the corrupted attempt never reached the store; the retry did
    assert store.get(cells[0].key) is not None


def test_simulation_fault_exhausts_retry_budget(monkeypatch):
    cells = _hfrf_cells()
    target = cells[0].key.key_str()
    monkeypatch.setenv("REPRO_PARALLEL_FAULT", target)
    monkeypatch.setenv("REPRO_PARALLEL_FAULT_ALWAYS", "1")
    report, coord = asyncio.run(
        _run_scenario(cells, n_workers=1,
                      coordinator_kwargs={"max_attempts": 2}))
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert failure.key_str == target
    assert failure.attempts == 2
    assert "CellFault" in failure.error
    assert coord.stats["failed_cells"] == 1
    assert coord.stats["worker_errors"] == 2
    # every other cell still completed
    assert len(report.results) == len(cells) - 1


def test_fingerprint_mismatch_is_rejected_at_handshake():
    async def scenario():
        coord = Coordinator(port=0, fingerprint="deadbeef00000000")
        await coord.start()
        try:
            with pytest.raises(ServiceError, match="fingerprint mismatch"):
                await submit_cells_async(coord.host, coord.port,
                                         _hfrf_cells()[:1])
            with pytest.raises(ServiceError, match="fingerprint mismatch"):
                await run_worker(coord.host, coord.port)
        finally:
            await coord.stop()

    asyncio.run(scenario())


def test_submit_of_a_tampered_cell_fails_naming_the_cell():
    from dataclasses import replace

    cell = _hfrf_cells()[0]
    tampered = replace(cell, config=replace(cell.config, num_cores=16))

    async def scenario():
        coord = Coordinator(port=0)
        await coord.start()
        try:
            with pytest.raises(ServiceError) as exc:
                await submit_cells_async(coord.host, coord.port, [tampered])
        finally:
            await coord.stop()
        return str(exc.value)

    error = asyncio.run(scenario())
    assert cell.key.key_str() in error
    assert "digest" in error


def test_submit_of_an_undecodable_cell_gets_an_error_reply():
    """A raw client's cell that does not decode is refused with a reason
    naming the cell, and the coordinator keeps serving."""
    async def scenario():
        coord = Coordinator(port=0)
        await coord.start()
        try:
            reader, writer = await asyncio.open_connection(
                coord.host, coord.port, limit=MAX_LINE_BYTES)
            await send_msg(writer, {
                "t": "hello", "role": "client",
                "protocol": PROTOCOL_VERSION,
                "fingerprint": code_fingerprint(),
            })
            expect(await read_msg(reader), "welcome")
            await send_msg(writer, {"t": "submit", "cells": [
                {"key": {"kind": "eval"}, "config": {}}]})
            reply = await read_msg(reader)
            writer.close()
            status = await asyncio.to_thread(
                coordinator_status, f"{coord.host}:{coord.port}")
        finally:
            await coord.stop()
        return reply, status

    reply, status = asyncio.run(scenario())
    assert reply is not None and reply["t"] == "error"
    assert "cell 0" in reply["error"]
    assert status["t"] == "status_reply"
    assert status["tasks"] == {"pending": 0, "leased": 0, "done": 0,
                               "failed": 0}


# -- administrative verbs ----------------------------------------------------------


def test_status_and_shutdown_round_trip():
    async def scenario():
        coord = Coordinator(port=0)
        await coord.start()
        worker = asyncio.create_task(
            run_worker(coord.host, coord.port, worker_id="w0"))
        await asyncio.sleep(0.05)
        status = await asyncio.to_thread(
            coordinator_status, f"{coord.host}:{coord.port}")
        assert status["workers"] == ["w0"]
        assert status["tasks"] == {"pending": 0, "leased": 0, "done": 0,
                                   "failed": 0}
        assert status["fleet"]["run_id"] == coord.run_id  # always served
        await asyncio.to_thread(
            request_shutdown, f"{coord.host}:{coord.port}")
        await asyncio.wait_for(coord.wait_stopped(), 5)
        await coord.stop()
        try:
            await asyncio.wait_for(worker, 10)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass

    asyncio.run(scenario())


# -- the CLI / script surface ------------------------------------------------------

SCRIPT = Path(__file__).parent.parent / "scripts" / "run_all_experiments.py"


@pytest.fixture()
def run_all():
    spec = importlib.util.spec_from_file_location("run_all_experiments",
                                                  SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _script_args(*extra):
    return ["--budget", str(BUDGET), "--profile-budget", str(PROFILE),
            "--warmup", str(WARMUP), "--seeds", str(SEED), "--no-cache",
            "--stable-output", "--quick", *extra]


class _Cluster:
    """A coordinator + workers on a background thread's event loop, for
    exercising the *synchronous* client surface (script, CLI)."""

    def __init__(self, n_workers=2):
        import threading

        self.addr = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._serve,
                                        args=(n_workers,), daemon=True)
        self._thread.start()
        assert self._ready.wait(30), "cluster failed to start"

    def _serve(self, n_workers):
        async def body():
            coord = Coordinator(port=0)
            await coord.start()
            self.addr = f"{coord.host}:{coord.port}"
            self._ready.set()
            workers = [
                asyncio.create_task(run_worker(coord.host, coord.port,
                                               worker_id=f"w{i}"))
                for i in range(n_workers)
            ]
            await coord.wait_stopped()
            await coord.stop()
            for w in workers:
                try:
                    await asyncio.wait_for(w, 10)
                except (ConnectionError, asyncio.IncompleteReadError):
                    pass

        asyncio.run(body())

    def stop(self):
        request_shutdown(self.addr)
        self._thread.join(timeout=30)
        assert not self._thread.is_alive()


def test_run_all_coordinator_is_byte_identical_to_serial(run_all, tmp_path,
                                                         capsys):
    serial = tmp_path / "serial.md"
    distributed = tmp_path / "distributed.md"
    assert run_all.main(_script_args("--jobs", "1",
                                     "--out", str(serial))) == 0
    capsys.readouterr()

    cluster = _Cluster(n_workers=2)
    try:
        rc = run_all.main(_script_args("--coordinator", cluster.addr,
                                       "--out", str(distributed)))
    finally:
        cluster.stop()
    assert rc == 0
    err = capsys.readouterr().err
    assert "via coordinator" in err
    assert serial.read_bytes() == distributed.read_bytes()


def test_cli_submit_matches_serial_figure_output(capsys):
    from repro.cli import main as cli_main

    common = ["--budget", "2000", "--seeds", str(SEED),
              "--cores", "2", "--groups", "MEM"]
    assert cli_main(["figure", "2", *common]) == 0
    serial_out = capsys.readouterr().out

    cluster = _Cluster(n_workers=2)
    try:
        rc = cli_main(["submit", cluster.addr, "figure2", *common])
    finally:
        cluster.stop()
    assert rc == 0
    assert capsys.readouterr().out == serial_out


def _closed_port_addr() -> str:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"127.0.0.1:{port}"


@pytest.mark.parametrize("argv", [
    ["submit", "ADDR", "table2", "--budget", "1000"],
    ["submit", "ADDR", "--status"],
    ["submit", "ADDR", "--stop"],
    ["worker", "ADDR", "--connect-retries", "0"],
], ids=lambda argv: " ".join(argv))
def test_cli_unreachable_coordinator_fails_in_one_line(argv, capsys):
    from repro.cli import main as cli_main

    addr = _closed_port_addr()
    with pytest.raises(SystemExit) as exc:
        cli_main([addr if a == "ADDR" else a for a in argv])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"repro {argv[0]}: {addr}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_submit_refused_by_coordinator_fails_in_one_line(capsys):
    from repro.cli import main as cli_main

    def submit(addr):
        try:
            return cli_main(["submit", addr, "table2", "--budget", "1000"])
        except SystemExit as exc:
            return exc.code

    async def scenario():
        coord = Coordinator(port=0, fingerprint="deadbeef00000000")
        await coord.start()
        try:
            return await asyncio.wait_for(asyncio.to_thread(
                submit, f"{coord.host}:{coord.port}"), TIMEOUT)
        finally:
            await coord.stop()

    assert asyncio.run(scenario()) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and "Traceback" not in out.err
    assert out.err.startswith("repro submit: 127.0.0.1:")
    assert "fingerprint mismatch" in out.err
    assert "deadbeef00000000" in out.err


def test_script_unreachable_coordinator_fails_in_one_line(run_all, capsys):
    addr = _closed_port_addr()
    with pytest.raises(SystemExit) as exc:
        run_all.main(_script_args("--coordinator", addr))
    assert exc.value.code == 1
    err = capsys.readouterr().err
    prewarm, failure = err.splitlines()
    assert prewarm.startswith("prewarm: ")
    assert failure.startswith(f"run_all_experiments.py: {addr}: ")
    assert "Traceback" not in err


def test_script_interrupt_exits_130_with_guidance(run_all, monkeypatch,
                                                  capsys):
    def boom(*_a, **_kw):
        raise KeyboardInterrupt

    monkeypatch.setattr(run_all, "run_cells", boom)
    rc = run_all.main(_script_args("--jobs", "2"))
    assert rc == 130
    err = capsys.readouterr().err
    assert "interrupted" in err and "--resume" in err


def test_cli_interrupt_exits_130(monkeypatch, capsys):
    import repro.cli as cli

    def boom(_args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_policies", boom)
    # parser binds fn at build time, so rebuild through main()
    rc = cli.main(["policies"])
    assert rc == 130
    assert "interrupted" in capsys.readouterr().err
