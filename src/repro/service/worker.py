"""Sweep worker: execute cells for a coordinator, stream exact results.

A worker is a thin shell around :func:`repro.experiments.cells
.execute_cell` — the same pure ``Cell -> result`` function the local
process pool runs.  It connects to a coordinator, registers (the
handshake rejects a code-fingerprint mismatch, so a stale checkout can
never contribute results), then loops:

1. receive one ``task`` (the coordinator leases at most one cell per
   worker at a time);
2. consult the optional local
   :class:`~repro.experiments.cache.ResultCache` (the same read-through
   the :class:`ExperimentContext` does, at cell granularity) — a warm
   entry skips the simulation;
3. otherwise simulate in a thread (``asyncio.to_thread``), so the
   heartbeat task keeps extending the worker's lease while the
   simulator grinds;
4. encode the result with the store's exact codec
   (:func:`~repro.experiments.cache.encode`) and send it back with its
   SHA-256.

Simulation faults are reported as ``task_failed`` (the coordinator
retries the cell, here or elsewhere, within its budget); a clean EOF
from the coordinator ends the worker.

Fault injection (tests only): ``REPRO_SERVICE_CORRUPT=<substring>``
makes the worker mis-report the SHA of the first attempt of any cell
whose key matches — exercising the coordinator's integrity check — and
the ``REPRO_PARALLEL_FAULT*`` hooks of :mod:`repro.experiments.cells`
work unchanged, since execution goes through ``execute_cell``.

Fleet observability (opt-in): the worker publishes one begin/end slice
per cell (hits and failures tagged, each with the ``cell_id`` of its
task) on a telemetry bus of its own; with ``trace_out`` set a
:class:`~repro.telemetry.export.JsonlRecorder` records that bus, plus a
``progress`` counter every ``snapshot_seconds`` and at exit, as the
worker's fleet trace.  Its header names the coordinator's ``run_id``
from the ``welcome``, so ``repro obs merge-trace`` aligns it against
the coordinator's lease slices.
"""

from __future__ import annotations

import asyncio
import itertools
import os

from repro.experiments.cache import (
    ResultCache,
    code_fingerprint,
    encode,
    payload_sha,
)
from repro.experiments.cells import Cell, execute_cell
from repro.service.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    decode_cell,
    expect,
    read_msg,
    send_msg,
)
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.export import JsonlRecorder
from repro.telemetry.fleet import wall_us

__all__ = ["run_worker"]


def _maybe_corrupt_sha(key_str: str, sha: str, attempt: int) -> str:
    """Test-only hook: claim a wrong SHA on the first matching attempt."""
    pattern = os.environ.get("REPRO_SERVICE_CORRUPT")
    if pattern and pattern in key_str and attempt == 0:
        return "0" * 64
    return sha


async def _heartbeat_loop(writer: asyncio.StreamWriter, lock: asyncio.Lock,
                          name: str, interval: float) -> None:
    try:
        while True:
            await asyncio.sleep(interval)
            async with lock:
                await send_msg(writer, {"t": "heartbeat", "worker": name})
    except (ConnectionError, OSError):
        return  # the main loop will see the EOF and wind down


def _progress(bus: TelemetryBus, stats: dict) -> None:
    """One progress counter (merged as a counter track, so worker
    throughput is visible over time, not just in sum)."""
    bus.emit("progress", "counter", wall_us(), "progress", **stats)


async def _snapshot_loop(bus: TelemetryBus, stats: dict,
                         interval: float) -> None:
    while True:
        await asyncio.sleep(interval)
        _progress(bus, stats)


def _execute(cell: Cell, attempt: int, store: ResultCache | None,
             stats: dict) -> dict:
    """Blocking leg, run in a thread: store read-through + simulate."""
    if store is not None:
        hit = store.get(cell.key)
        if hit is not None:
            stats["hits"] += 1
            return encode(hit)
    result = execute_cell(cell, attempt)
    if store is not None:
        store.put(cell.key, result)
    stats["executed"] += 1
    return encode(result)


async def run_worker(
    host: str,
    port: int,
    *,
    worker_id: str | None = None,
    store: ResultCache | None = None,
    connect_retries: int = 0,
    retry_delay: float = 0.5,
    heartbeat_seconds: float | None = None,
    trace_out: str | os.PathLike | None = None,
    snapshot_seconds: float | None = None,
) -> dict:
    """Serve one coordinator until it closes the connection.

    Returns the worker's lifetime counters: ``executed`` simulations,
    ``hits`` from the local store, ``failed`` cell attempts.
    ``connect_retries`` makes startup robust to the coordinator coming
    up a moment later (two-terminal quickstart, CI orchestration).
    """
    for attempt in itertools.count():
        try:
            reader, writer = await asyncio.open_connection(
                host, port, limit=MAX_LINE_BYTES)
            break
        except OSError:
            if attempt >= connect_retries:
                raise
            await asyncio.sleep(retry_delay)

    stats = {"executed": 0, "hits": 0, "failed": 0}
    send_lock = asyncio.Lock()
    heartbeat: asyncio.Task | None = None
    snapshotter: asyncio.Task | None = None
    bus = TelemetryBus(retain=False)
    trace: JsonlRecorder | None = None
    try:
        await send_msg(writer, {
            "t": "hello", "role": "worker", "protocol": PROTOCOL_VERSION,
            "worker": worker_id, "fingerprint": code_fingerprint(),
        })
        welcome = expect(await read_msg(reader), "welcome")
        name = welcome.get("worker") or worker_id or "worker"
        run_id = welcome.get("run_id")
        if trace_out is not None and run_id:
            trace = JsonlRecorder(trace_out, role="worker", run_id=run_id,
                                  worker_id=name)
            bus.subscribe(trace)
        interval = (heartbeat_seconds if heartbeat_seconds is not None
                    else float(welcome.get("heartbeat", 5.0)))
        heartbeat = asyncio.create_task(
            _heartbeat_loop(writer, send_lock, name, interval))
        if trace is not None and snapshot_seconds:
            snapshotter = asyncio.create_task(
                _snapshot_loop(bus, stats, snapshot_seconds))

        while True:
            msg = await read_msg(reader)
            if msg is None:
                break
            if msg.get("t") != "task":
                continue  # tolerate benign extras (future protocol growth)
            cell = decode_cell(msg["cell"])
            attempt = int(msg.get("attempt", 0))
            cell_id = msg.get("cell_id") or cell.key.digest()
            slice_name = "cell " + cell.key.key_str().split(":cfg=")[0]
            bus.emit(slice_name, "begin", wall_us(), "cells",
                     cell_id=cell_id, attempt=attempt)
            hits_before = stats["hits"]
            try:
                payload = await asyncio.to_thread(
                    _execute, cell, attempt, store, stats)
            except Exception as exc:
                stats["failed"] += 1
                bus.emit(slice_name, "end", wall_us(), "cells",
                         status="failed", error=repr(exc))
                async with send_lock:
                    await send_msg(writer, {
                        "t": "task_failed", "task": msg.get("task"),
                        "key": cell.key.digest(), "error": repr(exc),
                    })
                continue
            bus.emit(slice_name, "end", wall_us(), "cells",
                     status="hit" if stats["hits"] > hits_before else "done")
            sha = _maybe_corrupt_sha(cell.key.key_str(),
                                     payload_sha(payload), attempt)
            async with send_lock:
                await send_msg(writer, {
                    "t": "result", "task": msg.get("task"),
                    "key": cell.key.digest(), "payload": payload,
                    "sha": sha,
                })
    finally:
        for task in (heartbeat, snapshotter):
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        if trace is not None:
            _progress(bus, stats)  # the lifetime totals
            trace.close()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return stats
