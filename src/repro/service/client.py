"""Client side of the sweep service: submit cells, collect a report.

:func:`submit_cells` is the distributed counterpart of
:func:`repro.experiments.parallel.run_cells` — same input (a list of
:class:`Cell`), same output (a :class:`ParallelReport` whose ``results``
are ordered by canonical cell key), so
:func:`repro.experiments.parallel.merge_into` and every harness built on
it work unchanged.  Byte-identity of the final tables follows: the
client re-verifies each payload's SHA-256, decodes it with the store's
exact codec, and sorts by key — completion order, worker identity and
network timing cannot leak into the output.

Progress streams onto an optional telemetry bus as the same
``experiment.cell`` / ``experiment.cache`` instant events the local
parallel runner emits, so existing subscribers (the stderr narrator of
``run_all_experiments.py``) work on distributed runs too.  They are
stamped in wall-clock microseconds, the fleet clock, which is what lets
``repro submit --trace-out`` record them as the client lane of a fleet
trace.
"""

from __future__ import annotations

import asyncio
import sys
import time

from repro.experiments.cache import code_fingerprint, encode, verify_payload
from repro.experiments.cells import Cell, CellKey
from repro.experiments.parallel import CellFailure, ParallelReport
from repro.service.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ServiceError,
    expect,
    parse_addr,
    read_msg,
    send_msg,
)
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.fleet import wall_us

__all__ = ["submit_cells", "submit_cells_async", "request_shutdown",
           "coordinator_status"]


async def _open(host: str, port: int):
    reader, writer = await asyncio.open_connection(host, port,
                                                   limit=MAX_LINE_BYTES)
    await send_msg(writer, {
        "t": "hello", "role": "client", "protocol": PROTOCOL_VERSION,
        "fingerprint": code_fingerprint(),
    })
    welcome = expect(await read_msg(reader), "welcome")
    return reader, writer, welcome


async def _watch_loop(host: str, port: int, progress: dict,
                      interval: float, out=None) -> None:
    """``repro submit --watch``: poll status, redraw the dashboard.

    Runs on its own connection so the job stream stays untouched.  On a
    TTY each frame overwrites the last (ANSI cursor-up); on a pipe the
    frames are simply appended, which is still a usable progress log.
    """
    from repro.telemetry.fleet import render_dashboard

    out = out if out is not None else sys.stderr
    tty = getattr(out, "isatty", lambda: False)()
    prev_lines = 0
    while True:
        await asyncio.sleep(interval)
        try:
            status = await _simple_request(host, port, {"t": "status"},
                                           "status_reply")
        except (OSError, ServiceError):
            continue  # coordinator busy or briefly unreachable; retry
        frame = render_dashboard(status, progress["done"],
                                 progress["total"])
        n_lines = frame.count("\n") + 1
        if tty and prev_lines:
            out.write("\x1b[F\x1b[K" * prev_lines)
        out.write(frame + "\n")
        out.flush()
        prev_lines = n_lines if tty else 0


async def submit_cells_async(
    host: str,
    port: int,
    cells: list[Cell],
    *,
    bus: TelemetryBus | None = None,
    watch_seconds: float | None = None,
) -> ParallelReport:
    """Submit cells to a running coordinator and await every result.

    ``watch_seconds`` enables the live dashboard: a sidecar connection
    polls coordinator status every that-many seconds and renders the
    progress bar + worker table to stderr until the job completes.
    """
    t0 = time.perf_counter()
    unique: dict[CellKey, Cell] = {}
    for cell in cells:
        unique.setdefault(cell.key, cell)
    ordered = sorted(unique.values(), key=lambda c: c.key.key_str())
    by_digest = {c.key.digest(): c.key for c in ordered}

    report = ParallelReport()
    results: dict[CellKey, object] = {}
    reader, writer, welcome = await _open(host, port)
    report.run_id = welcome.get("run_id")
    progress = {"done": 0, "total": len(ordered)}
    watcher: asyncio.Task | None = None
    try:
        await send_msg(writer, {
            "t": "submit",
            "cells": [encode(c) for c in ordered],
        })
        accepted = expect(await read_msg(reader), "accepted")
        total = accepted["total"]
        progress["total"] = total
        if watch_seconds is not None:
            watcher = asyncio.create_task(
                _watch_loop(host, port, progress, watch_seconds))
        done = 0
        while True:
            msg = await read_msg(reader)
            if msg is None:
                raise ServiceError(
                    f"coordinator closed the connection with "
                    f"{total - done} cells outstanding"
                )
            t = msg.get("t")
            if t == "cell_done":
                key = by_digest[msg["key"]]
                results[key] = verify_payload(key, msg["payload"],
                                              msg.get("sha"))
                done += 1
                progress["done"] = done
                status = msg.get("status", "run")
                if status == "hit":
                    report.cache_hits += 1
                else:
                    report.executed += 1
                    if status == "retried":
                        report.retried.append(key.key_str())
                if bus is not None:
                    bus.emit("experiment.cell", "instant", cycle=wall_us(),
                             track="experiments", key=key.key_str(),
                             status=status, seconds=0.0, done=done,
                             total=total)
            elif t == "cell_failed":
                key = by_digest[msg["key"]]
                done += 1
                progress["done"] = done
                report.failures.append(CellFailure(
                    key.key_str(), str(msg.get("error", "failed")),
                    int(msg.get("attempts", 0)),
                ))
                if bus is not None:
                    bus.emit("experiment.cell", "instant", cycle=wall_us(),
                             track="experiments", key=key.key_str(),
                             status="failed", seconds=0.0, done=done,
                             total=total)
            elif t == "job_done":
                break
            else:
                raise ServiceError(f"unexpected message {t!r} mid-job")
    finally:
        if watcher is not None:
            watcher.cancel()
            try:
                await watcher
            except asyncio.CancelledError:
                pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    report.results = dict(
        sorted(results.items(), key=lambda kv: kv[0].key_str())
    )
    report.seconds = time.perf_counter() - t0
    report.cache_stats.hits = report.cache_hits
    report.cache_stats.misses = report.executed
    if bus is not None:
        bus.emit("experiment.cache", "instant", cycle=wall_us(),
                 track="experiments", **report.cache_stats.as_dict())
    return report


def submit_cells(addr: str, cells: list[Cell], *,
                 bus: TelemetryBus | None = None,
                 watch_seconds: float | None = None) -> ParallelReport:
    """Blocking wrapper: ``addr`` is ``"host:port"``."""
    host, port = parse_addr(addr)
    return asyncio.run(submit_cells_async(host, port, cells, bus=bus,
                                          watch_seconds=watch_seconds))


async def _simple_request(host: str, port: int, msg: dict,
                          reply: str) -> dict:
    reader, writer, _welcome = await _open(host, port)
    try:
        await send_msg(writer, msg)
        return expect(await read_msg(reader), reply)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def coordinator_status(addr: str) -> dict:
    """Status snapshot (workers, task counts, lifetime stats)."""
    host, port = parse_addr(addr)
    return asyncio.run(_simple_request(host, port, {"t": "status"},
                                       "status_reply"))


def request_shutdown(addr: str) -> None:
    """Ask the coordinator to stop (trusted-network administrative verb)."""
    host, port = parse_addr(addr)
    asyncio.run(_simple_request(host, port, {"t": "shutdown"}, "bye"))
