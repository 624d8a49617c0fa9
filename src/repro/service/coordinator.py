"""Asyncio sweep coordinator: dispatch cells to workers, stream results.

One :class:`Coordinator` owns a TCP listener, a :class:`TaskBoard`
(leases, retry budget, ME-dependency gating) and an optional result
store, a plain :class:`~repro.experiments.cache.ResultCache`.  Workers
and clients connect over the newline-delimited JSON protocol
(:mod:`repro.service.protocol`) and are told apart by their ``hello``
role:

* **workers** register, then sit in a request loop: the coordinator
  leases them one cell at a time, they stream back float-hex exact
  payloads, heartbeats extend their leases.  A worker that disconnects
  releases its leases instantly; one that hangs while connected loses
  them at the lease deadline.  Either way the cell is requeued for
  another worker until its retry budget (``max_attempts``) is spent.
* **clients** submit batches of encoded cells.  Warm-store hits complete
  immediately; everything else is dispatched, and each completed cell is
  streamed back (``cell_done`` with payload + SHA) the moment it lands,
  followed by one ``job_done``.  Two jobs submitting the same cell share
  one execution — cells are deduplicated globally by key digest.

Every incoming result is verified (SHA-256 over the canonical payload
JSON) before it is stored or forwarded; a corrupted payload costs the
sender nothing but the cell one attempt.  Results are pure functions of
their cell, so a late result from an expired lease is accepted if it is
the first valid one — determinism makes acceptance idempotent.

The coordinator never orders results: clients reassemble their report in
canonical cell-key order, which is what keeps distributed output
byte-identical to serial (see docs/DISTRIBUTED.md).

Progress is mirrored onto an optional telemetry bus as instant events:
``service.worker`` (join/leave), ``service.cell`` (dispatch / done /
failed, with worker and attempt count) and ``service.job``
(submit/done).

Fleet observability (opt-in): pass a
:class:`~repro.telemetry.fleet.FleetObserver` and the coordinator
mirrors every lease grant/complete/expire/retry, heartbeat, store probe
and worker join/leave into fleet metrics and wall-clock trace slices,
serves the live metrics snapshot through ``status_reply.fleet``, and
stamps its ``run_id`` into every ``welcome`` so workers and clients can
correlate their own artifacts with the coordinator's timeline.  Without
an observer the only addition over PR 6 is the ``run_id`` string itself.
"""

from __future__ import annotations

import asyncio
import itertools
import time

from repro.experiments.cache import (
    PayloadIntegrityError,
    ResultCache,
    code_fingerprint,
    encode_payload,
    payload_sha,
    verify_payload,
)
from repro.experiments.cells import CellKey
from repro.service.leases import TaskBoard, TaskState
from repro.service.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_cell,
    read_msg,
    send_msg,
)
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.fleet import FleetObserver, new_run_id

__all__ = ["Coordinator"]


class _WorkerConn:
    """One registered worker connection."""

    __slots__ = ("name", "writer", "current", "executed", "send_lock")

    def __init__(self, name: str, writer: asyncio.StreamWriter) -> None:
        self.name = name
        self.writer = writer
        self.current: str | None = None  # digest of the leased cell
        self.executed = 0
        self.send_lock = asyncio.Lock()


class _Job:
    """One client submission: the cells it wants and where to stream."""

    __slots__ = ("job_id", "writer", "remaining", "total", "failures",
                 "done_count", "send_lock", "dead", "t0")

    def __init__(self, job_id: int, writer: asyncio.StreamWriter,
                 digests: set[str]) -> None:
        self.job_id = job_id
        self.writer = writer
        self.remaining = set(digests)
        self.total = len(digests)
        self.failures = 0
        self.done_count = 0
        self.send_lock = asyncio.Lock()
        self.dead = False
        self.t0 = time.perf_counter()


class Coordinator:
    """The sweep service's brain; see the module docstring."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        store: ResultCache | None = None,
        lease_seconds: float = 60.0,
        max_attempts: int = 3,
        bus: TelemetryBus | None = None,
        fingerprint: str | None = None,
        observer: FleetObserver | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.store = store
        self.lease_seconds = lease_seconds
        self.bus = bus
        self.fingerprint = fingerprint or code_fingerprint()
        self.observer = observer
        self.run_id = observer.run_id if observer is not None else new_run_id()
        if observer is not None:
            observer.board_counts = lambda: self.board.counts()
        self.board = TaskBoard(max_attempts=max_attempts)
        self.workers: dict[str, _WorkerConn] = {}
        self.jobs: dict[int, _Job] = {}
        #: digest -> jobs waiting on that cell
        self._watchers: dict[str, list[_Job]] = {}
        self.stats = {
            "results": 0, "hits": 0, "reassigned": 0, "expired": 0,
            "sha_mismatch": 0, "worker_errors": 0, "failed_cells": 0,
            "jobs": 0,
        }
        self._task_ids = itertools.count(1)
        self._job_ids = itertools.count(1)
        self._anon_ids = itertools.count(1)
        self._event_seq = itertools.count(1)
        self._dispatch_lock = asyncio.Lock()
        self._stopping = asyncio.Event()
        self._server: asyncio.AbstractServer | None = None
        self._reaper: asyncio.Task | None = None

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._reaper = asyncio.create_task(self._reap_loop())
        if self.observer is not None:
            self.observer.start()

    async def wait_stopped(self) -> None:
        """Block until a ``shutdown`` message arrives (CLI serve loop)."""
        await self._stopping.wait()

    async def stop(self) -> None:
        """Close the listener and every connection; cancel the reaper."""
        self._stopping.set()
        if self.observer is not None:
            await self.observer.stop()
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
            self._reaper = None
        for conn in list(self.workers.values()):
            conn.writer.close()
        for job in list(self.jobs.values()):
            job.writer.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- telemetry ---------------------------------------------------------------

    def _emit(self, name: str, **args) -> None:
        if self.bus is not None:
            self.bus.emit(name, "instant", cycle=next(self._event_seq),
                          track="service", **args)

    # -- connection handling -----------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            hello = await read_msg(reader)
            if hello is None or hello.get("t") != "hello":
                await send_msg(writer, {"t": "error",
                                        "error": "expected hello"})
                return
            if hello.get("protocol") != PROTOCOL_VERSION:
                await send_msg(writer, {
                    "t": "error",
                    "error": f"protocol {hello.get('protocol')!r} != "
                             f"{PROTOCOL_VERSION}",
                })
                return
            if hello.get("fingerprint") != self.fingerprint:
                await send_msg(writer, {
                    "t": "error",
                    "error": "code fingerprint mismatch: coordinator runs "
                             f"{self.fingerprint}, peer runs "
                             f"{hello.get('fingerprint')} — results would "
                             "not be comparable",
                })
                return
            role = hello.get("role")
            if role == "worker":
                await self._worker_loop(hello, reader, writer)
            elif role == "client":
                await self._client_loop(hello, reader, writer)
            else:
                await send_msg(writer, {"t": "error",
                                        "error": f"unknown role {role!r}"})
        except (ConnectionError, ProtocolError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- worker side -------------------------------------------------------------

    async def _worker_loop(self, hello: dict, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        name = hello.get("worker") or f"worker-{next(self._anon_ids)}"
        if name in self.workers:
            name = f"{name}-{next(self._anon_ids)}"
        conn = _WorkerConn(name, writer)
        self.workers[name] = conn
        await send_msg(writer, {
            "t": "welcome", "protocol": PROTOCOL_VERSION,
            "fingerprint": self.fingerprint, "worker": name,
            "lease": self.lease_seconds,
            "heartbeat": round(max(self.lease_seconds / 3.0, 0.05), 3),
            "run_id": self.run_id,
        })
        self._emit("service.worker", status="join", worker=name)
        if self.observer is not None:
            self.observer.on_worker_join(name)
        try:
            await self._dispatch()
            while True:
                msg = await read_msg(reader)
                if msg is None:
                    break
                t = msg.get("t")
                if t == "heartbeat":
                    self.board.extend_leases(name, time.monotonic(),
                                             self.lease_seconds)
                    if self.observer is not None:
                        self.observer.on_heartbeat(name)
                elif t == "result":
                    await self._on_result(conn, msg)
                elif t == "task_failed":
                    await self._on_task_failed(conn, msg)
                else:
                    raise ProtocolError(f"unexpected worker message {t!r}")
        finally:
            self.workers.pop(name, None)
            released = self.board.release_worker(name)
            self.stats["reassigned"] += sum(
                1 for s in released if s.status == "pending")
            self._emit("service.worker", status="leave", worker=name,
                       executed=conn.executed, released=len(released))
            if self.observer is not None:
                self.observer.on_worker_leave(name, conn.executed)
            for state in released:
                if state.status == "failed":
                    await self._finish_cell(state.digest)
            if not self._stopping.is_set():
                await self._dispatch()

    async def _on_result(self, conn: _WorkerConn, msg: dict) -> None:
        digest = msg.get("key")
        state = self.board.tasks.get(digest)
        if conn.current == digest:
            conn.current = None
        if state is None or state.status == "done":
            await self._dispatch()  # stale or duplicate result; ignore
            return
        payload = msg.get("payload")
        sha = msg.get("sha", "")
        try:
            if self.store is not None:
                result = self.store.admit(state.cell.key, payload, sha)
            else:
                result = verify_payload(state.cell.key, payload, sha)
        except (PayloadIntegrityError, TypeError) as exc:
            self.stats["sha_mismatch"] += 1
            status = self.board.release(state, repr(exc))
            self._emit("service.cell", status="corrupt", key=digest,
                       worker=conn.name, attempts=state.attempts)
            if self.observer is not None:
                self.observer.on_lease_ended(digest, "corrupt")
            if status == "failed":
                await self._finish_cell(digest)
            else:
                self.stats["reassigned"] += 1
            await self._dispatch()
            return
        self.board.mark_done(digest, result)
        self.stats["results"] += 1
        conn.executed += 1
        self._emit("service.cell", status="done", key=digest,
                   worker=conn.name, attempts=state.attempts)
        if self.observer is not None:
            self.observer.on_lease_ended(digest, "done")
        await self._finish_cell(digest)
        await self._dispatch()

    async def _on_task_failed(self, conn: _WorkerConn, msg: dict) -> None:
        digest = msg.get("key")
        state = self.board.tasks.get(digest)
        if conn.current == digest:
            conn.current = None
        if state is None or state.status != "leased":
            await self._dispatch()
            return
        self.stats["worker_errors"] += 1
        if self.observer is not None:
            self.observer.on_lease_ended(digest, "failed")
        status = self.board.release(state,
                                    str(msg.get("error", "worker error")))
        if status == "failed":
            await self._finish_cell(digest)
        else:
            self.stats["reassigned"] += 1
        await self._dispatch()

    # -- client side -------------------------------------------------------------

    async def _client_loop(self, hello: dict, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        await send_msg(writer, {
            "t": "welcome", "protocol": PROTOCOL_VERSION,
            "fingerprint": self.fingerprint,
            "lease": self.lease_seconds,
            "run_id": self.run_id,
        })
        job: _Job | None = None
        try:
            while True:
                msg = await read_msg(reader)
                if msg is None:
                    break
                t = msg.get("t")
                if t == "submit":
                    job = await self._on_submit(msg, writer)
                elif t == "status":
                    reply = {
                        "t": "status_reply",
                        "workers": sorted(self.workers),
                        "tasks": self.board.counts(),
                        "jobs": len(self.jobs),
                        "stats": dict(self.stats),
                        "run_id": self.run_id,
                    }
                    if self.observer is not None:
                        fleet = self.observer.status_doc()
                        if fleet is not None:
                            reply["fleet"] = fleet
                    await send_msg(writer, reply)
                elif t == "shutdown":
                    await send_msg(writer, {"t": "bye"})
                    self._stopping.set()
                    break
                else:
                    raise ProtocolError(f"unexpected client message {t!r}")
        finally:
            if job is not None:
                job.dead = True
                self.jobs.pop(job.job_id, None)

    async def _on_submit(self, msg: dict,
                         writer: asyncio.StreamWriter) -> _Job:
        cells = [decode_cell(doc) for doc in msg.get("cells", ())]
        job = _Job(next(self._job_ids), writer,
                   {c.key.digest() for c in cells})
        self.jobs[job.job_id] = job
        self.stats["jobs"] += 1
        hits = 0
        for cell in cells:
            state = self.board.add(cell)
            if state.status == "pending" and state.attempts == 0:
                # probe the warm store once per cell
                cached = (self.store.get(cell.key)
                          if self.store is not None else None)
                if self.observer is not None and self.store is not None:
                    self.observer.on_store_probe(cached is not None)
                if cached is not None:
                    self.board.mark_done(state.digest, cached)
                    self.stats["hits"] += 1
                    hits += 1
        for digest in job.remaining:
            self._watchers.setdefault(digest, []).append(job)
        await self._job_send(job, {
            "t": "accepted", "job": job.job_id, "total": job.total,
            "hits": hits,
        })
        self._emit("service.job", status="submitted", job=job.job_id,
                   total=job.total, hits=hits)
        if self.observer is not None:
            self.observer.on_job("submitted", job.job_id, job.total)
        # flush cells that are already settled (store hits, results or
        # failures shared with an earlier job)
        for digest in sorted(job.remaining):
            if self.board.settled(digest):
                await self._notify_job(job, digest)
        await self._maybe_finish_job(job)
        await self._dispatch()
        return job

    # -- job notification --------------------------------------------------------

    async def _job_send(self, job: _Job, msg: dict) -> None:
        if job.dead:
            return
        try:
            async with job.send_lock:
                await send_msg(job.writer, msg)
        except (ConnectionError, OSError):
            job.dead = True

    async def _notify_job(self, job: _Job, digest: str) -> None:
        """Stream one settled cell to one job and update its counters."""
        if digest not in job.remaining:
            return
        job.remaining.discard(digest)
        job.done_count += 1
        state = self.board.tasks[digest]
        key_str = state.cell.key.key_str()
        if state.status == "done":
            payload = encode_payload(self.board.done[digest])
            status = ("hit" if state.attempts == 0
                      else "run" if state.attempts == 1 else "retried")
            await self._job_send(job, {
                "t": "cell_done", "job": job.job_id, "key": digest,
                "key_str": key_str, "status": status,
                "attempts": state.attempts, "payload": payload,
                "sha": payload_sha(payload), "done": job.done_count,
                "total": job.total,
            })
        else:
            job.failures += 1
            await self._job_send(job, {
                "t": "cell_failed", "job": job.job_id, "key": digest,
                "key_str": key_str, "error": state.error,
                "attempts": state.attempts, "done": job.done_count,
                "total": job.total,
            })

    async def _finish_cell(self, digest: str) -> None:
        """A cell settled (done or failed): fan out to waiting jobs."""
        if self.board.tasks.get(digest) is None:
            return
        if self.board.tasks[digest].status == "failed":
            self.stats["failed_cells"] += 1
        for job in self._watchers.pop(digest, []):
            await self._notify_job(job, digest)
            await self._maybe_finish_job(job)

    async def _maybe_finish_job(self, job: _Job) -> None:
        if job.remaining or job.dead:
            return
        await self._job_send(job, {
            "t": "job_done", "job": job.job_id, "total": job.total,
            "failures": job.failures,
            "seconds": round(time.perf_counter() - job.t0, 4),
        })
        self.jobs.pop(job.job_id, None)
        self._emit("service.job", status="done", job=job.job_id,
                   total=job.total, failures=job.failures)
        if self.observer is not None:
            self.observer.on_job("completed", job.job_id, job.total)

    # -- dispatch ----------------------------------------------------------------

    async def _dispatch(self) -> None:
        """Pair idle workers with ready tasks and ship the cells."""
        async with self._dispatch_lock:
            while True:
                idle = [w for w in self.workers.values()
                        if w.current is None]
                if not idle:
                    return
                ready = self.board.ready()
                if not ready:
                    return
                now = time.monotonic()
                for conn, state in zip(idle, ready):
                    cell = self.board.resolve(state)
                    task_id = next(self._task_ids)
                    self.board.lease(state, conn.name, now,
                                     self.lease_seconds, task_id)
                    conn.current = state.digest
                    from repro.service.protocol import encode_cell

                    try:
                        async with conn.send_lock:
                            await send_msg(conn.writer, {
                                "t": "task", "task": task_id,
                                "attempt": state.attempts - 1,
                                "cell": encode_cell(cell),
                                "cell_id": state.digest,
                            })
                    except (ConnectionError, OSError):
                        # the worker loop's finally-clause requeues
                        conn.current = None
                        continue
                    self._emit("service.cell", status="dispatch",
                               key=state.digest, worker=conn.name,
                               attempts=state.attempts)
                    if self.observer is not None:
                        self.observer.on_lease_granted(
                            conn.name, state.digest, cell.key.key_str(),
                            state.attempts - 1)
                if len(ready) <= len(idle):
                    return

    # -- lease reaping -----------------------------------------------------------

    async def _reap_loop(self) -> None:
        period = max(self.lease_seconds / 4.0, 0.05)
        while True:
            await asyncio.sleep(period)
            expired = self.board.expire(time.monotonic())
            if not expired:
                continue
            self.stats["expired"] += len(expired)
            for state in expired:
                # the worker keeps grinding (or is gone); either way the
                # cell is someone else's now
                self._emit("service.cell", status="expired",
                           key=state.digest, attempts=state.attempts)
                if self.observer is not None:
                    self.observer.on_lease_ended(state.digest, "expired")
                if state.status == "failed":
                    await self._finish_cell(state.digest)
                else:
                    self.stats["reassigned"] += 1
            await self._dispatch()

    # -- introspection -----------------------------------------------------------

    def summary(self) -> str:
        s = self.stats
        return (f"{s['results']} results, {s['hits']} store hits, "
                f"{s['reassigned']} reassigned, {s['expired']} expired "
                f"leases, {s['sha_mismatch']} corrupt payloads, "
                f"{s['failed_cells']} failed cells, {s['jobs']} jobs")
