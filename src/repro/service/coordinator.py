"""Asyncio sweep coordinator: dispatch cells to workers, stream results.

One :class:`Coordinator` owns a TCP listener, a
:class:`~repro.experiments.board.TaskBoard` (leases, retry budget,
ME-dependency gating — the same board that schedules a local
``--jobs N`` pool) and an optional result store, a plain
:class:`~repro.experiments.cache.ResultCache`.  Workers
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

Everything the coordinator does is published on its telemetry bus,
stamped in wall-clock microseconds, on the track of the worker involved:

* ``service.worker`` instants (join / leave) and ``service.heartbeat``;
* one lease slice per attempt, ``lease <cell>``: it begins at dispatch
  and ends with the attempt's ``status`` — done, corrupt, failed,
  expired or disconnect — and whether the cell was ``requeued``; a late
  result arriving after its lease expired is an instant instead;
* ``service.job`` instants on the ``jobs`` track (submitted, with its
  store hits and misses, and done).

Its counters (:class:`~repro.telemetry.fleet.FleetMetrics`, behind
:attr:`Coordinator.stats`), a fleet trace file
(:class:`~repro.telemetry.export.JsonlRecorder`) and the ``serve``
narration are all consumers of that bus.  The coordinator stamps its
``run_id`` into every ``welcome`` so workers and clients can correlate
their own artifacts with its timeline, and serves the live metrics
snapshot through ``status_reply.fleet``.
"""

from __future__ import annotations

import asyncio
import itertools
import time

from repro.experiments.board import TaskBoard, TaskState
from repro.experiments.cache import (
    PayloadIntegrityError,
    ResultCache,
    code_fingerprint,
    encode,
    payload_sha,
    verify_payload,
)
from repro.service.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_cell,
    read_msg,
    send_msg,
)
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.fleet import FleetMetrics, new_run_id, wall_us

__all__ = ["Coordinator"]


def _lease_name(state: TaskState) -> str:
    return "lease " + state.cell.key.key_str().split(":cfg=")[0]


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
    ) -> None:
        self.host = host
        self.port = port
        self.store = store
        self.lease_seconds = lease_seconds
        self.fingerprint = fingerprint or code_fingerprint()
        self.run_id = new_run_id()
        self.board = TaskBoard(max_attempts=max_attempts)
        self.bus = bus if bus is not None else TelemetryBus(retain=False)
        self.metrics = FleetMetrics(self.run_id)
        self.bus.subscribe(self.metrics)
        self.workers: dict[str, _WorkerConn] = {}
        self.jobs: dict[int, _Job] = {}
        #: digest -> jobs waiting on that cell
        self._watchers: dict[str, list[_Job]] = {}
        self._task_ids = itertools.count(1)
        self._job_ids = itertools.count(1)
        self._anon_ids = itertools.count(1)
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

    async def wait_stopped(self) -> None:
        """Block until a ``shutdown`` message arrives (CLI serve loop)."""
        await self._stopping.wait()

    async def stop(self) -> None:
        """Close the listener and every connection; cancel the reaper."""
        self._stopping.set()
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

    @property
    def stats(self) -> dict:
        """Lifetime counters, as ``status_reply.stats`` reports them."""
        return self.metrics.stats()

    def fleet_snapshot(self) -> dict:
        """The live fleet-metrics document (``status_reply.fleet``)."""
        return self.metrics.snapshot(queue=self.board.counts())

    def _emit(self, name: str, track: str, kind: str = "instant",
              **args) -> None:
        self.bus.emit(name, kind, cycle=wall_us(), track=track, **args)

    def _attempt_over(self, state: TaskState, status: str,
                      lessee: str | None, sender: str | None = None) -> None:
        """Publish how one attempt at a cell ended, once the board has
        moved the cell on: the end of ``lessee``'s open lease slice, or,
        with no lease open (a late result after its lease expired), an
        instant on the ``sender``'s track."""
        track = lessee or sender
        args = {} if status == "done" else {
            "requeued": state.status == "pending"}
        self._emit(_lease_name(state), track, "end" if lessee else "instant",
                   worker=track, cell_id=state.digest, status=status, **args)

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
        except ProtocolError as exc:
            # say why before hanging up (a client raises it as ServiceError)
            try:
                await send_msg(writer, {"t": "error", "error": str(exc)})
            except (ConnectionError, OSError):
                pass
        except (ConnectionError, asyncio.IncompleteReadError):
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
        self._emit("service.worker", name, status="join", worker=name)
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
                    self._emit("service.heartbeat", name, worker=name)
                elif t == "result":
                    await self._on_result(conn, msg)
                elif t == "task_failed":
                    await self._on_task_failed(conn, msg)
                else:
                    raise ProtocolError(f"unexpected worker message {t!r}")
        finally:
            self.workers.pop(name, None)
            released = self.board.release_worker(name)
            for state in released:
                self._attempt_over(state, "disconnect", name)
            self._emit("service.worker", name, status="leave", worker=name,
                       executed=conn.executed, released=len(released))
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
        lessee = state.worker if state.status == "leased" else None
        payload = msg.get("payload")
        sha = msg.get("sha", "")
        try:
            if self.store is not None:
                result = self.store.admit(state.cell.key, payload, sha)
            else:
                result = verify_payload(state.cell.key, payload, sha)
        except (PayloadIntegrityError, TypeError) as exc:
            status = self.board.release(state, repr(exc))
            self._attempt_over(state, "corrupt", lessee, conn.name)
            if status == "failed":
                await self._finish_cell(digest)
            await self._dispatch()
            return
        self.board.mark_done(digest, result)
        conn.executed += 1
        self._attempt_over(state, "done", lessee, conn.name)
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
        status = self.board.release(state,
                                    str(msg.get("error", "worker error")))
        self._attempt_over(state, "failed", state.worker)
        if status == "failed":
            await self._finish_cell(digest)
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
                    await send_msg(writer, {
                        "t": "status_reply",
                        "workers": sorted(self.workers),
                        "tasks": self.board.counts(),
                        "jobs": len(self.jobs),
                        "stats": self.stats,
                        "run_id": self.run_id,
                        "fleet": self.fleet_snapshot(),
                    })
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
        cells = [decode_cell(doc, f"cell {i}")
                 for i, doc in enumerate(msg.get("cells", ()))]
        job = _Job(next(self._job_ids), writer,
                   {c.key.digest() for c in cells})
        self.jobs[job.job_id] = job
        hits = misses = 0
        for cell in cells:
            state = self.board.add(cell)
            if (self.store is not None and state.status == "pending"
                    and state.attempts == 0):
                # probe the warm store once per cell
                cached = self.store.get(cell.key)
                if cached is None:
                    misses += 1
                else:
                    self.board.mark_done(state.digest, cached)
                    hits += 1
        for digest in job.remaining:
            self._watchers.setdefault(digest, []).append(job)
        await self._job_send(job, {
            "t": "accepted", "job": job.job_id, "total": job.total,
            "hits": hits,
        })
        self._emit("service.job", "jobs", status="submitted", job=job.job_id,
                   total=job.total, hits=hits, misses=misses)
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
            payload = encode(self.board.done[digest])
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
        self._emit("service.job", "jobs", status="done", job=job.job_id,
                   total=job.total, failures=job.failures)

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
                    self._emit(_lease_name(state), conn.name, "begin",
                               worker=conn.name, cell_id=state.digest,
                               key=cell.key.key_str(),
                               attempt=state.attempts - 1)
                    conn.current = state.digest
                    try:
                        async with conn.send_lock:
                            await send_msg(conn.writer, {
                                "t": "task", "task": task_id,
                                "attempt": state.attempts - 1,
                                "cell": encode(cell),
                                "cell_id": state.digest,
                            })
                    except (ConnectionError, OSError):
                        # the worker loop's finally-clause requeues (and
                        # closes the lease slice as a disconnect)
                        conn.current = None
                        continue
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
            for state in expired:
                # the worker keeps grinding (or is gone); either way the
                # cell is someone else's now
                self._attempt_over(state, "expired", state.worker)
                if state.status == "failed":
                    await self._finish_cell(state.digest)
            await self._dispatch()

    # -- introspection -----------------------------------------------------------

    def summary(self) -> str:
        s = self.stats
        return (f"{s['results']} results, {s['hits']} store hits, "
                f"{s['reassigned']} reassigned, {s['expired']} expired "
                f"leases, {s['sha_mismatch']} corrupt payloads, "
                f"{s['failed_cells']} failed cells, {s['jobs']} jobs")
