"""Fleet observability: correlation ids, coordinator metrics, dashboards.

The per-run telemetry hub (:mod:`repro.telemetry.hub`) observes *one
simulation in one process*.  This module observes the machinery that
runs many simulations across many processes — the distributed sweep
service (:mod:`repro.service`) — and answers the fleet-level questions
the hub cannot: which worker is slow, why a lease was retried, where
fleet wall-clock goes.

Every fleet process publishes what it does on a
:class:`~repro.telemetry.bus.TelemetryBus`, stamped in wall-clock
microseconds (:func:`wall_us`): the coordinator its worker, lease, job
and heartbeat events, a worker its cell slices and progress counters, a
client its ``experiment.cell`` arrivals.  Consumers of those buses:

* :class:`~repro.telemetry.export.JsonlRecorder` — the fleet trace of
  one process, in the run telemetry's JSONL schema;
  :func:`~repro.telemetry.export.merge_traces` stitches the files of one
  run into one Chrome trace (``repro obs merge-trace``).
* :class:`FleetMetrics` — the coordinator's counters: an instrument
  registry (reusing :class:`~repro.telemetry.registry.TelemetryRegistry`)
  of lease grant/complete/expire/retry counters, per-worker throughput
  and heartbeat-gap histograms and result-store hit/miss/verify
  counters, plus the coordinator's lifetime ``stats``.
  :func:`prometheus_text` renders a snapshot in the Prometheus text
  exposition format and :func:`write_snapshots` writes snapshots
  periodically to JSONL and a ``.prom`` file.
* :func:`render_dashboard` — the TTY progress-bar + worker-table view
  ``repro submit --watch`` refreshes from the coordinator's status.

Correlation identifiers travel inside the service protocol
(``welcome.run_id``, ``task.cell_id`` — optional, backward-compatible
protocol-v1 fields): the coordinator mints the ``run_id``
(:func:`new_run_id`), and every fleet trace names it in its header's
``fleet`` section, which is what lets ``repro obs merge-trace`` refuse
to mix runs.
"""

from __future__ import annotations

import json
import os
import time
import uuid

from repro.telemetry.bus import TraceEvent
from repro.telemetry.registry import TelemetryRegistry

__all__ = [
    "new_run_id",
    "wall_us",
    "FleetMetrics",
    "prometheus_text",
    "write_prometheus",
    "write_snapshots",
    "render_dashboard",
]


def new_run_id() -> str:
    """A fresh fleet-run identifier (short, log-friendly, unique)."""
    return uuid.uuid4().hex[:12]


def wall_us() -> int:
    """The fleet clock: wall-clock microseconds since the epoch."""
    return time.time_ns() // 1000


# -- coordinator metrics ---------------------------------------------------------


class FleetMetrics:
    """The coordinator's counters, folded from the events on its bus.

    The coordinator subscribes one instance to its own bus.  Instrument
    names are fixed (no per-worker instruments) so the Prometheus output
    has bounded cardinality on the registry side; per-worker detail
    lives in :meth:`worker_table`, exported as labelled series by
    :func:`prometheus_text`.  :meth:`stats` is the coordinator's
    lifetime summary (``status_reply.stats``).
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.registry = TelemetryRegistry()
        r = self.registry
        self.lease_granted = r.counter("fleet.lease.granted")
        self.lease_completed = r.counter("fleet.lease.completed")
        self.lease_expired = r.counter("fleet.lease.expired")
        self.lease_retried = r.counter("fleet.lease.retried")
        self.lease_failed = r.counter("fleet.lease.failed")
        self.store_hits = r.counter("fleet.store.hits")
        self.store_misses = r.counter("fleet.store.misses")
        self.store_verify_failures = r.counter("fleet.store.verify_failures")
        self.jobs_submitted = r.counter("fleet.jobs.submitted")
        self.jobs_completed = r.counter("fleet.jobs.completed")
        self.workers_joined = r.counter("fleet.workers.joined")
        self.workers_left = r.counter("fleet.workers.left")
        self.cell_seconds = r.histogram("fleet.cell.seconds")
        self.heartbeat_gap = r.histogram("fleet.worker.heartbeat_gap")
        #: the counter each failed attempt's status bumps
        self._failures = {"expired": self.lease_expired,
                          "corrupt": self.store_verify_failures,
                          "failed": self.lease_failed}
        #: accepted results; failed attempts whose cell was requeued /
        #: whose cell exhausted its retry budget
        self.results = self.reassigned = self.failed_cells = 0
        #: worker name -> mutable per-worker stats row
        self.workers: dict[str, dict] = {}
        #: worker name -> wall-clock µs its open lease began
        self._lease_start: dict[str, int] = {}
        self._t0 = time.time()

    def _row(self, worker: str, now: float) -> dict:
        row = self.workers.get(worker)
        if row is None:
            row = self.workers[worker] = {
                "cells": 0, "busy_seconds": 0.0, "connected": True,
                "joined": now, "last_heartbeat": now,
                "heartbeat_gap_max": 0.0, "current": None,
            }
        return row

    def __call__(self, ev: TraceEvent) -> None:
        """Bus subscriber: fold one coordinator event into the counters."""
        a = ev.args
        if ev.name == "service.job":
            if a["status"] == "submitted":
                self.jobs_submitted.inc()
                self.store_hits.inc(a["hits"])
                self.store_misses.inc(a["misses"])
            else:
                self.jobs_completed.inc()
            return
        if ev.name not in ("service.worker", "service.heartbeat") \
                and not ev.name.startswith("lease "):
            return
        now = ev.cycle / 1e6
        row = self._row(ev.track, now)
        if ev.name == "service.worker":
            if a["status"] == "join":
                self.workers_joined.inc()
            else:
                self.workers_left.inc()
                row["connected"] = False
                row["current"] = None
        elif ev.name == "service.heartbeat":
            gap = now - row["last_heartbeat"]
            row["last_heartbeat"] = now
            row["heartbeat_gap_max"] = max(row["heartbeat_gap_max"], gap)
            self.heartbeat_gap.observe(gap)
        elif ev.kind == "begin":  # a lease granted
            self.lease_granted.inc()
            if a["attempt"] > 0:
                self.lease_retried.inc()
            row["current"] = a["key"]
            self._lease_start[ev.track] = ev.cycle
        else:  # an attempt's outcome: "end" closes the open lease
            status = a["status"]
            if ev.kind == "end":
                row["current"] = None
                start = self._lease_start.pop(ev.track, ev.cycle)
                if status == "done":
                    seconds = (ev.cycle - start) / 1e6
                    self.lease_completed.inc()
                    self.cell_seconds.observe(seconds)
                    row["cells"] += 1
                    row["busy_seconds"] += seconds
            if status == "done":
                self.results += 1
                return
            if status in self._failures:
                self._failures[status].inc()
            if a["requeued"]:
                self.reassigned += 1
            else:
                self.failed_cells += 1

    # -- snapshots ---------------------------------------------------------------

    def stats(self) -> dict:
        """Lifetime counts: results, store hits, reassigned cells,
        expired leases, corrupt payloads, worker errors, failed cells
        and jobs."""
        return {
            "results": self.results,
            "hits": self.store_hits.value,
            "reassigned": self.reassigned,
            "expired": self.lease_expired.value,
            "sha_mismatch": self.store_verify_failures.value,
            "worker_errors": self.lease_failed.value,
            "failed_cells": self.failed_cells,
            "jobs": self.jobs_submitted.value,
        }

    def worker_table(self) -> dict[str, dict]:
        """Per-worker derived stats (cells/sec, heartbeat age, ...)."""
        now = time.time()
        out = {}
        for name, row in sorted(self.workers.items()):
            alive = now - row["joined"]
            out[name] = {
                "connected": row["connected"],
                "cells": row["cells"],
                "busy_seconds": round(row["busy_seconds"], 3),
                "cells_per_sec": round(row["cells"] / alive, 4) if alive
                else 0.0,
                "utilization": round(row["busy_seconds"] / alive, 4)
                if alive else 0.0,
                "heartbeat_age": round(now - row["last_heartbeat"], 3),
                "heartbeat_gap_max": round(row["heartbeat_gap_max"], 3),
                "current": row["current"],
            }
        return out

    def snapshot(self, queue: dict[str, int] | None = None) -> dict:
        """One point-in-time metrics document (JSONL / status / prom)."""
        return {
            "t": time.time(),
            "run_id": self.run_id,
            "uptime_seconds": round(time.time() - self._t0, 3),
            "queue": dict(queue or {}),
            "instruments": self.registry.snapshot(),
            "workers": self.worker_table(),
        }


# -- Prometheus text format ------------------------------------------------------


def _prom_name(name: str) -> str:
    return "repro_" + name.replace(".", "_").replace("-", "_")


def prometheus_text(snapshot: dict) -> str:
    """Render a :meth:`FleetMetrics.snapshot` document in the Prometheus
    text exposition format (one scrape's worth, suitable for the
    textfile collector).

    Counters get a ``_total`` suffix; histograms are exported as the
    summary gauges ``_count`` / ``_sum`` / ``_min`` / ``_max`` (full
    distributions are never kept — see
    :class:`~repro.telemetry.registry.Histogram`).  Per-worker rows
    become series labelled ``{worker="..."}``.
    """
    run_id = snapshot.get("run_id", "")
    lines: list[str] = []

    def emit(name: str, kind: str, value, labels: str = "") -> None:
        lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name}{labels} {value}")

    for key, value in sorted(snapshot.get("queue", {}).items()):
        emit(_prom_name(f"fleet.queue.{key}"), "gauge", value)
    for name, inst in sorted(snapshot.get("instruments", {}).items()):
        base = _prom_name(name)
        if inst["kind"] == "counter":
            emit(base + "_total", "counter", inst["value"])
        else:  # histogram summary
            emit(base + "_count", "gauge", inst["count"])
            emit(base + "_sum", "gauge", inst["sum"])
            emit(base + "_min", "gauge", inst["min"])
            emit(base + "_max", "gauge", inst["max"])
    workers = snapshot.get("workers", {})
    for field, kind in (("cells", "counter"), ("busy_seconds", "counter"),
                        ("cells_per_sec", "gauge"), ("utilization", "gauge"),
                        ("heartbeat_age", "gauge"),
                        ("heartbeat_gap_max", "gauge")):
        name = _prom_name(f"fleet.worker.{field}")
        suffix = "_total" if kind == "counter" else ""
        if workers:
            lines.append(f"# TYPE {name}{suffix} {kind}")
        for wname, row in sorted(workers.items()):
            labels = f'{{worker="{wname}",run_id="{run_id}"}}'
            lines.append(f"{name}{suffix}{labels} {row[field]}")
    emit(_prom_name("fleet.uptime_seconds"), "gauge",
         snapshot.get("uptime_seconds", 0.0))
    return "\n".join(lines) + "\n"


def write_prometheus(snapshot: dict, path) -> None:
    """Atomically write one snapshot as a Prometheus textfile."""
    tmp = os.fspath(path) + ".tmp"
    with open(tmp, "w") as f:
        f.write(prometheus_text(snapshot))
    os.replace(tmp, path)


# -- periodic snapshots ----------------------------------------------------------


async def write_snapshots(snapshot, every: float, metrics_out=None,
                          prometheus_out=None) -> None:
    """Write ``snapshot()`` every ``every`` seconds until cancelled.

    Each snapshot is appended to the ``metrics_out`` JSONL and rewrites
    the ``prometheus_out`` textfile; one more is written on
    cancellation, so even a run shorter than the period leaves a final
    point.
    """
    import asyncio

    def flush() -> None:
        snap = snapshot()
        if metrics_out:
            with open(metrics_out, "a") as f:
                f.write(json.dumps(snap) + "\n")
        if prometheus_out:
            write_prometheus(snap, prometheus_out)

    try:
        while True:
            await asyncio.sleep(every)
            flush()
    finally:
        flush()


# -- TTY dashboard ---------------------------------------------------------------


def render_dashboard(status: dict, done: int, total: int,
                     width: int = 72) -> str:
    """Render one frame of the ``repro submit --watch`` dashboard.

    ``status`` is a coordinator ``status_reply`` document; ``done`` and
    ``total`` come from the submitting client's own progress counters
    (the stream of ``cell_done`` messages), which track *this job*
    rather than the whole board.
    """
    bar_width = max(10, width - 30)
    frac = done / total if total else 1.0
    filled = int(round(frac * bar_width))
    bar = "#" * filled + "-" * (bar_width - filled)
    lines = [f"[{bar}] {done}/{total} cells ({frac:6.1%})"]
    tasks = status.get("tasks", {})
    if tasks:
        lines.append(
            "board: " + "  ".join(f"{k}={tasks.get(k, 0)}"
                                  for k in ("pending", "leased", "done",
                                            "failed")))
    fleet = status.get("fleet") or {}
    workers = fleet.get("workers") or {}
    if workers:
        lines.append(f"{'worker':<14} {'cells':>6} {'cells/s':>8} "
                     f"{'util':>6} {'hb age':>7}  current")
        for name, row in workers.items():
            state = "" if row["connected"] else " (gone)"
            current = (row["current"] or "idle").split(":cfg=")[0]
            if len(current) > 32:
                current = current[:31] + "…"
            lines.append(
                f"{name[:14]:<14} {row['cells']:>6} "
                f"{row['cells_per_sec']:>8.2f} {row['utilization']:>6.1%} "
                f"{row['heartbeat_age']:>6.1f}s  {current}{state}")
    else:
        names = status.get("workers", [])
        lines.append(f"workers: {', '.join(names) or '(none)'}")
    return "\n".join(lines)
