"""Trace export: JSONL, CSV, and Chrome trace-event (Perfetto) formats.

One record schema, three consumers:

* :func:`write_jsonl` — one self-describing JSON object per line (header,
  then samples, events and spans); the format scripts and notebooks
  should parse.  :class:`JsonlRecorder` streams the same records from a
  live bus — it is how every process of a distributed sweep records its
  fleet trace — and :func:`read_jsonl` reads both.
* :func:`write_csv` — the sampled time series flattened to columns for
  spreadsheet / pandas consumption.
* :func:`write_chrome_trace` — the Trace Event Format JSON that
  ``chrome://tracing`` and https://ui.perfetto.dev load directly: sampled
  series become counter tracks, bus spans become duration slices, bus
  instants become instant events, each on its own named thread.
  :func:`merge_traces` renders fleet trace files through the same
  writer, one process per Chrome ``pid``.

Timestamps: the simulator runs in CPU cycles; trace-event ``ts`` is in
microseconds, so cycles are divided by ``cycles_per_us`` (default: the
paper's 3.2 GHz clock, 3200 cycles/µs).  Wall-clock in Perfetto therefore
reads as *simulated* time.  Fleet processes stamp their events in
wall-clock microseconds, which merged traces show relative to the
earliest event.
"""

from __future__ import annotations

import csv
import json
import os
import socket
import subprocess
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Any

from repro.metrics.serialize import to_jsonable
from repro.telemetry.bus import TraceEvent
from repro.util.units import CPU_FREQ_HZ

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.hub import Telemetry
    from repro.telemetry.spans import RequestSpan

__all__ = [
    "FORMAT",
    "metadata",
    "run_metadata",
    "write_jsonl",
    "JsonlRecorder",
    "read_jsonl",
    "write_csv",
    "write_chrome_trace",
    "write_spans_jsonl",
    "merge_traces",
    "write_merged_trace",
]

#: format marker on the JSONL header line
FORMAT = "repro-telemetry-v1"

#: default cycle -> microsecond conversion (3.2 GHz core clock)
DEFAULT_CYCLES_PER_US = CPU_FREQ_HZ / 1e6


# -- run metadata ----------------------------------------------------------------


def _git_rev() -> str | None:
    """Current git revision of the working tree, or None outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover - env
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def metadata(fleet: dict | None = None, **fields) -> dict:
    """The self-describing header every telemetry file opens with.

    The format marker, creation wall-clock time and the git revision the
    file was produced from, then ``fields``, then, for a fleet trace,
    the ``fleet`` section naming the process and the fleet run it
    belongs to.
    """
    doc = {
        "format": FORMAT,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_rev": _git_rev(),
        **fields,
    }
    if fleet:
        doc["fleet"] = fleet
    return doc


def run_metadata(telemetry: "Telemetry") -> dict:
    """The :func:`metadata` header of a run's exports.

    Adds the sampler epoch and the run description the runner stashed in
    ``telemetry.meta`` (policy, mix/app, seed, budget and the config
    hash).
    """
    return metadata(sample_every=telemetry.sample_every,
                    meta=to_jsonable(telemetry.meta))


# -- JSONL ----------------------------------------------------------------------


def _line(record_type: str, /, **fields) -> str:
    """One JSONL record of the given ``type``."""
    return json.dumps({"type": record_type, **fields}) + "\n"


def write_jsonl(telemetry: "Telemetry", path: str | os.PathLike) -> int:
    """Write the whole hub as line-delimited JSON; returns lines written."""
    spans = _span_records(telemetry)
    with open(path, "w") as f:
        f.write(_line("header", **run_metadata(telemetry)))
        for s in telemetry.samples:
            f.write(_line("sample", **to_jsonable(s)))
        for e in telemetry.bus.events:
            f.write(_line("event", **to_jsonable(e)))
        for rec in spans:
            f.write(json.dumps(rec) + "\n")
    return 1 + len(telemetry.samples) + len(telemetry.bus.events) + len(spans)


class JsonlRecorder:
    """Streams bus events into a JSONL file as they are published.

    Subscribe an instance to a :class:`~repro.telemetry.bus.TelemetryBus`:
    every process of a distributed sweep records its fleet trace this
    way.  The header's ``fleet`` section names the process (``role``,
    ``run_id``, ``worker_id``, ``pid``, ``host``); each event becomes one
    ``event`` record, written through a line-buffered file, so a killed
    process leaves a readable prefix.  :meth:`close` appends a
    ``registry`` record when given a registry (the coordinator passes
    its :class:`~repro.telemetry.fleet.FleetMetrics` registry); events
    published after it are dropped.
    """

    def __init__(self, path: str | os.PathLike, *, role: str, run_id: str,
                 worker_id: str | None = None) -> None:
        fleet = {"role": role, "run_id": run_id}
        if worker_id:
            fleet["worker_id"] = worker_id
        fleet.update(pid=os.getpid(), host=socket.gethostname())
        self._f = open(path, "w", buffering=1)
        self._f.write(_line("header", **metadata(fleet)))

    def __call__(self, event: TraceEvent) -> None:
        if not self._f.closed:
            self._f.write(_line("event", **to_jsonable(event)))

    def close(self, registry=None) -> None:
        if self._f.closed:
            return
        if registry is not None:
            self._f.write(_line("registry", instruments=registry.snapshot()))
        self._f.close()


def _span_records(telemetry: "Telemetry") -> list[dict]:
    """Completed request spans as JSONL records, with their attribution."""
    collector = telemetry.spans
    if collector is None or not collector.completed:
        return []
    from repro.telemetry.attribution import decompose, drain_windows

    t_cl = collector.timing.t_cl
    end = max(s.done for s in collector.completed)
    windows = drain_windows(telemetry, end_cycle=end)
    out = []
    for s in collector.completed:
        rec = {
            "type": "span",
            "core": s.core_id,
            "addr": s.addr,
            "kind": s.kind,
            "first_attempt": s.first_attempt,
            "arrival": s.arrival,
            "pick": s.pick,
            "bank_start": s.bank_start,
            "cas": s.cas,
            "data_start": s.data_start,
            "data_end": s.data_end,
            "done": s.done,
            "latency": s.latency,
            "channel": s.channel,
            "bank": s.bank,
            "row": s.row,
            "row_hit": s.row_hit,
            "conflict": s.conflict,
            "merged_waiters": s.merged_waiters,
            "components": decompose(
                s, t_cl, collector.overhead, windows.get(s.track, ())
            ),
        }
        out.append(rec)
    return out


def read_jsonl(path: str | os.PathLike) -> dict[str, Any]:
    """Parse a :func:`write_jsonl` or :class:`JsonlRecorder` file.

    Returns ``{"header": ..., "samples": [...], "events": [...],
    "spans": [...], "registry": {...}}`` with samples/events/spans as
    plain dicts.  A fleet trace has no samples or spans; ``registry`` is
    ``{}`` unless the file ends in a registry record, which only a
    coordinator's closed fleet trace does.  Raises ``ValueError`` for
    files this library did not write.
    """
    out: dict[str, Any] = {
        "header": None, "samples": [], "events": [], "spans": [], "registry": {},
    }
    with open(path) as f:
        for lineno, line in enumerate(f):
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            kind = rec.pop("type", None)
            if lineno == 0:
                if kind != "header" or rec.get("format") != FORMAT:
                    raise ValueError(f"{path}: not a {FORMAT} file")
                out["header"] = rec
            elif kind == "sample":
                out["samples"].append(rec)
            elif kind == "event":
                out["events"].append(rec)
            elif kind == "span":
                out["spans"].append(rec)
            elif kind == "registry":
                out["registry"] = rec.get("instruments", {})
            else:
                raise ValueError(f"{path}:{lineno + 1}: unknown record type {kind!r}")
    if out["header"] is None:
        raise ValueError(f"{path}: empty telemetry file")
    return out


# -- CSV ------------------------------------------------------------------------


def write_csv(telemetry: "Telemetry", path: str | os.PathLike) -> int:
    """Flatten the sampled series to CSV; returns data rows written.

    The file opens with ``#``-prefixed comment lines carrying the run
    metadata (:func:`run_metadata`); pandas reads it with
    ``pd.read_csv(path, comment='#')``.
    """
    samples = telemetry.samples
    with open(path, "w", newline="") as f:
        meta = run_metadata(telemetry)
        run = meta.pop("meta", {}).get("run", {})
        for key, value in {**meta, **run}.items():
            f.write(f"# {key}: {value}\n")
        w = csv.writer(f)
        if not samples:
            w.writerow(["cycle", "span"])
            return 0
        nch = len(samples[0].channels)
        ncore = len(samples[0].cores)
        header = ["cycle", "span", "read_queue", "write_queue", "drain_mode",
                  "events", "clamped_events"]
        for i in range(nch):
            header += [
                f"ch{i}_bytes", f"ch{i}_bw_gbps", f"ch{i}_bus_util",
                f"ch{i}_row_hit_rate", f"ch{i}_reads", f"ch{i}_writes",
            ]
        for i in range(ncore):
            header += [
                f"core{i}_committed", f"core{i}_ipc", f"core{i}_pending_reads",
                f"core{i}_mshr", f"core{i}_rob", f"core{i}_stall_frac",
            ]
        w.writerow(header)
        for s in samples:
            row: list = [s.cycle, s.span, s.read_queue, s.write_queue,
                         int(s.drain_mode), s.events, s.clamped_events]
            for c in s.channels:
                row += [c.bytes, f"{c.bw_gbps:.6g}", f"{c.bus_util:.6g}",
                        f"{c.row_hit_rate:.6g}", c.reads, c.writes]
            for c in s.cores:
                row += [c.committed, f"{c.ipc:.6g}", c.pending_reads,
                        c.mshr_occupancy, c.rob_occupancy,
                        f"{c.rob_stall_frac:.6g}"]
            w.writerow(row)
    return len(samples)


# -- Chrome trace-event format --------------------------------------------------

#: bus event kind -> trace-event phase
_PHASES = {"begin": "B", "end": "E", "instant": "i", "counter": "C"}


def _chrome_events(pid: int, process: str, events: list[TraceEvent],
                   cat: str, ts, tids: dict[str, int],
                   args: dict | None = None) -> list[dict]:
    """Trace events for one process: its name, one named thread per
    track (numbered in order of first use after the ones ``tids``
    already holds), then every event — spans as ``B``/``E``,
    thread-scoped ``i`` instants and ``C`` counters, timestamped by
    ``ts(cycle)``.  ``args`` joins the args of every non-counter event.
    """
    for e in events:
        tids.setdefault(e.track, len(tids))
    out = [{"ph": "M", "pid": pid, "name": "process_name",
            "args": {"name": process}}]
    for track, tid in tids.items():
        out.append({"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                    "args": {"name": track}})
    for e in events:
        rec = {"ph": _PHASES[e.kind], "pid": pid, "tid": tids[e.track],
               "ts": ts(e.cycle), "name": e.name}
        extra = e.args
        if e.kind != "counter":
            rec["cat"] = cat
            if e.kind == "instant":
                rec["s"] = "t"  # thread-scoped instant
            if args:
                extra = {**extra, **args}
        if extra:
            rec["args"] = to_jsonable(extra)
        out.append(rec)
    return out


def _sample_counters(samples) -> list[TraceEvent]:
    """The sampled series as counter events on the controller, channel
    and core tracks."""
    out: list[TraceEvent] = []

    def put(name: str, cycle: int, track: str, **values) -> None:
        out.append(TraceEvent(name, "counter", cycle, track, values))

    for s in samples:
        put("queue depth", s.cycle, "controller",
            reads=s.read_queue, writes=s.write_queue)
        for c in s.channels:
            ch = f"ch{c.index}"
            put(f"{ch} bandwidth (GB/s)", s.cycle, ch,
                **{"GB/s": round(c.bw_gbps, 4)})
            put(f"{ch} bus util", s.cycle, ch, util=round(c.bus_util, 4),
                row_hit=round(c.row_hit_rate, 4))
        for c in s.cores:
            core = f"core{c.index}"
            put(f"{core} IPC", s.cycle, core, ipc=round(c.ipc, 4))
            put(f"{core} memory", s.cycle, core,
                pending_reads=c.pending_reads, mshr=c.mshr_occupancy,
                stall_frac=round(c.rob_stall_frac, 4))
    return out


def _chrome_doc(events: list[dict], other: dict) -> dict:
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}


def _write_json(path: str | os.PathLike, doc: dict) -> None:
    with open(path, "w") as f:
        json.dump(doc, f)
        f.write("\n")


def write_chrome_trace(
    telemetry: "Telemetry",
    path: str | os.PathLike,
    cycles_per_us: float = DEFAULT_CYCLES_PER_US,
) -> int:
    """Write a Chrome Trace Event Format file; returns events written.

    Open the result in ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    if cycles_per_us <= 0:
        raise ValueError("cycles_per_us must be positive")

    def ts(cycle: int) -> float:
        return cycle / cycles_per_us

    tids = {"controller": 0}
    events = _chrome_events(
        1, "repro-sim",
        _sample_counters(telemetry.samples) + telemetry.bus.events,
        "sim", ts, tids)
    events += _span_slices(telemetry, 1, tids, ts)
    meta = run_metadata(telemetry)
    meta["cycles_per_us"] = cycles_per_us
    _write_json(path, _chrome_doc(events, meta))
    return len(events)


#: lane order of a merged fleet trace
_ROLE_RANK = {"coordinator": 0, "worker": 1, "client": 2}


def merge_traces(paths) -> dict:
    """Stitch per-process fleet traces into one Chrome trace document.

    Every input must be a :class:`JsonlRecorder` file, and all must carry
    the same fleet ``run_id`` (mixing runs in one timeline would be
    meaningless — a mismatch raises ``ValueError``).  Each process
    becomes one Chrome ``pid`` (coordinator first, then workers and
    clients sorted by name), rendered like :func:`write_chrome_trace`
    renders a run; every non-counter event also carries the ``run_id``.
    Timestamps are wall-clock microseconds relative to the earliest event
    across all files, so lanes line up and gaps between slices read as
    idle time.
    """
    procs = []
    for path in paths:
        doc = read_jsonl(path)
        fleet = doc["header"].get("fleet", {})
        if "role" not in fleet:
            raise ValueError(f"{path}: not a fleet trace (its header names "
                             "no fleet role)")
        procs.append((os.fspath(path), fleet,
                      [TraceEvent(**e) for e in doc["events"]]))
    if not procs:
        raise ValueError("no fleet trace files given")
    run_ids = {fleet["run_id"] for _, fleet, _ in procs}
    if len(run_ids) != 1:
        raise ValueError(
            f"fleet traces span {len(run_ids)} run_ids {sorted(run_ids)}; "
            "merge one run at a time")
    run_id = run_ids.pop()
    procs.sort(key=lambda p: (_ROLE_RANK.get(p[1]["role"], 3),
                              p[1].get("worker_id") or "", p[0]))
    t0 = min((e.cycle for _, _, events in procs for e in events), default=0)

    def ts(cycle: int) -> float:
        return float(cycle - t0)

    events: list[dict] = []
    sources = []
    for pid, (path, fleet, evs) in enumerate(procs, start=1):
        worker = fleet.get("worker_id")
        sources.append({"path": path, "pid": pid, "role": fleet["role"],
                        "worker_id": worker, "events": len(evs)})
        label = fleet["role"] + (f" {worker}" if worker else "")
        events += _chrome_events(pid, label, evs, "fleet", ts, {},
                                 {"run_id": run_id})
    return _chrome_doc(events, {"format": FORMAT, "run_id": run_id,
                                "sources": sources})


def write_merged_trace(paths, out_path) -> dict:
    """``repro obs merge-trace``'s body: merge and write; returns doc."""
    doc = merge_traces(paths)
    _write_json(out_path, doc)
    return doc


#: inner phase boundaries of a span slice, in timeline order
_SPAN_PHASES = (
    ("stall", "first_attempt", "arrival"),
    ("queue", "arrival", "pick"),
    ("bank", "pick", "bank_start"),
    ("row", "bank_start", "cas"),
    ("xfer", "cas", "data_end"),
    ("return", "data_end", "done"),
)


def _span_slices(telemetry: "Telemetry", pid: int, tids: dict[str, int], ts) -> list[dict]:
    """Duration slices for traced request spans, one track per core.

    Concurrent spans of one core spill onto extra lanes (``core0 req``,
    ``core0 req.2``, ...): each span takes the first lane whose previous
    occupant ended at or before the span begins, so slices on a lane
    never overlap and Perfetto renders each as its own row.  Inside the
    outer request slice, the non-empty lifecycle phases nest as
    sequential sub-slices.
    """
    collector = telemetry.spans
    if collector is None or not collector.completed:
        return []
    out: list[dict] = []
    for core_id, spans in sorted(collector.per_core().items()):
        spans = sorted(spans, key=lambda s: (s.first_attempt, s.done))
        lanes: list[int] = []  # per lane: end cycle of its last span
        lane_tids: list[int] = []
        for s in spans:
            for lane, busy_until in enumerate(lanes):
                if busy_until <= s.first_attempt:
                    break
            else:
                lane = len(lanes)
                lanes.append(0)
                name = f"core{core_id} req" + (f".{lane + 1}" if lane else "")
                lane_tids.append(len(tids))
                tids[name] = lane_tids[lane]
                out.append(
                    {"ph": "M", "pid": pid, "tid": lane_tids[lane],
                     "name": "thread_name", "args": {"name": name}}
                )
            lanes[lane] = s.done
            tid = lane_tids[lane]
            label = f"{s.kind} ch{s.channel} bank{s.bank}"
            out.append(
                {"ph": "B", "pid": pid, "tid": tid, "ts": ts(s.first_attempt),
                 "name": label, "cat": "span",
                 "args": {"addr": hex(s.addr), "latency_cycles": s.latency,
                          "row": s.row, "row_hit": s.row_hit,
                          "conflict": s.conflict,
                          "merged_waiters": s.merged_waiters}}
            )
            for phase, b_attr, e_attr in _SPAN_PHASES:
                b, e = getattr(s, b_attr), getattr(s, e_attr)
                if e <= b:
                    continue  # empty phase: skip the zero-width slice
                out.append(
                    {"ph": "B", "pid": pid, "tid": tid, "ts": ts(b),
                     "name": phase, "cat": "span"}
                )
                out.append(
                    {"ph": "E", "pid": pid, "tid": tid, "ts": ts(e),
                     "cat": "span"}
                )
            out.append(
                {"ph": "E", "pid": pid, "tid": tid, "ts": ts(s.done),
                 "cat": "span"}
            )
    return out


def write_spans_jsonl(telemetry: "Telemetry", path: str | os.PathLike) -> int:
    """Write only the traced spans (plus header) as JSONL; returns lines.

    The slim artifact behind ``--spans-out``: one record per traced
    request with every lifecycle stamp and its attribution components,
    without the sampled time series.
    """
    header = run_metadata(telemetry)
    if telemetry.spans is not None:
        header["span_sample_every"] = telemetry.spans.sample_every
        header["spans_offered"] = telemetry.spans.offered
        header["spans_dropped"] = telemetry.spans.dropped
    spans = _span_records(telemetry)
    with open(path, "w") as f:
        f.write(_line("header", **header))
        for rec in spans:
            f.write(json.dumps(rec) + "\n")
    return 1 + len(spans)
