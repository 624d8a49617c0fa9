"""Per-layer cost ledger, installed from outside the simulator.

The ledger wraps the entry points of each ``repro`` layer at class (or
module) level, so every system built afterwards binds the wrapped
callables.  Nothing under ``src/`` changes: ``install_*`` patches,
``uninstall`` restores the originals.

Each wrapped call pushes a frame on one call stack.  A call's self time
is its inclusive time minus the time spent in wrapped calls nested in it,
so the self times of all layers plus the benchmark's own glue add up to
the op's duration.  Times come from ``time.perf_counter_ns``: a wrapped
simulator call runs on one thread, so its wall time is its CPU time
unless the host preempts the process, and the clock costs a seventh of
``process_time_ns``.

Coarse calls (one simulation, one profiling run, one ``run_cells`` round,
one result-cache read or write) also record a span with its parent, kept
in memory and written out by the caller.
"""

from __future__ import annotations

import statistics
import time

__all__ = ["Ledger"]


class _Entry:
    """Counters of one wrapped callable."""

    __slots__ = ("layer", "calls", "incl_ns", "self_ns", "busy")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        self.incl_ns = 0
        self.self_ns = 0
        #: set while a call is open; a re-entrant call passes straight
        #: through, so its time stays in the outer call's self time
        self.busy = False


class Ledger:
    """Call-stack accounting for the wrapped entry points of one process."""

    def __init__(self) -> None:
        self.entries: dict[str, _Entry] = {}
        #: exact simulator statistics gathered after each simulation
        self.counts: dict[str, int] = {}
        #: (name, start_ns, end_ns, parent index or -1)
        self.spans: list[tuple[str, int, int, int]] = []
        self.select_candidates = 0
        self.enqueue_refused = 0
        self.cell_seconds: list[float] = []
        #: child-time accumulator of each open wrapped call; [0] is the root
        self._stack = [[0]]
        self._open_spans: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, owner, attr: str, layer: str, span: str | None = None,
              after=None) -> None:
        fn = owner.__dict__[attr]
        entry = self.entries.setdefault(fn.__qualname__, _Entry(layer))
        stack = self._stack
        clock = time.perf_counter_ns
        if span is None and after is None:
            def wrapper(*args, **kwargs):
                if entry.busy:
                    return fn(*args, **kwargs)
                entry.busy = True
                frame = [0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    stack[-1][0] += dt
                    entry.busy = False
                    entry.calls += 1
                    entry.incl_ns += dt
                    entry.self_ns += dt - frame[0]
        else:
            spans = self.spans
            open_spans = self._open_spans

            def wrapper(*args, **kwargs):
                if entry.busy:
                    return fn(*args, **kwargs)
                entry.busy = True
                frame = [0]
                stack.append(frame)
                if span is not None:
                    open_spans.append(len(spans))
                    spans.append((span, 0, 0, open_spans[-2]
                                  if len(open_spans) > 1 else -1))
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                    if after is not None:
                        after(args, result)
                    return result
                finally:
                    t1 = clock()
                    dt = t1 - t0
                    stack.pop()
                    stack[-1][0] += dt
                    entry.busy = False
                    entry.calls += 1
                    entry.incl_ns += dt
                    entry.self_ns += dt - frame[0]
                    if span is not None:
                        i = open_spans.pop()
                        spans[i] = (span, t0, t1, spans[i][3])

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, fn))

    def uninstall(self) -> None:
        """Restore every patched attribute (last patch first)."""
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def install_simulator(self) -> None:
        """Wrap the simulator layers' entry points.

        Call before any system is built: cores, the engine and the
        controller bind these methods when they are constructed.
        """
        from repro.cache.hierarchy import CacheHierarchy
        from repro.controller.fast import FastMemoryController
        from repro.core.policy import SchedulingPolicy
        from repro.cpu.core_model import TraceCore
        from repro.metrics.memory_efficiency import MeProfiler
        from repro.sim.system import MultiCoreSystem
        from repro.workloads import synthetic
        import repro.core  # noqa: F401  (registers every policy class)

        self._wrap(synthetic.SyntheticApp, "next_op", "workloads")
        self._wrap(synthetic, "_raw_trace", "workloads")
        for attr in ("_wake", "_on_unblock", "_on_load_ready",
                     "_store_data_cb"):
            self._wrap(TraceCore, attr, "cpu")
        for attr in ("_after_l2_miss", "_on_fill", "_on_space_freed",
                     "_emit_writeback", "_flush_writebacks"):
            self._wrap(CacheHierarchy, attr, "cache")
        self._wrap(FastMemoryController, "enqueue", "controller",
                   after=self._after_enqueue)
        self._wrap(FastMemoryController, "_fast_point", "controller")
        self._wrap(FastMemoryController, "_fast_deliver", "controller")
        pending = [SchedulingPolicy]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for attr in ("select_read", "select_write"):
                if attr in cls.__dict__:
                    self._wrap(cls, attr, "core", after=self._after_select)
        self._wrap(MultiCoreSystem, "__init__", "sim")
        self._wrap(MultiCoreSystem, "run", "sim", span="simulation",
                   after=self._after_run)
        self._wrap(MeProfiler, "profile", "metrics", span="profile")
        self._wrap(MeProfiler, "single_core_ipc", "metrics", span="profile")

    def install_harness(self) -> None:
        """Wrap the experiment harness: memo, planner, pool and store."""
        from repro.experiments import parallel
        from repro.experiments.cache import ResultCache
        from repro.experiments.harness import ExperimentContext

        self._wrap(ExperimentContext, "run", "experiments")
        self._wrap(parallel, "plan_cells", "experiments")
        self._wrap(parallel, "run_cells", "experiments", span="run_cells")
        self._wrap(parallel, "_run_round_pool", "experiments",
                   span="run_cells.round")
        self._wrap(parallel, "_run_round_serial", "experiments",
                   span="run_cells.round")
        self._wrap(parallel, "merge_into", "experiments")
        self._wrap(ResultCache, "get", "experiments", span="cache.get")
        self._wrap(ResultCache, "put", "experiments", span="cache.put")

    # -- hooks -------------------------------------------------------------

    def _after_enqueue(self, args, accepted) -> None:
        if not accepted:
            self.enqueue_refused += 1

    def _after_select(self, args, _req) -> None:
        self.select_candidates += len(args[1])

    def _after_run(self, args, _result) -> None:
        system = args[0]
        c = self.counts
        cores = system.cores
        h = system.hierarchy
        now = system.engine.now
        add = {
            "events": system.engine.events_processed,
            "structural_stalls": sum(k.stats.structural_stalls for k in cores),
            # Ops the cores pulled from their traces: the replay cursor when
            # the trace is a recording, else the memory ops executed.
            "consumed_ops": sum(
                k._trace_pos if k._replay_ops is not None else k.stats.mem_ops
                for k in cores),
            "l1_hits": sum(l1.stats.hits for l1 in h.l1d),
            "l1_misses": sum(l1.stats.misses for l1 in h.l1d),
            "l2_hits": h.l2.stats.hits,
            "l2_misses": h.l2.stats.misses,
            "dram_transactions": system.dram.total_transactions,
            "dram_row_hits": system.dram.total_row_hits,
            "dram_data_cycles": sum(ch.data_cycles
                                    for ch in system.dram.channels),
            "dram_channel_cycles": now * len(system.dram.channels),
        }
        for k, v in add.items():
            c[k] = c.get(k, 0) + v

    def note_cell(self, event) -> None:
        """Bus subscriber: keep the seconds of every executed cell."""
        if event.name == "experiment.cell" and event.args["status"] != "hit":
            self.cell_seconds.append(event.args["seconds"])

    def cell_bus(self):
        """A telemetry bus that feeds the pool's cell events to the ledger."""
        from repro.telemetry.bus import TelemetryBus

        bus = TelemetryBus(retain=False)
        bus.subscribe(self.note_cell)
        return bus

    # -- one traced op -----------------------------------------------------

    def begin(self, simulator: bool) -> None:
        """Install the wrappers, zero the counters and open the op span."""
        if simulator:
            self.install_simulator()
        self.install_harness()
        self.reset()
        self._op_span = self.open_span("op")

    def end(self) -> None:
        """Close the op span and take the wrappers off."""
        self.close_span(self._op_span)
        self.uninstall()

    def metrics(self, op_ns: float, simulator: bool, jobs: int) -> dict:
        """Per-layer metrics of the op just ended."""
        out = self.harness_metrics(op_ns, jobs)
        if simulator:
            out.update(self.simulator_metrics(op_ns))
        return out

    # -- spans and reports -------------------------------------------------

    def open_span(self, name: str) -> int:
        parent = self._open_spans[-1] if self._open_spans else -1
        self._open_spans.append(len(self.spans))
        self.spans.append((name, time.perf_counter_ns(), 0, parent))
        return self._open_spans[-1]

    def close_span(self, index: int) -> None:
        if self._open_spans and self._open_spans[-1] == index:
            self._open_spans.pop()
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter_ns(), parent)

    def reset(self) -> None:
        """Zero every counter (spans are kept for the trace file)."""
        for e in self.entries.values():
            e.calls = e.incl_ns = e.self_ns = 0
        self.counts = {}
        self.select_candidates = 0
        self.enqueue_refused = 0
        self.cell_seconds = []

    def _layer(self, layer: str, field: str) -> int:
        return sum(getattr(e, field) for e in self.entries.values()
                   if e.layer == layer)

    def _entry(self, name: str, field: str) -> int:
        e = self.entries.get(name)
        return getattr(e, field) if e is not None else 0

    def simulator_metrics(self, op_ns: int) -> dict[str, float]:
        """Per-layer metrics of the simulator layers for one traced op."""
        s = 1e-9
        c = self.counts
        gen = self._entry("SyntheticApp.next_op", "calls")
        consumed = c.get("consumed_ops", 0)
        l1 = c.get("l1_hits", 0) + c.get("l1_misses", 0)
        l2 = c.get("l2_hits", 0) + c.get("l2_misses", 0)
        points = self._entry("FastMemoryController._fast_point", "calls")
        selects = self._layer("core", "calls")
        txns = c.get("dram_transactions", 0)
        self_total = sum(e.self_ns for e in self.entries.values())
        return {
            "workloads.gen_ops": gen,
            "workloads.self_s": self._layer("workloads", "self_ns") * s,
            "workloads.replay_ratio": 1 - gen / consumed if consumed else 0.0,
            "cpu.calls": self._layer("cpu", "calls"),
            "cpu.self_s": self._layer("cpu", "self_ns") * s,
            "cpu.structural_stalls": c.get("structural_stalls", 0),
            "cache.calls": self._layer("cache", "calls"),
            "cache.self_s": self._layer("cache", "self_ns") * s,
            "cache.l1_miss_rate": c.get("l1_misses", 0) / l1 if l1 else 0.0,
            "cache.l2_miss_rate": c.get("l2_misses", 0) / l2 if l2 else 0.0,
            "controller.enqueue_calls": self._entry(
                "FastMemoryController.enqueue", "calls"),
            "controller.enqueue_refused": self.enqueue_refused,
            "controller.sched_points": points,
            "controller.issue_ratio": txns / points if points else 0.0,
            "controller.self_s": self._layer("controller", "self_ns") * s,
            "core.select_calls": selects,
            "core.select_self_s": self._layer("core", "self_ns") * s,
            "core.candidates_mean": (self.select_candidates / selects
                                     if selects else 0.0),
            "dram.row_hit_rate": (c.get("dram_row_hits", 0) / txns
                                  if txns else 0.0),
            "dram.bus_util": (c.get("dram_data_cycles", 0)
                              / c["dram_channel_cycles"]
                              if c.get("dram_channel_cycles") else 0.0),
            "sim.events": c.get("events", 0),
            "sim.build_s": self._entry("MultiCoreSystem.__init__",
                                       "incl_ns") * s,
            "sim.dispatch_self_s": self._entry("MultiCoreSystem.run",
                                               "self_ns") * s,
            "metrics.profile_s": self._layer("metrics", "incl_ns") * s,
            "trace.coverage_pct": (100.0 * self_total / op_ns
                                   if op_ns else 0.0),
        }

    def harness_metrics(self, op_ns: int, jobs: int) -> dict[str, float]:
        """Per-layer metrics of the experiment harness for one traced op.

        Pool and store costs are shares of the op's wall time, so a
        workload that never reaches the pool reports a zero share rather
        than a zero time.
        """
        def pct(ns: int) -> float:
            return 100.0 * ns / op_ns if op_ns else 0.0

        run_cells_ns = self._entry("run_cells", "incl_ns")
        cells = self.cell_seconds
        return {
            "experiments.run_calls": self._entry("ExperimentContext.run",
                                                 "calls"),
            "experiments.plan_pct": pct(self._entry("plan_cells", "incl_ns")),
            "experiments.run_cells_pct": pct(run_cells_ns),
            "experiments.merge_pct": pct(self._entry("merge_into", "incl_ns")),
            "experiments.cache_get_pct": pct(self._entry("ResultCache.get",
                                                         "incl_ns")),
            "experiments.cache_put_pct": pct(self._entry("ResultCache.put",
                                                         "incl_ns")),
            "experiments.cells": len(cells),
            "experiments.cell_p50_pct": (pct(1e9 * statistics.median(cells))
                                         if cells else 0.0),
            "experiments.pool_efficiency": (
                sum(cells) / (jobs * run_cells_ns * 1e-9)
                if run_cells_ns else 0.0),
        }

    def span_records(self) -> list[dict]:
        """Spans as JSON-ready records, times relative to the first."""
        if not self.spans:
            return []
        t0 = min(s[1] for s in self.spans)
        return [
            {"id": i, "name": name, "start_us": (start - t0) / 1e3,
             "end_us": (end - t0) / 1e3, "parent": parent}
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]
