"""One benchmark workload, run in its own fresh process.

``bench/run.py`` starts this file; it is not meant to be run by hand::

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/workload.py --workload NAME --seed N --probe

The load is a closed loop with one client: the next op starts when the
previous one returns.  One untimed warm-up op runs first and gives the
reference output every later op must reproduce exactly.  Timed ops then
run until ``--seconds`` is spent (at least ``MIN_OPS``).  With
``--trace 1`` untraced and traced ops alternate, so the tracing overhead
is measured in the same process.

``--probe`` stops once the inputs are built and prints ``ready`` with
the CPU seconds this process has used since it was spawned, for the
``setup_s`` metric, and its host-speed probe totals (hostspeed.py).

The last stdout line is ``BENCH-RESULT <json>`` with every op's host
times, simulated work, output digest and any check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from hostspeed import Sampler, speed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
RESULT_PREFIX = "BENCH-RESULT "

#: timed ops per run at the least, however long they take
MIN_OPS = 2
#: host-speed probes just before and just after each op, and after set-up
BRACKET_PROBES = 8
#: no new op starts this long after the process began (run.py gives the
#: whole process 165 s)
HARD_STOP_S = 110.0
#: worker processes of the pool workload (the reference host has 2 CPUs)
JOBS = 2
#: the Figure 2 panel the fig2 workloads regenerate
FIG2_CORES = (2,)
FIG2_GROUPS = ("MEM",)


def _import_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no simulator sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"benchmark: imported repro from {repro.__file__}")


def _scaled(budget: int, scale: float) -> int:
    return max(500, round(budget * scale))


# -- outputs ---------------------------------------------------------------


def canonical(obj):
    """JSON-ready copy of an op's output; floats become exact hex."""
    if dataclasses.is_dataclass(obj):
        return {f.name: canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    return obj


def digest(canon) -> str:
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- workloads -------------------------------------------------------------
#
# A workload's constructor imports what its op needs and builds the op's
# inputs: that is the work ``setup_s`` times.  ``op`` is one timed op and
# ``reference`` the warm-up op whose output every later op must match.


class RunMem:
    """What ``repro run 4MEM-1 HF-RF`` costs at its defaults, traces cold.

    One op is the CLI verb's work (ME profiling and solo baselines at
    half the budget, then one 4-core HF-RF run) on each of three seeds
    derived from ``--seed``.  One seed's cost depends on the seed: over
    ``--seed`` 1-10 a one-seed op's median CPU time had an interquartile
    range of 5.9 % and 11.8 % of the median in two passes, the same
    seeds dearest in both, which is wider than the 10 % bound.
    """

    name = "run-4mem"
    key = "run-4mem"

    def __init__(self, seed: int, scale: float) -> None:
        from repro.workloads.mixes import workload_by_name

        self.mix = workload_by_name("4MEM-1")
        self.seeds = range(3 * seed, 3 * seed + 3)
        self.budget = _scaled(30_000, scale)
        self.profile_budget = max(self.budget // 2, _scaled(5_000, scale))

    def op(self):
        from repro.metrics.memory_efficiency import MeProfiler
        from repro.sim.runner import run_multicore
        from repro.workloads.synthetic import clear_trace_cache

        out = []
        for seed in self.seeds:
            clear_trace_cache()
            prof = MeProfiler(inst_budget=self.profile_budget, seed=seed)
            me = prof.me_values(self.mix)
            single = prof.single_ipcs(self.mix)
            result = run_multicore(self.mix, "HF-RF", inst_budget=self.budget,
                                   seed=seed, me_values=me)
            out.append({"seed": seed, "me": me, "single": single,
                        "run": result})
        return out

    reference = op

    def exact(self, out) -> dict:
        return {}


class Table2:
    """``repro table2``: 26 single-core profiling runs from a fresh context."""

    name = "table2"
    key = "table2"

    def __init__(self, seed: int, scale: float) -> None:
        from repro.experiments import table2  # noqa: F401

        self.seed = seed
        self.profile_budget = _scaled(15_000, scale)

    def op(self):
        from repro.experiments.harness import ExperimentContext
        from repro.experiments.table2 import run_table2
        from repro.workloads.synthetic import clear_trace_cache

        clear_trace_cache()
        ctx = ExperimentContext(profile_budget=self.profile_budget,
                                seeds=(self.seed,))
        return run_table2(ctx)

    reference = op

    def exact(self, rows) -> dict:
        from repro.experiments.table2 import rank_correlation

        return {"me_rank_rho": rank_correlation(rows)}


class Fig2Serial:
    """``repro figure 2 --cores 2``: 6 mixes x 5 policies, serial.

    The budgets are the CLI's defaults.  The 4-core panel the CLI draws
    by default takes about 2.5 times as long and would not fit a run;
    bench/layer_mix.py shows its layer shares are within 2.5 points of
    this panel's (bench/results/layer_mix.json).
    """

    name = "fig2-serial"
    key = "fig2"

    def __init__(self, seed: int, scale: float) -> None:
        from repro.experiments import figure2  # noqa: F401

        self.seed = seed
        self.budget = _scaled(30_000, scale)
        self.profile_budget = _scaled(15_000, scale)

    def ctx(self):
        from repro.experiments.harness import ExperimentContext

        return ExperimentContext(inst_budget=self.budget,
                                 profile_budget=self.profile_budget,
                                 seeds=(self.seed,))

    def op(self):
        from repro.experiments.figure2 import run_figure2
        from repro.workloads.synthetic import clear_trace_cache

        clear_trace_cache()
        return run_figure2(self.ctx(), core_counts=FIG2_CORES,
                           groups=FIG2_GROUPS)

    reference = op

    def exact(self, rows) -> dict:
        from repro.experiments.figure2 import average_gains

        gains = average_gains(rows)
        return {"melreq_gain_pct":
                100.0 * gains[(FIG2_CORES[0], FIG2_GROUPS[0], "ME-LREQ")]}


class Fig2Jobs2(Fig2Serial):
    """The same panel through the pool and a fresh on-disk result store.

    The op is the cold leg (plan, run every cell on ``JOBS`` workers,
    write it, merge, tabulate).  ``after_op`` then replays the warm leg,
    which reads every cell back.  The warm-up op runs the panel serially,
    so every pool op is checked byte for byte against the serial rows.
    """

    name = "fig2-jobs2"

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        from repro.experiments import cache, parallel  # noqa: F401

        #: set by the traced run: receives the pool's per-cell events
        self.bus = None
        self.cache_stats: dict = {}
        self._store: str | None = None

    reference = Fig2Serial.op

    def _leg(self):
        from repro.experiments import parallel
        from repro.experiments.cache import ResultCache
        from repro.experiments.figure2 import run_figure2

        ctx = self.ctx()
        ctx.cache = ResultCache(root=self._store, mode="rw")
        cells = parallel.plan_cells(ctx, figure2=(FIG2_CORES, FIG2_GROUPS))
        report = parallel.run_cells(cells, jobs=JOBS, cache=ctx.cache,
                                    bus=self.bus)
        if report.failures or report.pool_broken:
            raise RuntimeError(f"pool leg failed: {report.summary()}")
        parallel.merge_into(ctx, report)
        rows = run_figure2(ctx, core_counts=FIG2_CORES, groups=FIG2_GROUPS)
        return rows, report, ctx.cache.stats

    def op(self):
        from repro.workloads.synthetic import clear_trace_cache

        clear_trace_cache()
        OUT.mkdir(parents=True, exist_ok=True)
        self._store = tempfile.mkdtemp(prefix="store-", dir=OUT)
        try:
            rows, _, stats = self._leg()
        except BaseException:
            shutil.rmtree(self._store, ignore_errors=True)
            raise
        self.cache_stats = {"misses": stats.misses, "writes": stats.writes}
        return rows

    def after_op(self, cold_rows, cold_wall: float) -> list[str]:
        """Warm leg over the store the op just wrote; returns failures."""
        bus, self.bus = self.bus, None
        try:
            t0 = time.perf_counter()
            rows, report, stats = self._leg()
            warm = time.perf_counter() - t0
        finally:
            self.bus = bus
            shutil.rmtree(self._store, ignore_errors=True)
        self.cache_stats["hits"] = stats.hits
        self.cache_stats["rerun_pct"] = 100.0 * warm / cold_wall
        failures = []
        if report.executed:
            failures.append(f"warm leg simulated {report.executed} cells")
        if digest(canonical(rows)) != digest(canonical(cold_rows)):
            failures.append("warm-leg rows differ from cold-leg rows")
        return failures


WORKLOADS = {w.name: w for w in (RunMem, Table2, Fig2Serial, Fig2Jobs2)}


# -- simulated work and host speed ---------------------------------------------


class SimProbe:
    """Simulated work, and the host-speed probes of pool workers.

    Wraps ``MultiCoreSystem.run`` once per process.  After each
    simulation it adds the committed instructions and engine events.  A
    pool worker forked from this process also runs the host-speed
    sampler (hostspeed.py) while it simulates and adds its probe totals.
    The totals live in shared memory, so the workers' reach this process.
    """

    #: slots of :attr:`totals`
    INSTS, EVENTS, PROBES, PROBE_INV, PROBE_S = range(5)

    def __init__(self) -> None:
        self.totals = multiprocessing.Array("d", 5)
        #: this process's probes; the op arms it
        self.sampler = Sampler()
        #: cleared while simulator wrappers are on: the probes would land
        #: in the traced layers' self times
        self.active = multiprocessing.Value("b", 1, lock=False)

    def install(self) -> None:
        from repro.sim.system import MultiCoreSystem

        run = MultiCoreSystem.run
        totals = self.totals
        active = self.active
        sampler = self.sampler
        parent = os.getpid()

        @functools.wraps(run)
        def probed_run(system, *args, **kwargs):
            worker = os.getpid() != parent and active.value
            if worker:
                before = sampler.totals()
                sampler.start()
            try:
                result = run(system, *args, **kwargs)
            finally:
                if worker:
                    sampler.stop()
            with totals.get_lock():
                if worker:
                    for slot, a, b in zip(
                            (SimProbe.PROBES, SimProbe.PROBE_INV,
                             SimProbe.PROBE_S), before, sampler.totals()):
                        totals[slot] += b - a
                totals[SimProbe.INSTS] += sum(c.committed for c in system.cores)
                totals[SimProbe.EVENTS] += system.engine.events_processed
            return result

        MultiCoreSystem.run = probed_run

    def read(self) -> list[float]:
        with self.totals.get_lock():
            return list(self.totals)


def _cpu_s() -> float:
    """Host CPU seconds of this process plus its reaped children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


# -- the run -------------------------------------------------------------------


class Runner:
    """Runs ops, checks each against the reference, counts failures."""

    def __init__(self, wl, sim: SimProbe) -> None:
        self.wl = wl
        self.sim = sim
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference = None
        self.ref_digest: str | None = None
        self.ref_insts = 0
        self.exact: dict = {}

    def _check(self, label: str, out, rec: dict) -> list[str]:
        """Problems with one op's output, measured against the first op."""
        canon = canonical(out)
        d = digest(canon)
        if self.ref_digest is None:
            self.reference, self.ref_digest = canon, d
            self.ref_insts = rec["insts"]
            self.exact = self.wl.exact(out)
        problems = []
        if d != self.ref_digest:
            problems.append(f"output digest {d[:12]} differs from the "
                            f"reference {self.ref_digest[:12]}")
        if rec["insts"] != self.ref_insts:
            problems.append(f"simulated {rec['insts']} instructions, "
                            f"the reference {self.ref_insts}")
        if label != "warm-up" and hasattr(self.wl, "after_op"):
            problems += self.wl.after_op(out, rec["raw_wall_s"])
        return problems

    def op(self, label: str, fn, ledger=None, simulator: bool = False,
           jobs: int = 1) -> dict | None:
        """Run and check one op; None if it raised or failed a check.

        Host-speed probes run just before and just after the op and, on
        the sampler's timer, inside it in every process that works on it.
        The op's host times, less the probes inside it, are scaled to the
        reference host (hostspeed.py); the pool's ``jobs`` workers probe
        side by side, so their probe time comes off the wall time once
        per ``jobs``.  With a ``ledger`` the op runs under its wrappers,
        which come off before the checks run, and the sampler stays off:
        only the probes around the op scale it.  The layer metrics go
        under ``layers``.
        """
        self.attempted += 1
        sampler = self.sim.sampler
        sampling = ledger is None or not simulator
        self.sim.active.value = sampling
        first = sampler.totals()
        sampler.take(BRACKET_PROBES)
        before = sampler.totals()
        t0 = self.sim.read()
        if ledger is not None:
            ledger.begin(simulator)
        if sampling:
            sampler.start()
        c0 = _cpu_s()
        w0 = time.perf_counter()
        try:
            out = fn()
            wall = time.perf_counter() - w0
            cpu = _cpu_s() - c0
        except Exception:
            self.failed += 1
            self.failures.append(f"{label}: raised\n{traceback.format_exc()}")
            return None
        finally:
            sampler.stop()
            if ledger is not None:
                ledger.end()
            self.sim.active.value = True
        inside = sampler.spent - before[2]
        t1 = self.sim.read()
        sampler.take(BRACKET_PROBES)
        d = [b - a for a, b in zip(t0, t1)]
        factor = speed(sampler.n - first[0] + d[SimProbe.PROBES],
                       sampler.inv - first[1] + d[SimProbe.PROBE_INV])
        workers = d[SimProbe.PROBE_S]
        rec = {
            "wall_s": (wall - inside - workers / jobs) * factor,
            "cpu_s": (cpu - inside - workers) * factor,
            "raw_wall_s": wall, "raw_cpu_s": cpu,
            "probe_s": inside + workers,
            "probes": sampler.n - first[0] + round(d[SimProbe.PROBES]),
            "speed": factor,
            "insts": round(d[SimProbe.INSTS]),
            "events": round(d[SimProbe.EVENTS]),
        }
        if ledger is not None:
            rec["layers"] = {
                k: v * factor if k.endswith("_s") else v
                for k, v in ledger.metrics(wall * 1e9, simulator,
                                           jobs).items()}
        try:
            problems = self._check(label, out, rec)
        except Exception:
            problems = [f"check raised\n{traceback.format_exc()}"]
        if problems:
            self.failed += 1
            self.failures += [f"{label}: {p}" for p in problems]
            return None
        return rec


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


#: harness metrics only the pool workload can fill in
_POOL_METRICS = ("experiments.cache_hits", "experiments.cache_misses",
                 "experiments.cache_writes", "experiments.cached_rerun_pct")


def run(wl, seed: int, seconds: float, trace: bool) -> dict:
    """Warm up, then run timed ops for ``seconds``; returns the record."""
    sim = SimProbe()
    sim.install()
    runner = Runner(wl, sim)
    pool = isinstance(wl, Fig2Jobs2)
    jobs = JOBS if pool else 1
    ledger = None
    started = time.perf_counter()
    if trace:
        from ledger import Ledger

        ledger = Ledger()
    if trace and pool:
        # The pool forks its workers: simulator wrappers would slow them
        # and their counts would stay in the workers.  The simulator
        # layers are traced on the serial warm-up instead, which
        # simulates exactly the cells the pool does.
        warm = runner.op("warm-up", wl.reference, ledger, simulator=True)
    else:
        warm = runner.op("warm-up", wl.reference)

    untraced: list[dict] = []
    traced: list[dict] = []
    t0 = time.perf_counter()
    while runner.failed < 3:
        rec = runner.op(f"op {runner.attempted}", wl.op, jobs=jobs)
        if rec is not None:
            untraced.append(rec)
        if trace:
            if pool:
                wl.bus = ledger.cell_bus()
            rec = runner.op(f"traced op {runner.attempted}", wl.op, ledger,
                            simulator=not pool, jobs=jobs)
            if pool:
                wl.bus = None
            if rec is not None:
                if pool:
                    stats = wl.cache_stats
                    rec["layers"].update(zip(_POOL_METRICS, (
                        stats["hits"], stats["misses"], stats["writes"],
                        stats["rerun_pct"])))
                traced.append(rec)
        now = time.perf_counter()
        cycle = (_median(r["raw_wall_s"] for r in untraced)
                 + _median(r["raw_wall_s"] for r in traced))
        enough = len(untraced) >= (1 if trace else MIN_OPS) and (
            traced or not trace)
        if now - started > HARD_STOP_S or (
                enough and now - t0 + cycle > seconds):
            break

    layers: dict = {}
    if trace and traced:
        layers = {k: _median(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        if pool and warm is not None:
            layers.update((k, v) for k, v in warm["layers"].items()
                          if not k.startswith("experiments."))
        for k in _POOL_METRICS:
            layers.setdefault(k, 0)
        untraced_cpu = _median(r["cpu_s"] for r in untraced)
        layers["trace.overhead_pct"] = 100.0 * (
            _median(r["cpu_s"] for r in traced) / untraced_cpu - 1
        ) if untraced_cpu else 0.0
        layers["sim.events_per_cpu_s"] = _median(
            r["events"] / r["cpu_s"] for r in untraced)
        OUT.mkdir(parents=True, exist_ok=True)
        spans = OUT / f"spans-{wl.name}-seed{seed}.json"
        spans.write_text(json.dumps(ledger.span_records()) + "\n")

    # Pool workers are forked: their RSS already holds the pages they
    # share with this process, so the two are not added.
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "key": wl.key,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "ops": [{k: v for k, v in r.items() if k != "layers"}
                for r in untraced],
        "layers": layers,
        "reference": runner.reference,
        "digest": runner.ref_digest,
        "exact": runner.exact,
        "peak_rss_kb": peak_kb,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiplier on every instruction budget")
    ap.add_argument("--probe", action="store_true",
                    help="build the inputs, print 'ready <CPU seconds> "
                         "<probe seconds inside> <probes> <sum of 1/probe "
                         "seconds>' and exit")
    args = ap.parse_args(argv)
    sampler = Sampler()
    if args.probe:
        sampler.start()
    _import_repro()
    wl = WORKLOADS[args.workload](args.seed, args.scale)
    if args.probe:
        cpu = time.process_time()
        sampler.stop()
        inside = sampler.spent
        sampler.take(BRACKET_PROBES)
        print("ready", cpu, inside, sampler.n, sampler.inv, flush=True)
        return 0
    result = run(wl, args.seed, args.seconds, bool(args.trace))
    result.update(seed=args.seed, scale=args.scale)
    print(RESULT_PREFIX + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
