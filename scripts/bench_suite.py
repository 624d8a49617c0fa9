#!/usr/bin/env python3
"""Simulator performance baseline: time the paper-figure smoke configs.

Times the Figure 2 / Figure 3 smoke configurations (the same shapes the
CI smoke job exercises) plus one telemetry-on and one span-tracing run,
and writes a machine-readable summary so regressions in simulator
throughput show up run-over-run.  Each entry records wall-clock seconds,
simulated cycles, memory requests served, and the two derived rates
(cycles/s and requests/s).

The output is an *artifact*, not a gate — absolute timings depend on the
host, so CI uploads the JSON instead of asserting on it.  Compare files
from the same machine class only.  ``--repeats N`` times each entry N
times and keeps the best (minimum) reading, which filters most scheduler
and frequency-scaling noise on shared hosts; each entry also records
``cpu_seconds`` (``time.process_time``), which is far less sensitive to
host load than wall clock and is the number to use for comparisons.

Naming convention (docs/PERFORMANCE.md): ad-hoc runs write
``BENCH_latest.json`` (gitignored, always the most recent local
reading); a baseline worth keeping is renamed to ``BENCH_PR<n>.json``
and committed — those files are immutable once landed.

``--profile [BASE]`` adds one extra cProfile'd pass of the primary run
config *after* the timed entries (so profiling never skews the
timings), writes ``BASE.pstats`` + ``BASE.folded`` (collapsed stacks
for flamegraph tools), and embeds the top hot functions in the
artifact under ``profile``.

Run:  PYTHONPATH=src python scripts/bench_suite.py \
          [--budget N] [--repeats N] [--out PATH] [--profile [BASE]]
"""

import argparse
import json
import platform
import sys
import tempfile
import time

from repro import Telemetry, run_multicore, workload_by_name
from repro.config import SystemConfig
from repro.experiments import ExperimentContext, run_figure2, run_figure3
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import merge_into, plan_cells, run_cells
from repro.metrics.memory_efficiency import MeProfiler


def _timed(repeats, fn, *args, **kwargs):
    """Best-of-``repeats`` timing: (result, wall_seconds, cpu_seconds)."""
    best_wall = best_cpu = None
    out = None
    for _ in range(repeats):
        w0 = time.perf_counter()
        c0 = time.process_time()
        out = fn(*args, **kwargs)
        cpu = time.process_time() - c0
        wall = time.perf_counter() - w0
        if best_wall is None or wall < best_wall:
            best_wall = wall
        if best_cpu is None or cpu < best_cpu:
            best_cpu = cpu
    return out, best_wall, best_cpu


def _run_entry(name, mix_name, policy, budget, seed, repeats=1,
               telemetry=None, me_values=None):
    """Time one multicore run; report throughput from its DRAM traffic."""
    mix = workload_by_name(mix_name)
    result, dt, cpu = _timed(
        repeats, run_multicore, mix, policy, inst_budget=budget, seed=seed,
        me_values=me_values, telemetry=telemetry,
    )
    requests = sum(c.reads for c in result.per_core)
    return {
        "name": name,
        "kind": "run",
        "workload": mix_name,
        "policy": policy,
        "budget": budget,
        "seconds": round(dt, 4),
        "cpu_seconds": round(cpu, 4),
        "simulated_cycles": result.end_cycle,
        "requests": requests,
        "cycles_per_sec": round(result.end_cycle / dt) if dt else None,
        "requests_per_sec": round(requests / dt) if dt else None,
    }


def _figure_entry(name, fn, make_ctx, budget, repeats=1, **kwargs):
    # Fresh context per repeat: ExperimentContext caches profiles and run
    # results, so re-timing the same instance would measure cache lookups.
    rows, dt, cpu = _timed(repeats, lambda: fn(make_ctx(), **kwargs))
    return {
        "name": name,
        "kind": "figure",
        "budget": budget,
        "seconds": round(dt, 4),
        "cpu_seconds": round(cpu, 4),
        "cells": sum(len(r.outcomes) for r in rows),
    }


def _parallel_entry(name, make_ctx, budget, jobs):
    """Time the sharded prewarm + merged figure pass (cold, then cached).

    The cached reading exercises the resume path: every cell comes back
    from the on-disk store, so it measures cache+merge overhead alone.
    The entry records the cache stats line CI surfaces in the artifact.
    """
    timings = {}
    with tempfile.TemporaryDirectory() as td:
        for leg in ("cold", "cached"):
            cache = ResultCache(root=td, mode="rw")
            ctx = make_ctx()
            ctx.cache = cache
            t0 = time.perf_counter()
            c0 = time.process_time()
            cells = plan_cells(ctx, figure2=((2,), ("MEM",)))
            report = run_cells(cells, jobs=jobs, cache=cache)
            merge_into(ctx, report)
            rows = run_figure2(ctx, core_counts=(2,), groups=("MEM",))
            timings[leg] = {
                "seconds": round(time.perf_counter() - t0, 4),
                "cpu_seconds": round(time.process_time() - c0, 4),
                "cache": cache.stats.as_dict(),
                "cache_line": cache.stats.line(),
            }
            cells_done = sum(len(r.outcomes) for r in rows)
    return {
        "name": name,
        "kind": "parallel",
        "budget": budget,
        "jobs": jobs,
        "planned_cells": len(cells),
        "cells": cells_done,
        "seconds": timings["cold"]["seconds"],
        "cpu_seconds": timings["cold"]["cpu_seconds"],
        "cache": timings["cold"]["cache"],
        "cache_line": timings["cold"]["cache_line"],
        "cached_seconds": timings["cached"]["seconds"],
        "cached_cache_line": timings["cached"]["cache_line"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budget", type=int, default=6000,
                    help="instructions per core for the smoke configs")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=1,
                    help="time each entry N times, keep the best reading")
    ap.add_argument("--jobs", type=int, default=2,
                    help="worker processes for the parallel-prewarm entry")
    ap.add_argument("--out", "--output", dest="out",
                    default="BENCH_latest.json",
                    help="result artifact (default: %(default)s — the "
                         "working-copy convention; committed baselines "
                         "are renamed BENCH_PR<n>.json, see "
                         "docs/PERFORMANCE.md)")
    ap.add_argument("--profile", nargs="?", const="BENCH_profile",
                    metavar="BASE",
                    help="after the timed entries, run one cProfile'd "
                         "pass of the primary config; writes "
                         "BASE.pstats + BASE.folded (default BASE: "
                         "%(const)s) and embeds the top functions in "
                         "the artifact")
    args = ap.parse_args()

    mix = workload_by_name("4MEM-1")
    me = MeProfiler(
        inst_budget=max(args.budget // 2, 3000), seed=args.seed
    ).me_values(mix)

    entries = [
        _run_entry("run-hf-rf", "4MEM-1", "HF-RF", args.budget, args.seed,
                   repeats=args.repeats),
        _run_entry("run-me-lreq", "4MEM-1", "ME-LREQ", args.budget,
                   args.seed, repeats=args.repeats, me_values=me),
        _run_entry("run-telemetry", "4MEM-1", "HF-RF", args.budget,
                   args.seed, repeats=args.repeats,
                   telemetry=Telemetry(sample_every=2000)),
        _run_entry("run-spans", "4MEM-1", "HF-RF", args.budget, args.seed,
                   repeats=args.repeats,
                   telemetry=Telemetry(capture_spans=True, span_sample=64)),
    ]
    # The figure harnesses profile + sweep policies; one smoke panel each
    # keeps the suite under a minute while covering the hot sweep paths.
    def make_ctx():
        return ExperimentContext(
            inst_budget=args.budget,
            seeds=(args.seed,),
            profile_budget=max(args.budget // 2, 3000),
            config=SystemConfig(),
        )

    entries.append(_figure_entry(
        "figure2-smoke", run_figure2, make_ctx, args.budget,
        repeats=args.repeats, core_counts=(2,), groups=("MEM",)
    ))
    entries.append(_figure_entry(
        "figure3-smoke", run_figure3, make_ctx, args.budget,
        repeats=args.repeats, groups=("MEM",)
    ))
    entries.append(_parallel_entry(
        "figure2-parallel-prewarm", make_ctx, args.budget, args.jobs
    ))

    doc = {
        "suite": "bench_suite",
        "budget": args.budget,
        "seed": args.seed,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "entries": entries,
    }

    if args.profile:
        # Separate profiled pass *after* every timed entry: cProfile
        # perturbs timings, so it must never share a pass with them.
        from repro.telemetry.profiling import EngineProfiler

        with EngineProfiler(args.profile, top_n=15) as prof:
            run_multicore(mix, "HF-RF", inst_budget=args.budget,
                          seed=args.seed)
        doc["profile"] = {
            "config": {"workload": "4MEM-1", "policy": "HF-RF",
                       "budget": args.budget, "seed": args.seed},
            "top": prof.top,
            "pstats": prof.pstats_path,
            "folded": prof.folded_path,
        }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")

    width = max(len(e["name"]) for e in entries)
    for e in entries:
        rate = (f"  {e['requests_per_sec']:>8} req/s"
                if e.get("requests_per_sec") else "")
        print(f"{e['name']:<{width}}  {e['seconds']:>8.3f} s{rate}")
        if e.get("cache_line"):
            print(f"{'':<{width}}  cold   {e['cache_line']}")
            print(f"{'':<{width}}  cached {e['cached_cache_line']} "
                  f"({e['cached_seconds']:.3f} s)")
    if args.profile:
        print(f"profile pass (4MEM-1 / HF-RF @ {args.budget}):")
        print(prof.format_top(), end="")
        print(f"wrote {prof.pstats_path} and {prof.folded_path}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
