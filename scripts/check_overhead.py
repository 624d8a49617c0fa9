#!/usr/bin/env python3
"""Telemetry overhead gate.

Runs the same workload with telemetry off and with each capture on —
sampling telemetry, request-span tracing, fleet observability — and
enforces the subsystem's promises:

1. results are bit-identical with any capture enabled (telemetry, span
   tracing and fleet observability are pure observers);
2. sampling-telemetry overhead stays under its budget (default 5 %,
   override with REPRO_OVERHEAD_BUDGET);
3. span-tracing overhead (1-in-64 sampling) stays under its own budget
   (default 10 %, override with REPRO_SPANS_OVERHEAD_BUDGET);
4. fleet observability (worker-style trace recording around the run)
   stays under its budget (default 5 %, override with
   REPRO_FLEET_OVERHEAD_BUDGET) — and the off leg doubles as the
   fleet-*disabled* bit-identity gate, since it runs with no fleet
   state at all.

Timing follows the benchmark's method (docs/PERFORMANCE.md): each leg is
timed in process CPU time, on one CPU, and the legs run in rounds of one
run each, the order rotating from round to round so every capture leg
runs both before and after the off leg.  A leg's overhead is the median, over the
rounds, of its CPU time over the same round's off leg, minus one.  Rounds
continue until every leg has timed ``MIN_CPU_S`` seconds and at least
``--repeats`` rounds have run.

Exit status 0 on success, 1 on any violation, so CI can gate on it.

Run:  PYTHONPATH=src python scripts/check_overhead.py [--budget N]
"""

import argparse
import gc
import os
import statistics
import sys
import tempfile
import time

from repro import Telemetry, run_multicore, workload_by_name
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.export import JsonlRecorder
from repro.telemetry.fleet import new_run_id, wall_us

#: the legs of one round; every leg but the first is a capture leg
LEGS = ("off", "telemetry", "spans", "fleet")
#: CPU seconds every leg times before the gate decides: at CI's
#: ``--budget 20000`` a leg takes about 31 ms, so about 12 rounds, which
#: keeps the step within twice the wall time of the best-of-3 gate
MIN_CPU_S = 0.35


def timed_run(mix, policy, budget, seed, telemetry=None):
    t0 = time.process_time()
    result = run_multicore(
        mix, policy, inst_budget=budget, seed=seed, telemetry=telemetry
    )
    return result, time.process_time() - t0


def timed_fleet_run(mix, policy, budget, seed, trace_dir):
    """One run instrumented the way a sweep worker instruments it: a
    cell slice published on a bus a fleet-trace recorder subscribes to,
    around the engine call."""
    run_id = new_run_id()
    path = os.path.join(trace_dir, f"fleet-{run_id}.jsonl")
    bus = TelemetryBus(retain=False)
    trace = JsonlRecorder(path, role="worker", run_id=run_id,
                          worker_id="overhead-w0")
    bus.subscribe(trace)
    t0 = time.process_time()
    bus.emit("cell overhead", "begin", wall_us(), "cells")
    result = run_multicore(mix, policy, inst_budget=budget, seed=seed)
    bus.emit("cell overhead", "end", wall_us(), "cells", status="done")
    dt = time.process_time() - t0
    trace.close()
    return result, dt


def fingerprint(result):
    return (
        result.end_cycle,
        tuple(result.ipcs()),
        result.row_hit_rate,
        tuple(c.avg_read_latency for c in result.per_core),
        tuple(c.bw_gbps for c in result.per_core),
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", default="4MEM-1")
    ap.add_argument("--policy", default="HF-RF")
    ap.add_argument("--budget", type=int, default=30_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--sample-every", type=int, default=2000)
    ap.add_argument("--repeats", type=int, default=5,
                    help="run at least N rounds of all four legs")
    ap.add_argument(
        "--max-overhead", type=float,
        default=float(os.environ.get("REPRO_OVERHEAD_BUDGET", "0.05")),
        help="allowed fractional slowdown with telemetry on (default 0.05)",
    )
    ap.add_argument("--span-sample", type=int, default=64,
                    help="span tracing rate of the spans leg (default 1-in-64)")
    ap.add_argument(
        "--max-spans-overhead", type=float,
        default=float(os.environ.get("REPRO_SPANS_OVERHEAD_BUDGET", "0.10")),
        help="allowed fractional slowdown with span tracing on (default 0.10)",
    )
    ap.add_argument(
        "--max-fleet-overhead", type=float,
        default=float(os.environ.get("REPRO_FLEET_OVERHEAD_BUDGET", "0.05")),
        help="allowed fractional slowdown with fleet observability on "
             "(default 0.05)",
    )
    args = ap.parse_args()

    # Every leg on one CPU: a process the scheduler moves between CPUs
    # reads CPU times several times noisier (caches start cold).
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    mix = workload_by_name(args.workload)
    run = (mix, args.policy, args.budget, args.seed)
    cpu = {leg: [] for leg in LEGS}
    prints = {leg: set() for leg in LEGS}
    ticks = nspans = 0
    with tempfile.TemporaryDirectory(prefix="repro-fleet-ovh-") as td:
        timed_run(*run)  # untimed: generates the traces
        # Park what the set-up allocated (the traces, the decode memo)
        # where the collector no longer scans it, so a collection that
        # lands inside a timed leg costs that leg little.
        gc.freeze()
        rounds = 0
        while (rounds < args.repeats
               or min(sum(times) for times in cpu.values()) < MIN_CPU_S):
            shift = rounds % len(LEGS)
            for leg in LEGS[shift:] + LEGS[:shift]:
                gc.collect()  # no leg pays for an earlier leg's garbage
                if leg == "off":
                    result, dt = timed_run(*run)
                elif leg == "telemetry":
                    tm = Telemetry(sample_every=args.sample_every)
                    result, dt = timed_run(*run, telemetry=tm)
                    ticks = len(tm.samples)
                elif leg == "spans":
                    tm = Telemetry(sample_every=args.sample_every,
                                   capture_spans=True,
                                   span_sample=args.span_sample)
                    result, dt = timed_run(*run, telemetry=tm)
                    nspans = len(tm.spans.completed)
                else:
                    result, dt = timed_fleet_run(*run, td)
                cpu[leg].append(dt)
                prints[leg].add(fingerprint(result))
            rounds += 1

    def overhead(leg: str) -> float:
        return statistics.median(
            on / off for on, off in zip(cpu[leg], cpu["off"])) - 1.0

    def ms(leg: str) -> float:
        return statistics.median(cpu[leg]) * 1e3

    tele, span, fleet = (overhead(leg) for leg in LEGS[1:])
    print(f"workload {mix.name} / {args.policy} @ {args.budget} insts, "
          f"{rounds} rounds, median CPU time:")
    print(f"  telemetry off : {ms('off'):8.1f} ms")
    print(f"  telemetry on  : {ms('telemetry'):8.1f} ms  ({ticks} samples)")
    print(f"  spans on      : {ms('spans'):8.1f} ms  "
          f"(1-in-{args.span_sample}, {nspans} spans)")
    print(f"  fleet obs on  : {ms('fleet'):8.1f} ms")
    print(f"  overhead      : {tele:+8.2%}  (budget {args.max_overhead:.0%})")
    print(f"  span overhead : {span:+8.2%}  "
          f"(budget {args.max_spans_overhead:.0%})")
    print(f"  fleet overhead: {fleet:+8.2%}  "
          f"(budget {args.max_fleet_overhead:.0%})")

    ok = True
    base = prints["off"]
    if len(base) != 1:
        print(f"FAIL: the off leg itself gave {len(base)} different results")
        ok = False
    for leg, label in (("telemetry", "telemetry"), ("spans", "span tracing"),
                       ("fleet", "fleet observability")):
        if prints[leg] != base:
            print(f"FAIL: results differ with {label} enabled")
            print(f"  off: {sorted(base)}")
            print(f"  on : {sorted(prints[leg])}")
            ok = False
        else:
            print(f"  results bit-identical with {label} on/off: OK")
    for value, budget, label in (
            (tele, args.max_overhead, "overhead"),
            (span, args.max_spans_overhead, "span overhead"),
            (fleet, args.max_fleet_overhead, "fleet overhead")):
        if value > budget:
            print(f"FAIL: {label} {value:.2%} exceeds budget {budget:.0%}")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
