#!/usr/bin/env python3
"""Telemetry overhead gate.

Runs the same workload four times — telemetry off, sampling telemetry
on, request-span tracing on, then fleet observability on — and enforces
the subsystem's promises:

1. results are bit-identical with any capture enabled (telemetry, span
   tracing and fleet observability are pure observers);
2. sampling-telemetry wall-clock overhead stays under its budget
   (default 5 %, override with REPRO_OVERHEAD_BUDGET);
3. span-tracing overhead (1-in-64 sampling) stays under its own budget
   (default 10 %, override with REPRO_SPANS_OVERHEAD_BUDGET);
4. fleet observability (worker-style trace recording around the run)
   stays under its budget (default 5 %, override with
   REPRO_FLEET_OVERHEAD_BUDGET) — and the base leg doubles as the
   fleet-*disabled* bit-identity gate, since it runs with no fleet
   state at all.

Exit status 0 on success, 1 on any violation, so CI can gate on it.

Run:  PYTHONPATH=src python scripts/check_overhead.py [--budget N]
"""

import argparse
import os
import sys
import tempfile
import time

from repro import Telemetry, run_multicore, workload_by_name
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.export import JsonlRecorder
from repro.telemetry.fleet import new_run_id, wall_us


def timed_run(mix, policy, budget, seed, telemetry=None):
    t0 = time.perf_counter()
    result = run_multicore(
        mix, policy, inst_budget=budget, seed=seed, telemetry=telemetry
    )
    return result, time.perf_counter() - t0


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
    t0 = time.perf_counter()
    bus.emit("cell overhead", "begin", wall_us(), "cells")
    result = run_multicore(mix, policy, inst_budget=budget, seed=seed)
    bus.emit("cell overhead", "end", wall_us(), "cells", status="done")
    dt = time.perf_counter() - t0
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
    ap.add_argument("--repeats", type=int, default=3,
                    help="take the best of N timings to damp scheduler noise")
    ap.add_argument(
        "--max-overhead", type=float,
        default=float(os.environ.get("REPRO_OVERHEAD_BUDGET", "0.05")),
        help="allowed fractional slowdown with telemetry on (default 0.05)",
    )
    ap.add_argument("--span-sample", type=int, default=64,
                    help="span tracing rate for the third run (default 1-in-64)")
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

    mix = workload_by_name(args.workload)
    base_times, tele_times, span_times, fleet_times = [], [], [], []
    base_fp = tele_fp = span_fp = fleet_fp = None
    ticks = nspans = 0
    with tempfile.TemporaryDirectory(prefix="repro-fleet-ovh-") as td:
        for _ in range(args.repeats):
            result, dt = timed_run(mix, args.policy, args.budget, args.seed)
            base_times.append(dt)
            base_fp = fingerprint(result)

            tm = Telemetry(sample_every=args.sample_every)
            result, dt = timed_run(
                mix, args.policy, args.budget, args.seed, telemetry=tm
            )
            tele_times.append(dt)
            tele_fp = fingerprint(result)
            ticks = len(tm.samples)

            tm = Telemetry(sample_every=args.sample_every,
                           capture_spans=True, span_sample=args.span_sample)
            result, dt = timed_run(
                mix, args.policy, args.budget, args.seed, telemetry=tm
            )
            span_times.append(dt)
            span_fp = fingerprint(result)
            nspans = len(tm.spans.completed)

            result, dt = timed_fleet_run(
                mix, args.policy, args.budget, args.seed, td
            )
            fleet_times.append(dt)
            fleet_fp = fingerprint(result)

    base, tele, span, fleet = (min(base_times), min(tele_times),
                               min(span_times), min(fleet_times))
    overhead = tele / base - 1.0
    span_overhead = span / base - 1.0
    fleet_overhead = fleet / base - 1.0
    print(f"workload {mix.name} / {args.policy} @ {args.budget} insts, "
          f"best of {args.repeats}:")
    print(f"  telemetry off : {base * 1e3:8.1f} ms")
    print(f"  telemetry on  : {tele * 1e3:8.1f} ms  ({ticks} samples)")
    print(f"  spans on      : {span * 1e3:8.1f} ms  "
          f"(1-in-{args.span_sample}, {nspans} spans)")
    print(f"  fleet obs on  : {fleet * 1e3:8.1f} ms")
    print(f"  overhead      : {overhead:+8.2%}  (budget {args.max_overhead:.0%})")
    print(f"  span overhead : {span_overhead:+8.2%}  "
          f"(budget {args.max_spans_overhead:.0%})")
    print(f"  fleet overhead: {fleet_overhead:+8.2%}  "
          f"(budget {args.max_fleet_overhead:.0%})")

    ok = True
    if tele_fp != base_fp:
        print("FAIL: results differ with telemetry enabled")
        print(f"  off: {base_fp}")
        print(f"  on : {tele_fp}")
        ok = False
    else:
        print("  results bit-identical with telemetry on/off: OK")
    if span_fp != base_fp:
        print("FAIL: results differ with span tracing enabled")
        print(f"  off  : {base_fp}")
        print(f"  spans: {span_fp}")
        ok = False
    else:
        print("  results bit-identical with span tracing on/off: OK")
    if fleet_fp != base_fp:
        print("FAIL: results differ with fleet observability enabled")
        print(f"  off  : {base_fp}")
        print(f"  fleet: {fleet_fp}")
        ok = False
    else:
        print("  results bit-identical with fleet observability on/off: OK")
    if overhead > args.max_overhead:
        print(f"FAIL: overhead {overhead:.2%} exceeds budget "
              f"{args.max_overhead:.0%}")
        ok = False
    if span_overhead > args.max_spans_overhead:
        print(f"FAIL: span overhead {span_overhead:.2%} exceeds budget "
              f"{args.max_spans_overhead:.0%}")
        ok = False
    if fleet_overhead > args.max_fleet_overhead:
        print(f"FAIL: fleet overhead {fleet_overhead:.2%} exceeds budget "
              f"{args.max_fleet_overhead:.0%}")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
