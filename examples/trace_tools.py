#!/usr/bin/env python3
"""Record, save and replay instruction traces (trace-driven workflow).

Trace-driven simulators separate *trace generation* from *simulation* so
one expensive trace serves many experiments.  This example:

1. records N memory operations of a synthetic application to a REPROTR1
   binary trace file;
2. replays the file through the full simulated machine twice — under two
   different schedulers — demonstrating identical inputs, differing
   memory-system behaviour;
3. prints a latency histogram for each run.

Run:  python examples/trace_tools.py --app swim --ops 3000
"""

import argparse
import tempfile
from pathlib import Path

from repro import SystemConfig, Telemetry, make_policy
from repro.cpu.trace_io import load_trace, record_trace, save_trace
from repro.metrics.report import histogram
from repro.metrics.stats import ReservoirSampler
from repro.sim.system import MultiCoreSystem
from repro.workloads.spec2000 import app_by_name
from repro.workloads.synthetic import make_trace


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--app", default="swim")
    ap.add_argument("--ops", type=int, default=3_000)
    ap.add_argument("--budget", type=int, default=8_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", help="trace file path (default: temp file)")
    args = ap.parse_args()

    app = app_by_name(args.app)
    source = make_trace(app, args.seed, "eval", core_id=0)
    ops = record_trace(source, args.ops)
    path = Path(args.out) if args.out else Path(tempfile.gettempdir()) / f"{app.name}.trace"
    save_trace(ops, path)
    insts = sum(op.gap + 1 for op in ops)
    print(f"recorded {len(ops)} memory ops ({insts} instructions) -> {path}")

    for policy_name in ("FCFS", "HF-RF"):
        trace = load_trace(path)
        cfg = SystemConfig(num_cores=1)
        # Span capture at 1-in-1 stamps every request the controller
        # serves with its arrival and delivery cycles.
        hub = Telemetry(capture_spans=True, span_sample=1)
        system = MultiCoreSystem(
            cfg, make_policy(policy_name), [trace],
            target_insts=min(args.budget, insts), seed=args.seed,
            telemetry=hub,
        )
        system.run()
        sampler = ReservoirSampler(512, seed=args.seed)
        for span in hub.spans.completed:
            if span.kind == "read":
                sampler.add(span.done - span.arrival)
        core = system.cores[0]
        print(f"\n== {policy_name}: IPC {core.ipc():.3f}, "
              f"{sampler.seen} reads ==")
        if sampler.sample:
            print(histogram(sampler.sample, bins=8, width=30))
            print(f"p50={sampler.percentile(50):.0f}  "
                  f"p90={sampler.percentile(90):.0f}  "
                  f"p99={sampler.percentile(99):.0f} cycles")


if __name__ == "__main__":
    main()
