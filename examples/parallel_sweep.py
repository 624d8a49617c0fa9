#!/usr/bin/env python3
"""Fan a policy sweep out over all CPU cores.

Every (workload, policy, seed) cell of a Figure 2-style sweep is an
independent simulation, so a process pool gives near-linear speedup on a
multicore host — the difference between minutes and tens of minutes for
full-figure regenerations.  The sweep is planned, sharded and merged by
:mod:`repro.experiments.parallel`, the same path ``--jobs N`` takes.

Run:  python examples/parallel_sweep.py --cores 4 --workers 0
      (--workers 0 = use every host CPU)
"""

import argparse
import time

from repro.experiments import ExperimentContext
from repro.experiments.figure2 import POLICIES
from repro.experiments.parallel import (
    default_jobs,
    merge_into,
    plan_cells,
    run_cells,
)
from repro.workloads.mixes import mixes_for


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cores", type=int, default=4, choices=(2, 4, 8))
    ap.add_argument("--group", default="MEM", choices=("MEM", "MIX"))
    ap.add_argument("--budget", type=int, default=20_000)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--workers", type=int, default=0,
                    help="pool size; 0 = all host CPUs, 1 = serial")
    args = ap.parse_args()

    ctx = ExperimentContext(inst_budget=args.budget,
                            profile_budget=max(args.budget // 2, 5_000),
                            seeds=tuple(args.seeds))
    cells = plan_cells(ctx, figure2=((args.cores,), (args.group,)))
    workers = args.workers or default_jobs()
    print(f"{len(cells)} cells over {workers} workers "
          f"(budget {args.budget} insts/core)")

    t0 = time.time()
    report = run_cells(cells, jobs=workers)
    if report.failures:
        raise SystemExit(report.failure_report())
    merge_into(ctx, report)
    wall = time.time() - t0

    mixes = mixes_for(args.cores, args.group)
    avg = {p: sum(ctx.outcome(m, p).smt_speedup for m in mixes) / len(mixes)
           for p in POLICIES}
    print(f"\n{args.cores}-core {args.group} group averages:")
    for p in POLICIES:
        print(f"  {p:<8} speedup {avg[p]:.3f}  "
              f"({avg[p] / avg['HF-RF'] - 1:+.1%} vs HF-RF)")
    print(f"\nwall time {wall:.1f}s "
          f"({len(cells) / wall:.2f} simulations/s)")


if __name__ == "__main__":
    main()
