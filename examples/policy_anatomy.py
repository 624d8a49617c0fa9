#!/usr/bin/env python3
"""Dissect *how* each scheduler makes its decisions.

Runs one memory-intensive workload under several policies with a
decision log attached, then reports for each: how often it departed from
arrival order, its row-hit share, how long it keeps serving one core
(the 'spatial locality' run length of the paper's Section 1), the
per-core service shares — plus the resulting system analysis (bus
utilisation, per-core latency).

Run:  python examples/policy_anatomy.py --workload 4MEM-1
"""

import argparse

from repro import MeProfiler, SystemConfig, make_policy
from repro.controller.decision_log import DecisionLog
from repro.metrics.analysis import analyze
from repro.sim.system import MultiCoreSystem
from repro.workloads.mixes import workload_by_name
from repro.workloads.synthetic import make_trace


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", default="4MEM-1")
    ap.add_argument("--budget", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--policies", nargs="+",
                    default=["FCFS", "HF-RF", "RR", "LREQ", "ME-LREQ"])
    args = ap.parse_args()

    mix = workload_by_name(args.workload)
    names = [a.name for a in mix.apps()]
    me = MeProfiler(inst_budget=args.budget // 2, seed=args.seed).me_values(mix)

    print(f"workload {mix.name}: {', '.join(names)}\n")
    header = (f"{'policy':<8} {'reorder':>8} {'row-hit':>8} "
              f"{'core-run':>9}  service share")
    print(header)
    details = {}
    for pol_name in args.policies:
        policy = make_policy(pol_name, me_values=me)
        cfg = SystemConfig(num_cores=mix.num_cores)
        traces = [
            make_trace(a, args.seed, "eval", i) for i, a in enumerate(mix.apps())
        ]
        system = MultiCoreSystem(
            cfg, policy, traces, args.budget, warmup_insts=10_000, seed=args.seed
        )
        log = DecisionLog.attach(system.controller)
        system.run()
        share = " ".join(
            f"{s:.0%}" for s in log.service_share(mix.num_cores)
        )
        print(f"{pol_name:<8} {log.reorder_rate():>8.1%} "
              f"{log.hit_rate():>8.1%} {log.mean_run_length():>9.2f}  {share}")
        details[pol_name] = analyze(system, names)

    print("\nPer-core read latency under each policy (cycles):")
    for pol_name, a in details.items():
        lats = " ".join(f"{c.avg_read_latency:6.0f}" for c in a.cores)
        print(f"  {pol_name:<8} {lats}   "
              f"(bus util {sum(ch.utilization for ch in a.channels) / 2:.0%})")


if __name__ == "__main__":
    main()
