"""Layer mix of the Figure 2 op at the benchmark's size and at the CLI's.

    python3 bench/layer_mix.py [--out bench/results/layer_mix.json]

The fig2 workloads regenerate the 2-core MEM panel, as ``repro figure 2
--cores 2`` does.  ``repro figure 2`` at its defaults regenerates the
4-core MEM panel, which takes about 2.5 times as long and would not fit
a benchmark run.  This script traces one cold op of each, on seed 1,
in this process and prints each layer's share of the traced op, so the
smaller op can be checked against the one users run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import workload
from ledger import Ledger

#: the panel ``repro figure 2`` regenerates by default (``--cores 4``,
#: ``--groups MEM``, ExperimentContext's budgets)
DEFAULT = {"cores": (4,), "groups": ("MEM",), "inst_budget": 30_000,
           "profile_budget": 15_000}


def trace_op(cores, groups, inst_budget: int, profile_budget: int,
             seed: int) -> dict:
    """Run one traced, cold Figure 2 op; returns its size and layer shares."""
    from repro.experiments.figure2 import run_figure2
    from repro.experiments.harness import ExperimentContext
    from repro.workloads.synthetic import clear_trace_cache

    ledger = Ledger()
    clear_trace_cache()
    ctx = ExperimentContext(inst_budget=inst_budget,
                            profile_budget=profile_budget, seeds=(seed,))
    ledger.begin(simulator=True)
    t0 = time.perf_counter_ns()
    try:
        run_figure2(ctx, core_counts=cores, groups=groups)
    finally:
        op_ns = time.perf_counter_ns() - t0
        ledger.end()
    self_ns: dict[str, int] = {}
    for name, e in ledger.entries.items():
        layer = {"MultiCoreSystem.run": "sim.dispatch",
                 "MultiCoreSystem.__init__": "sim.build"}.get(name, e.layer)
        self_ns[layer] = self_ns.get(layer, 0) + e.self_ns
    self_ns["unwrapped"] = op_ns - sum(self_ns.values())
    return {"cores": list(cores), "groups": list(groups),
            "inst_budget": inst_budget, "profile_budget": profile_budget,
            "traced_op_s": op_ns * 1e-9,
            "share_pct": {k: 100.0 * v / op_ns
                          for k, v in sorted(self_ns.items())}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 2)[2])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    workload._import_repro()
    seed = 1
    bench = workload.Fig2Serial(seed, 1.0)
    ops = {
        "bench": trace_op(workload.FIG2_CORES, workload.FIG2_GROUPS,
                          bench.budget, bench.profile_budget, seed),
        "default": trace_op(seed=seed, **DEFAULT),
    }
    a, b = ops["bench"], ops["default"]
    print(f"{'layer':<14} {'bench %':>8} {'default %':>10}")
    for layer in sorted(set(a["share_pct"]) | set(b["share_pct"])):
        print(f"{layer:<14} {a['share_pct'].get(layer, 0.0):>8.1f} "
              f"{b['share_pct'].get(layer, 0.0):>10.1f}")
    print(f"{'traced op s':<14} {a['traced_op_s']:>8.2f} "
          f"{b['traced_op_s']:>10.2f}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"seed": seed, "ops": ops},
                                       indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
