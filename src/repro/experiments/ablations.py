"""Ablations of the design choices DESIGN.md calls out.

These go beyond the paper's own evaluation (step-5 extension work):

* ``ablation_table_bits`` — ME-LREQ with an ideal divider vs the paper's
  10-bit table vs aggressively narrow tables, and linear vs logarithmic
  encoding (the paper only says 'scaled approximately');
* ``ablation_page_policy`` — the close-page baseline vs an open-page
  memory system;
* ``ablation_write_drain`` — the 1/2 - 1/4 drain hysteresis vs tighter and
  looser watermarks;
* ``ablation_lookahead`` — simulator-fidelity knob: the bounded core
  lookahead should not change conclusions (a pure model-robustness check).

Each ablation is declared once, as ``(label, run arguments)`` variants
for :meth:`ExperimentContext.run`; its function averages each variant's
SMT speedup over the seeds, and :func:`ablation_cells` plans the runs.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.cells import Cell, eval_cell
from repro.experiments.harness import ExperimentContext
from repro.metrics.speedup import smt_speedup
from repro.workloads.mixes import workload_by_name

__all__ = [
    "ablation_table_bits",
    "ablation_page_policy",
    "ablation_write_drain",
    "ablation_lookahead",
    "ablation_cells",
]

#: default workload of every single-workload ablation
ABLATION_WORKLOAD = "4MEM-1"

#: ME-LREQ priority-table geometries (label, table_bits, encoding)
TABLE_BITS_VARIANTS: tuple[tuple[str, int | None, str], ...] = (
    ("ideal-divider", None, "log"),
    ("10-bit log", 10, "log"),
    ("10-bit linear", 10, "linear"),
    ("6-bit log", 6, "log"),
    ("4-bit log", 4, "log"),
)

#: page-policy modes (paper baseline first)
PAGE_POLICIES: tuple[str, ...] = ("closed", "open")

#: write-drain hysteresis (high, low) watermarks
WRITE_DRAIN_WATERMARKS: tuple[tuple[int, int], ...] = (
    (32, 16), (48, 8), (16, 8), (56, 48),
)

#: core-lookahead robustness sweep
LOOKAHEADS: tuple[int, ...] = (64, 256, 1024)


def _table_bits_runs(variants=TABLE_BITS_VARIANTS):
    return [(label, {"policy": "ME-LREQ",
                     "policy_args": (("table_bits", bits),
                                     ("table_encoding", encoding))})
            for label, bits, encoding in variants]


def _page_policy_runs(ctx, policy="HF-RF"):
    ctl = ctx.config.controller
    return [(mode, {"policy": policy,
                    "config": replace(ctx.config, controller=replace(
                        ctl, page_policy=mode))})
            for mode in PAGE_POLICIES]


def _write_drain_runs(ctx, policy="HF-RF",
                      watermarks=WRITE_DRAIN_WATERMARKS):
    ctl = ctx.config.controller
    return [(f"high={high},low={low}",
             {"policy": policy,
              "config": replace(ctx.config, controller=replace(
                  ctl, write_drain_high=high, write_drain_low=low))})
            for high, low in watermarks]


def _lookahead_runs(policy="HF-RF", lookaheads=LOOKAHEADS):
    return [(la, {"policy": policy, "lookahead": la}) for la in lookaheads]


def _mean_speedups(ctx: ExperimentContext, workload: str, runs) -> dict:
    """Each variant's SMT speedup, averaged over the context's seeds."""
    mix = workload_by_name(workload)
    out = {}
    for label, run in runs:
        vals = [smt_speedup(ctx.run(mix, seed=seed, **run).ipcs(),
                            ctx.single_ipcs(mix, seed))
                for seed in ctx.seeds]
        out[label] = sum(vals) / len(vals)
    return out


def ablation_table_bits(
    ctx: ExperimentContext,
    workload: str = ABLATION_WORKLOAD,
    variants: tuple[tuple[str, int | None, str], ...] = TABLE_BITS_VARIANTS,
) -> dict[str, float]:
    """SMT speedup of ME-LREQ under different priority-table geometries."""
    return _mean_speedups(ctx, workload, _table_bits_runs(variants))


def ablation_page_policy(
    ctx: ExperimentContext, workload: str = ABLATION_WORKLOAD,
    policy: str = "HF-RF",
) -> dict[str, float]:
    """Close-page (paper baseline) vs open-page memory system."""
    return _mean_speedups(ctx, workload, _page_policy_runs(ctx, policy))


def ablation_write_drain(
    ctx: ExperimentContext,
    workload: str = ABLATION_WORKLOAD,
    policy: str = "HF-RF",
    watermarks: tuple[tuple[int, int], ...] = WRITE_DRAIN_WATERMARKS,
) -> dict[str, float]:
    """SMT speedup under different write-drain hysteresis watermarks."""
    return _mean_speedups(ctx, workload,
                          _write_drain_runs(ctx, policy, watermarks))


def ablation_lookahead(
    ctx: ExperimentContext,
    workload: str = ABLATION_WORKLOAD,
    policy: str = "HF-RF",
    lookaheads: tuple[int, ...] = LOOKAHEADS,
) -> dict[int, float]:
    """Model-robustness: results should be stable in the core lookahead."""
    return _mean_speedups(ctx, workload, _lookahead_runs(policy, lookaheads))


def ablation_cells(ctx: ExperimentContext,
                   workload: str = ABLATION_WORKLOAD) -> list[Cell]:
    """Every run behind the four ablations at their default variants."""
    runs = (_table_bits_runs() + _page_policy_runs(ctx)
            + _write_drain_runs(ctx) + _lookahead_runs())
    return [eval_cell(ctx, workload, seed=seed, **run)
            for seed in ctx.seeds for _label, run in runs]
