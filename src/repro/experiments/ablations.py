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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.config import SystemConfig
from repro.experiments.harness import ExperimentContext
from repro.metrics.speedup import smt_speedup
from repro.workloads.mixes import workload_by_name

__all__ = [
    "ablation_table_bits",
    "ablation_page_policy",
    "ablation_write_drain",
    "ablation_lookahead",
    "ablation_cell_specs",
    "AblationSpec",
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


def _page_policy_config(ctx: ExperimentContext, mode: str) -> SystemConfig:
    return replace(
        ctx.config, controller=replace(ctx.config.controller, page_policy=mode)
    )


def _write_drain_config(ctx: ExperimentContext, high: int, low: int) -> SystemConfig:
    return replace(
        ctx.config,
        controller=replace(
            ctx.config.controller, write_drain_high=high, write_drain_low=low
        ),
    )


def _custom_speedup(ctx: ExperimentContext, workload: str, policy: str,
                    seed: int, *, policy_args: tuple = (),
                    config=None, lookahead=None) -> float:
    mix = workload_by_name(workload)
    r = ctx.run_custom(
        mix, policy, seed,
        policy_args=policy_args, config=config, lookahead=lookahead,
    )
    return smt_speedup(r.ipcs(), ctx.single_ipcs(mix, seed))


def ablation_table_bits(
    ctx: ExperimentContext,
    workload: str = ABLATION_WORKLOAD,
    variants: tuple[tuple[str, int | None, str], ...] = TABLE_BITS_VARIANTS,
) -> dict[str, float]:
    """SMT speedup of ME-LREQ under different priority-table geometries."""
    out: dict[str, float] = {}
    for label, bits, encoding in variants:
        vals = [
            _custom_speedup(
                ctx, workload, "ME-LREQ", seed,
                policy_args=(("table_bits", bits),
                             ("table_encoding", encoding)),
            )
            for seed in ctx.seeds
        ]
        out[label] = sum(vals) / len(vals)
    return out


def ablation_page_policy(
    ctx: ExperimentContext, workload: str = ABLATION_WORKLOAD,
    policy: str = "HF-RF",
) -> dict[str, float]:
    """Close-page (paper baseline) vs open-page memory system."""
    out: dict[str, float] = {}
    for mode in PAGE_POLICIES:
        cfg = _page_policy_config(ctx, mode)
        vals = [
            _custom_speedup(ctx, workload, policy, seed, config=cfg)
            for seed in ctx.seeds
        ]
        out[mode] = sum(vals) / len(vals)
    return out


def ablation_write_drain(
    ctx: ExperimentContext,
    workload: str = ABLATION_WORKLOAD,
    policy: str = "HF-RF",
    watermarks: tuple[tuple[int, int], ...] = WRITE_DRAIN_WATERMARKS,
) -> dict[str, float]:
    """SMT speedup under different write-drain hysteresis watermarks."""
    out: dict[str, float] = {}
    for high, low in watermarks:
        cfg = _write_drain_config(ctx, high, low)
        vals = [
            _custom_speedup(ctx, workload, policy, seed, config=cfg)
            for seed in ctx.seeds
        ]
        out[f"high={high},low={low}"] = sum(vals) / len(vals)
    return out


def ablation_lookahead(
    ctx: ExperimentContext,
    workload: str = ABLATION_WORKLOAD,
    policy: str = "HF-RF",
    lookaheads: tuple[int, ...] = LOOKAHEADS,
) -> dict[int, float]:
    """Model-robustness: results should be stable in the core lookahead."""
    out: dict[int, float] = {}
    for la in lookaheads:
        vals = [
            _custom_speedup(ctx, workload, policy, seed, lookahead=la)
            for seed in ctx.seeds
        ]
        out[la] = sum(vals) / len(vals)
    return out


# -- cell enumeration (parallel runner) ------------------------------------------


@dataclass(frozen=True)
class AblationSpec:
    """One ablation simulation, in the shape ``plan_cells`` consumes."""

    workload: str
    policy: str
    policy_args: tuple
    seed: int
    config: SystemConfig | None = None  # None = the context's baseline
    lookahead: int | None = None  # None = the context's default


def ablation_cell_specs(
    ctx: ExperimentContext, workload: str = ABLATION_WORKLOAD
) -> list[AblationSpec]:
    """Every run behind the four standard-report ablations
    (:func:`ablation_table_bits`, :func:`ablation_page_policy`,
    :func:`ablation_write_drain`, :func:`ablation_lookahead` at their
    default variants — keep in sync with those defaults)."""
    specs: list[AblationSpec] = []
    for seed in ctx.seeds:
        for _label, bits, encoding in TABLE_BITS_VARIANTS:
            specs.append(AblationSpec(
                workload, "ME-LREQ",
                (("table_bits", bits), ("table_encoding", encoding)), seed,
            ))
        for mode in PAGE_POLICIES:
            specs.append(AblationSpec(
                workload, "HF-RF", (), seed,
                config=_page_policy_config(ctx, mode),
            ))
        for high, low in WRITE_DRAIN_WATERMARKS:
            specs.append(AblationSpec(
                workload, "HF-RF", (), seed,
                config=_write_drain_config(ctx, high, low),
            ))
        for la in LOOKAHEADS:
            specs.append(AblationSpec(workload, "HF-RF", (), seed,
                                      lookahead=la))
    return specs
