"""Experiment harnesses — one module per paper table/figure.

Every harness follows the paper's methodology end to end:

1. profile each application's memory efficiency on a single core
   (``"profile"`` trace phase — the 10 M-instruction SimPoint analogue);
2. measure each application's single-core IPC on the evaluation phase
   (the SMT-speedup denominator);
3. run the Table 3 multiprogrammed mixes under each policy and report the
   same rows/series the paper plots.

The shared :class:`~repro.experiments.harness.ExperimentContext` caches
profiling runs so a sweep touches each application once per seed, and
averages every (workload, policy) cell over ``seeds`` to damp the
short-run noise of the scaled-down instruction budgets.
"""

from repro.experiments.ablations import (
    ablation_lookahead,
    ablation_page_policy,
    ablation_table_bits,
    ablation_write_drain,
)
from repro.experiments.arena import (
    ARENA_MIX_SETS,
    ArenaMixRow,
    ArenaRow,
    arena_anatomy,
    format_arena,
    format_arena_per_mix,
    run_arena,
    run_arena_per_mix,
)
from repro.experiments.cache import CacheStats, ResultCache
from repro.experiments.cells import Cell, CellKey
from repro.experiments.cloud import (
    CLOUD_MIX_SETS,
    CloudResult,
    CloudRow,
    ServiceStats,
    format_cloud,
    run_cloud,
    run_cloud_table,
)
from repro.experiments.figure2 import Figure2Row, run_figure2
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure5 import run_figure5
from repro.experiments.harness import ExperimentContext, PolicyOutcome
from repro.experiments.parallel import (
    CellFailure,
    ParallelReport,
    default_jobs,
    merge_into,
    plan_cells,
    run_cells,
)
from repro.experiments.table2 import run_table2

__all__ = [
    "ARENA_MIX_SETS",
    "ArenaMixRow",
    "ArenaRow",
    "CLOUD_MIX_SETS",
    "CacheStats",
    "Cell",
    "CellFailure",
    "CellKey",
    "CloudResult",
    "CloudRow",
    "ExperimentContext",
    "Figure2Row",
    "ParallelReport",
    "PolicyOutcome",
    "ResultCache",
    "ServiceStats",
    "ablation_lookahead",
    "ablation_page_policy",
    "ablation_table_bits",
    "ablation_write_drain",
    "arena_anatomy",
    "default_jobs",
    "format_arena",
    "format_arena_per_mix",
    "format_cloud",
    "run_arena",
    "run_arena_per_mix",
    "run_cloud",
    "run_cloud_table",
    "merge_into",
    "plan_cells",
    "run_cells",
    "run_figure2",
    "run_figure3",
    "run_figure4",
    "run_figure5",
    "run_table2",
]
