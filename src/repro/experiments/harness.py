"""Shared experiment machinery.

:class:`ExperimentContext` owns the knobs every experiment shares — the
instruction budget, warmup, seeds and system configuration — plus one
memo of cell results keyed by :class:`~repro.experiments.cells.CellKey`,
so experiments that share cells (e.g. Figure 2's speedups and Figure 4's
latencies over the same runs) never simulate twice.

Every lookup (:meth:`~ExperimentContext.run`,
:meth:`~ExperimentContext.me_values`, ...) builds its cell with the
builders the parallel planner uses and reads it through one path: the
memo, then an optional on-disk
:class:`~repro.experiments.cache.ResultCache` (keys include every run
determinant — seed, budgets, warmup, lookahead, config digest, policy
constructor arguments), then the cell's ME dependencies, then
:func:`~repro.experiments.cells.execute_cell`, writing the result back
to the cache.  An ablation is a :meth:`~ExperimentContext.run` with
constructor arguments, a variant machine or a lookahead, so a variant
equal to the baseline shares the figures' cell.  The parallel runner
(:mod:`repro.experiments.parallel`) computes the same cells elsewhere
and installs them in the memo by key, so the serial harness code then
emits bit-identical tables at full speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.config import SystemConfig
from repro.experiments.cells import (
    Cell,
    CellKey,
    cloud_cell,
    eval_cell,
    execute_cell,
    profile_cell,
    single_cell,
)
from repro.metrics.memory_efficiency import MeProfile
from repro.metrics.speedup import smt_speedup, unfairness
from repro.sim.runner import DEFAULT_WARMUP, RunResult
from repro.workloads.mixes import Mix, workload_by_name
from repro.workloads.spec2000 import AppProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.cache import ResultCache

__all__ = ["ExperimentContext", "PolicyOutcome", "mean"]


def mean(xs: Sequence[float]) -> float:
    """Arithmetic mean (raises on empty input — a silent 0 would read as
    a real experimental result)."""
    if not xs:
        raise ValueError("mean of empty sequence")
    return sum(xs) / len(xs)


@dataclass(frozen=True)
class PolicyOutcome:
    """One (workload, policy) cell, averaged over the context's seeds."""

    workload: str
    policy: str
    smt_speedup: float
    unfairness: float
    avg_read_latency: float
    per_core_latency: tuple[float, ...]
    per_core_ipc: tuple[float, ...]

    def gain_over(self, baseline: "PolicyOutcome") -> float:
        """Relative SMT-speedup gain vs a baseline outcome (paper's %)."""
        return self.smt_speedup / baseline.smt_speedup - 1.0


def _name(workload) -> str:
    return workload if isinstance(workload, str) else workload.name


@dataclass
class ExperimentContext:
    """Budget/seed/config bundle with a cell-result memo.

    Parameters
    ----------
    inst_budget:
        Instructions measured per core (the 100 M-instruction SimPoint
        analogue, scaled down; DESIGN.md §2).
    warmup_insts:
        Warmup before measurement (covers the trace prologue).
    seeds:
        Every cell is averaged over these seeds; more seeds = less noise.
    profile_budget:
        Budget for ME-profiling runs (the paper uses a *shorter* slice for
        profiling than for evaluation: 10 M vs 100 M).
    """

    inst_budget: int = 30_000
    warmup_insts: int = DEFAULT_WARMUP
    seeds: tuple[int, ...] = (1, 2)
    profile_budget: int = 15_000
    config: SystemConfig = field(default_factory=SystemConfig)
    lookahead: int = 256
    cache: "ResultCache | None" = None

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError("need at least one seed")
        #: every result this context has computed, read or been given
        self.memo: dict[CellKey, object] = {}

    def _get(self, cell: Cell):
        """Memo, then disk cache, then ME deps and :func:`execute_cell`."""
        key = cell.key
        result = self.memo.get(key)
        if result is not None:
            return result
        if self.cache is not None:
            result = self.cache.get(key)
        if result is None:
            result = execute_cell(self.resolve(cell))
            if self.cache is not None:
                self.cache.put(key, result)
        self.memo[key] = result
        return result

    def resolve(self, cell: Cell) -> Cell:
        """``cell`` ready to execute: its ME vector (if it has ``me_deps``)
        read from this context's profile cells."""
        return cell.with_resolved_me(
            lambda dep: self._get(Cell(key=dep, config=self.config)))

    # -- single-core cells --------------------------------------------------------

    def profile(self, app: AppProfile, seed: int) -> MeProfile:
        """One application's ME profile (the Table 2 row, ME's input)."""
        return self._get(profile_cell(self, app.code, seed))

    def batch_me(self, apps, seed: int) -> tuple[float, ...]:
        """ME ranks for a list of applications (a mix, or cloud batch
        cores)."""
        return tuple(self.profile(app, seed).me for app in apps)

    def batch_single_ipcs(self, apps, seed: int) -> tuple[float, ...]:
        """Single-core eval IPCs for a list of applications (the SMT
        speedup denominator)."""
        return tuple(self._get(single_cell(self, app.code, seed)).ipc
                     for app in apps)

    def me_values(self, mix: Mix, seed: int) -> tuple[float, ...]:
        return self.batch_me(mix.apps(), seed)

    def single_ipcs(self, mix: Mix, seed: int) -> tuple[float, ...]:
        return self.batch_single_ipcs(mix.apps(), seed)

    # -- multi-core cells ---------------------------------------------------------

    def run(self, workload: str | Mix, policy: str, seed: int, *,
            policy_args: tuple = (), config: SystemConfig | None = None,
            lookahead: int | None = None) -> RunResult:
        """One evaluation run of a registered mix.  An ablation passes the
        policy's constructor arguments and/or a non-default config or
        lookahead; a policy that reads ME raises ``ValueError`` on a
        config other than the context's, whose machine its profiles come
        from (the paper's offline methodology)."""
        return self._get(eval_cell(
            self, _name(workload), policy, seed, policy_args=policy_args,
            config=config, lookahead=lookahead,
        ))

    def cloud_run(self, workload, policy: str, seed: int):
        """One cloud co-run.

        ``workload`` is a cloud mix name or :class:`CloudMix`; returns a
        :class:`~repro.experiments.cloud.CloudResult`.
        """
        return self._get(cloud_cell(self, _name(workload), policy, seed))

    def outcome(self, workload: str | Mix, policy: str) -> PolicyOutcome:
        """Seed-averaged metrics for one (workload, policy) cell."""
        mix = workload_by_name(workload) if isinstance(workload, str) else workload
        speedups: list[float] = []
        unfairs: list[float] = []
        lats: list[float] = []
        core_lats = [0.0] * mix.num_cores
        core_ipcs = [0.0] * mix.num_cores
        for seed in self.seeds:
            r = self.run(mix, policy, seed)
            single = self.single_ipcs(mix, seed)
            speedups.append(smt_speedup(r.ipcs(), single))
            unfairs.append(unfairness(r.ipcs(), single))
            lats.append(r.avg_read_latency())
            for i, c in enumerate(r.per_core):
                core_lats[i] += c.avg_read_latency / len(self.seeds)
                core_ipcs[i] += c.ipc / len(self.seeds)
        return PolicyOutcome(
            workload=mix.name,
            policy=policy.upper(),
            smt_speedup=mean(speedups),
            unfairness=mean(unfairs),
            avg_read_latency=mean(lats),
            per_core_latency=tuple(core_lats),
            per_core_ipc=tuple(core_ipcs),
        )
