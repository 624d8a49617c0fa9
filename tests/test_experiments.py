"""Smoke tests for the experiment harnesses at tiny budgets.

These verify the harness plumbing (caching, aggregation, formatting), not
the scientific results — EXPERIMENTS.md and the benchmarks cover those.
"""

import pytest

from repro.experiments import (
    ExperimentContext,
    run_figure2,
    run_figure3,
    run_figure4,
    run_figure5,
    run_table2,
)
from repro.experiments.figure2 import average_gains, format_figure2
from repro.experiments.figure3 import format_figure3
from repro.experiments.figure4 import format_figure4
from repro.experiments.figure5 import format_figure5
from repro.experiments.harness import mean
from repro.experiments.table2 import format_table2, rank_correlation
from repro.workloads.mixes import workload_by_name


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(
        inst_budget=2_000, warmup_insts=8_000, seeds=(7,), profile_budget=2_000
    )


class TestHarness:
    def test_mean(self):
        assert mean([1.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            mean([])

    def test_run_caching(self, ctx):
        a = ctx.run("2MEM-1", "HF-RF", 7)
        b = ctx.run("2MEM-1", "HF-RF", 7)
        assert a is b  # cached object
        with pytest.raises(KeyError):
            ctx.run("9MEM-1", "HF-RF", 7)  # not a registered mix

    def test_profiler_caching(self, ctx):
        mix = workload_by_name("2MEM-1")
        assert ctx.me_values(mix, 7) == ctx.me_values(mix, 7)

    def test_outcome_fields(self, ctx):
        o = ctx.outcome("2MEM-1", "HF-RF")
        assert o.workload == "2MEM-1"
        assert o.policy == "HF-RF"
        assert o.smt_speedup > 0
        assert o.unfairness >= 1.0
        assert len(o.per_core_latency) == 2
        assert len(o.per_core_ipc) == 2

    def test_gain_over(self, ctx):
        a = ctx.outcome("2MEM-1", "HF-RF")
        assert a.gain_over(a) == 0.0

    def test_seeds_required(self):
        with pytest.raises(ValueError):
            ExperimentContext(seeds=())


class TestFigureHarnesses:
    def test_figure2_single_panel(self, ctx):
        rows = run_figure2(
            ctx, core_counts=(2,), groups=("MEM",), policies=("HF-RF", "RR")
        )
        assert len(rows) == 6
        gains = average_gains(rows, policies=("HF-RF", "RR"))
        assert (2, "MEM", "RR") in gains
        text = format_figure2(rows)
        assert "2MEM-1" in text

    def test_figure3_runs(self, ctx):
        rows = run_figure3(ctx, groups=("MEM",))
        assert len(rows) == 6
        assert "FIX-3210" in format_figure3(rows)

    def test_figure4_runs(self, ctx):
        res = run_figure4(ctx, policies=("HF-RF", "RR"))
        assert set(res.right) == {"4MEM-1", "4MEM-5"}
        assert res.avg_latency("HF-RF") > 0
        assert res.latency_spread("4MEM-1", "RR") >= 1.0
        assert "Figure 4" in format_figure4(res)

    def test_figure5_runs(self, ctx):
        res = run_figure5(ctx, policies=("HF-RF", "RR"))
        assert res.avg_unfairness("HF-RF") >= 1.0
        assert "unfairness" in format_figure5(res)
        # reduction vs itself is zero
        assert res.reduction_vs("RR", "RR") == pytest.approx(0.0)


class TestTable2:
    def test_runs_all_apps(self, ctx):
        rows = run_table2(ctx)
        assert len(rows) == 26
        assert {r.klass for r in rows} == {"MEM", "ILP"}
        text = format_table2(rows)
        assert "swim" in text and "Spearman" in text

    def test_rank_correlation_bounds(self, ctx):
        rows = run_table2(ctx)
        rho = rank_correlation(rows)
        assert -1.0 <= rho <= 1.0

    def test_rank_correlation_perfect(self):
        from repro.experiments.table2 import Table2Row

        rows = [
            Table2Row("a", "a", "MEM", float(i), float(i), 1.0, 1.0)
            for i in range(1, 6)
        ]
        assert rank_correlation(rows) == pytest.approx(1.0)

    def test_rank_correlation_inverted(self):
        from repro.experiments.table2 import Table2Row

        rows = [
            Table2Row("a", "a", "MEM", float(i), float(-i), 1.0, 1.0)
            for i in range(1, 6)
        ]
        assert rank_correlation(rows) == pytest.approx(-1.0)


class TestAblations:
    def test_page_policy_ablation(self, ctx):
        from repro.experiments import ablation_page_policy

        res = ablation_page_policy(ctx, workload="2MEM-1")
        assert set(res) == {"closed", "open"}

    def test_table_bits_ablation(self, ctx):
        from repro.experiments import ablation_table_bits

        res = ablation_table_bits(
            ctx,
            workload="2MEM-1",
            variants=(("ideal-divider", None, "log"), ("4-bit log", 4, "log")),
        )
        assert set(res) == {"ideal-divider", "4-bit log"}

    def test_lookahead_ablation(self, ctx):
        from repro.experiments import ablation_lookahead

        res = ablation_lookahead(ctx, workload="2MEM-1", lookaheads=(64, 256))
        assert set(res) == {64, 256}
