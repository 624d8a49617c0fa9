"""Tests for the experiment harnesses at small budgets.

They verify the harness plumbing (caching, aggregation, formatting) and
the paper's qualitative claims that hold at this scale: Table 2's rank
agreement and class split, Figure 3's erratic fixed orders, Figure 4's
even HF-RF latencies, Figure 5's fairer ME-LREQ, the ablations' small
effects, and plausible Figure 2 speedups on 2- and 8-core mixes.  A claim
that needs a larger budget gets its own context at that budget.
EXPERIMENTS.md records the results at full scale; `repro figure` and
`repro table2` regenerate them.
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
from repro.experiments.figure2 import (
    POLICIES,
    Figure2Row,
    average_gains,
    format_figure2,
)
from repro.experiments.figure3 import format_figure3, spread
from repro.experiments.figure4 import PER_CORE_WORKLOADS, format_figure4
from repro.experiments.figure5 import format_figure5
from repro.experiments.harness import mean
from repro.experiments.table2 import format_table2, rank_correlation
from repro.workloads.mixes import workload_by_name


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(
        inst_budget=2_000, warmup_insts=8_000, seeds=(7,), profile_budget=2_000
    )


def _assert_plausible_speedups(rows, cores):
    """Every row races the five Figure 2 policies, each to a speedup in
    (0, 1.5 x cores]."""
    for r in rows:
        assert set(r.outcomes) == set(POLICIES)
        for p in POLICIES:
            assert 0 < r.speedup(p) <= cores * 1.5


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
        for group in ("MEM", "MIX"):
            rows = run_figure2(ctx, core_counts=(2,), groups=(group,))
            assert len(rows) == 6
            _assert_plausible_speedups(rows, 2)
            assert (2, group, "ME-LREQ") in average_gains(rows)

    def test_figure2_eight_core_mix(self, ctx):
        row = Figure2Row("8MEM-1", 8, "MEM",
                         {p: ctx.outcome("8MEM-1", p) for p in POLICIES})
        _assert_plausible_speedups([row], 8)

    def test_figure3_runs(self, ctx):
        rows = run_figure3(ctx, groups=("MEM",))
        assert len(rows) == 6
        assert "FIX-3210" in format_figure3(rows)
        assert all(r.speedup(p) > 0 for r in rows for p in r.outcomes)
        # arbitrary fixed orders are erratic: the wider FIX range (best
        # minus worst gain over the workloads) is at least half of ME's
        fix_range = max(best - worst for best, worst in
                        (spread(rows, p) for p in ("FIX-3210", "FIX-0123")))
        me_best, me_worst = spread(rows, "ME")
        assert fix_range >= (me_best - me_worst) * 0.5

    def test_figure4_runs(self, ctx):
        res = run_figure4(ctx, policies=("HF-RF", "RR"))
        assert set(res.right) == {"4MEM-1", "4MEM-5"}
        assert res.avg_latency("HF-RF") > 0
        assert res.latency_spread("4MEM-1", "RR") >= 1.0
        assert "Figure 4" in format_figure4(res)
        for by_policy in res.left.values():
            assert all(o.avg_read_latency > 50 for o in by_policy.values())
        for wl in res.right:  # HF-RF serves the cores nearly evenly
            assert res.latency_spread(wl, "HF-RF") < 2.0

    def test_figure4_me_spreads_cores_like_hf_rf_or_more(self):
        # a fixed ME order starves its lowest-priority core; at the module
        # budget 4MEM-1 does not show it yet (1.503 vs HF-RF's 1.898)
        ctx = ExperimentContext(inst_budget=8_000, seeds=(1,),
                                profile_budget=4_000)
        for wl in PER_CORE_WORKLOADS:
            spreads = {}
            for p in ("HF-RF", "ME"):
                lats = ctx.outcome(wl, p).per_core_latency
                spreads[p] = max(lats) / min(lats)
            assert spreads["ME"] >= spreads["HF-RF"] * 0.8, (wl, spreads)

    def test_figure5_runs(self, ctx):
        res = run_figure5(ctx, policies=("HF-RF", "RR", "ME", "ME-LREQ"))
        assert res.avg_unfairness("HF-RF") >= 1.0
        assert "unfairness" in format_figure5(res)
        # reduction vs itself is zero
        assert res.reduction_vs("RR", "RR") == pytest.approx(0.0)
        for by_policy in res.cells.values():
            assert all(o.unfairness >= 1.0 for o in by_policy.values())
        # the dynamic ME-LREQ is fairer than the fixed ME order
        assert res.avg_unfairness("ME-LREQ") <= res.avg_unfairness("ME") * 1.05


class TestTable2:
    def test_runs_all_apps(self, ctx):
        rows = run_table2(ctx)
        assert len(rows) == 26
        assert {r.klass for r in rows} == {"MEM", "ILP"}
        text = format_table2(rows)
        assert "swim" in text and "Spearman" in text
        # strong rank agreement with the published ME values
        assert rank_correlation(rows) > 0.8
        # the classes separate by median ME (facerec and apsi overlap in
        # the paper too, so not every MEM app ranks below every ILP app)
        mem = sorted(r.measured_me for r in rows if r.klass == "MEM")
        ilp = sorted(r.measured_me for r in rows if r.klass == "ILP")
        assert mem[len(mem) // 2] < ilp[len(ilp) // 2]

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
        assert all(v > 0 for v in res.values())

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

    # The remaining ablations run on their defaults: 4MEM-1, every variant.

    def test_ten_bit_log_table_tracks_the_ideal_divider(self, ctx):
        from repro.experiments import ablation_table_bits

        res = ablation_table_bits(ctx)
        assert set(res) == {"ideal-divider", "10-bit log", "10-bit linear",
                            "6-bit log", "4-bit log"}
        ideal = res["ideal-divider"]
        assert abs(res["10-bit log"] - ideal) / ideal < 0.10

    def test_lookahead_is_a_fidelity_knob_not_a_result(self, ctx):
        from repro.experiments import ablation_lookahead

        vals = list(ablation_lookahead(ctx).values())
        assert max(vals) / min(vals) < 1.15

    def test_write_drain_watermarks(self, ctx):
        from repro.experiments import ablation_write_drain

        res = ablation_write_drain(ctx)
        assert len(res) == 4
        assert all(v > 0 for v in res.values())
