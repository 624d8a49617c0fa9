"""Arena harness: registry coverage, canonical ordering, byte stability.

The arena's contract is the same as every other harness in this repo:
the rendered table is a pure function of the cell set, byte-identical
across serial and ``--jobs N`` execution.  These tests run a tiny
one-mix arena once serially and once through the parallel planner and
compare the *strings*.
"""

from __future__ import annotations

import pytest

from repro.core.registry import registered_policies
from repro.experiments import ExperimentContext, format_arena, run_arena
from repro.experiments.arena import (
    ARENA_MIX_SETS,
    FIX_LABEL,
    arena_cells,
    arena_policies,
    concrete_policy,
)
from repro.experiments.parallel import merge_into, plan_cells, run_cells
from repro.workloads.mixes import workload_by_name

MIXES = ("2MEM-1",)
BUDGET = 1500
PROFILE_BUDGET = 1000
SEEDS = (1,)


def small_ctx() -> ExperimentContext:
    return ExperimentContext(
        inst_budget=BUDGET, seeds=SEEDS, profile_budget=PROFILE_BUDGET
    )


@pytest.fixture(scope="module")
def serial_rows():
    return run_arena(small_ctx(), mixes=MIXES)


class TestCoverage:
    def test_every_registered_policy_has_a_row(self, serial_rows):
        names = {r.policy for r in serial_rows}
        for policy in registered_policies():
            assert policy in names
        assert FIX_LABEL in names

    def test_rows_ranked_canonically(self, serial_rows):
        key = [(-r.weighted_speedup, r.policy) for r in serial_rows]
        assert key == sorted(key)

    def test_rows_carry_complexity_and_fingerprint(self, serial_rows):
        by_name = {r.policy: r for r in serial_rows}
        assert by_name["ME-LREQ"].table_bits == 2 * 64 * 10
        assert by_name["HF-RF"].state_bytes == 0.0
        assert all(len(r.fingerprint) == 12 for r in serial_rows)

    def test_mix_sets_resolve(self):
        assert ARENA_MIX_SETS["smoke"] == ("2MEM-1", "2MIX-1")
        assert len(ARENA_MIX_SETS["full"]) == 36

    def test_fix_label_resolves_to_descending_order(self):
        assert concrete_policy(FIX_LABEL, workload_by_name("2MEM-1")) == "FIX-10"
        assert concrete_policy(FIX_LABEL, workload_by_name("4MEM-1")) == "FIX-3210"
        assert concrete_policy("bliss", workload_by_name("4MEM-1")) == "BLISS"


class TestByteStability:
    def test_parallel_prewarm_is_byte_identical(self, serial_rows):
        serial_table = format_arena(serial_rows, MIXES)

        ctx = small_ctx()
        cells = plan_cells(ctx, arena=(MIXES, None))
        # Every (mix, policy, seed) eval cell plus the mix's single-core
        # baselines must be planned.
        evals = [c for c in cells if c.key.kind == "eval"]
        assert len(evals) == len(arena_policies()) * len(MIXES) * len(SEEDS)
        report = run_cells(cells, jobs=2)
        assert not report.failures, report.failure_report()
        merge_into(ctx, report)
        parallel_table = format_arena(run_arena(ctx, mixes=MIXES), MIXES)

        assert parallel_table == serial_table

    def test_restricted_field_plans_fewer_cells(self):
        ctx = small_ctx()
        pols = ("HF-RF", "BLISS")
        cells = plan_cells(ctx, arena=(MIXES, pols))
        evals = [c for c in cells if c.key.kind == "eval"]
        assert {c.key.policy for c in evals} == set(pols)

    def test_arena_cells_resolve_fix_per_mix(self):
        pairs = arena_cells(("2MEM-1", "4MEM-1"), (FIX_LABEL,))
        assert pairs == [("2MEM-1", "FIX-10"), ("4MEM-1", "FIX-3210")]


class TestPerMixDrillDown:
    """``repro arena --per-mix`` reuses the aggregate arena's cells and
    must obey the same byte-stability contract."""

    MIXES = ("2MEM-1", "2MIX-1")

    @pytest.fixture(scope="class")
    def per_mix_rows(self):
        from repro.experiments import run_arena_per_mix

        return run_arena_per_mix(small_ctx(), mixes=self.MIXES)

    def test_rows_grouped_and_ranked_within_mix(self, per_mix_rows):
        from repro.experiments.arena import arena_policies

        mixes_seen = [r.mix for r in per_mix_rows]
        # grouped: each mix's rows are contiguous, in requested order
        order = list(dict.fromkeys(mixes_seen))
        assert order == list(self.MIXES)
        for mix in self.MIXES:
            block = [r for r in per_mix_rows if r.mix == mix]
            assert len(block) == len(arena_policies())
            key = [(-r.smt_speedup, r.policy) for r in block]
            assert key == sorted(key)

    def test_fingerprints_are_per_mix(self, per_mix_rows):
        seen = {}
        for r in per_mix_rows:
            # the same policy must not carry the same fingerprint on two
            # different mixes (the digest covers the mix's own runs)
            assert seen.setdefault((r.policy, r.fingerprint), r.mix) == r.mix

    def test_parallel_prewarm_is_byte_identical(self, per_mix_rows):
        from repro.experiments import format_arena_per_mix, run_arena_per_mix

        serial_table = format_arena_per_mix(per_mix_rows)
        assert "drill-down" in serial_table

        ctx = small_ctx()
        cells = plan_cells(ctx, arena=(self.MIXES, None))
        report = run_cells(cells, jobs=2)
        assert not report.failures, report.failure_report()
        merge_into(ctx, report)
        parallel_table = format_arena_per_mix(
            run_arena_per_mix(ctx, mixes=self.MIXES)
        )

        assert parallel_table == serial_table


class TestAnatomy:
    """``repro arena --anatomy``: capture runs of the arena's own eval
    cells, appended after the ranking table."""

    POLICIES = ("HF-RF", "ME-LREQ")

    def test_one_attribution_row_per_core_under_each_policy(self):
        from repro.experiments import arena_anatomy

        text = arena_anatomy(small_ctx(), mixes=MIXES,
                             policies=self.POLICIES)
        assert text.startswith("== latency anatomy (2MEM-1, seed 1) ==")
        blocks = text.split("\n-- ")[1:]
        assert [b.split(" --")[0] for b in blocks] == list(self.POLICIES)
        for block in blocks:
            rows = [line.split()[0] for line in block.splitlines()[3:]]
            assert rows == ["0", "1"]

    def test_cli_appends_anatomy_after_the_unchanged_table(self, capsys):
        from repro.cli import main

        argv = ["arena", "--mixes", *MIXES, "--policies", *self.POLICIES,
                "--budget", str(BUDGET)]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main([*argv, "--anatomy"]) == 0
        full = capsys.readouterr().out
        assert full.startswith(plain)
        assert full[len(plain):].startswith("\n== latency anatomy")
