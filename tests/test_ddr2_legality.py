"""The DDR2 legality checker (``tests/ddr2.py``) judges the running
controller: every transaction of every golden configuration, plus one
machine with tRRD and tFAW enabled and one open-page machine, commits
with zero violations.  The checker's own tests feed it hand-built
transactions that break one rule each."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import SystemConfig
from repro.core.registry import make_policy
from repro.dram.address import DramCoord
from repro.dram.channel import TransactionTiming
from repro.dram.command import CommandLog
from repro.metrics.memory_efficiency import MeProfiler
from repro.sim.system import MultiCoreSystem
from repro.workloads import workload_by_name
from repro.workloads.synthetic import make_trace
from tests.ddr2 import Ddr2Checker
from tests.machine import controller_config, record_transactions, timing_config

#: the golden files' configuration (tests/test_golden_stats.py)
MIX, SEED, BUDGET, WARMUP = "4MEM-1", 7, 2500, 2000
#: the write-back golden: a 128 KB L2 at a longer budget
WRITEBACK_BUDGET, WRITEBACK_L2_BYTES = 6000, 128 * 1024


def checked_run(policy: str, config: SystemConfig | None = None,
                budget: int = BUDGET) -> Ddr2Checker:
    """One golden-configuration run of ``policy`` under the checker."""
    mix = workload_by_name(MIX)
    cfg = config or SystemConfig().with_cores(mix.num_cores)
    me = None
    if make_policy(policy, me_values=[1.0] * mix.num_cores).reads_me:
        me = MeProfiler(inst_budget=2000, seed=SEED).me_values(mix)
    traces = [make_trace(app, SEED, "eval", core_id=i)
              for i, app in enumerate(mix.apps())]
    system = MultiCoreSystem(cfg, make_policy(policy, me_values=me), traces,
                             budget, warmup_insts=WARMUP, seed=SEED)
    checker = Ddr2Checker(cfg.dram_timing).attach(system.dram)
    system.run()
    assert checker.transactions == system.dram.total_transactions
    system.close()
    return checker


def base() -> SystemConfig:
    return SystemConfig().with_cores(workload_by_name(MIX).num_cores)


class TestGoldenConfigurations:
    @pytest.mark.parametrize(
        "policy", ["HF-RF", "ME-LREQ", "RR", "LREQ", "BLISS", "CADS"])
    def test_no_violations(self, policy):
        checker = checked_run(policy)
        assert checker.transactions > 1000
        assert checker.violations == []

    def test_write_back_machine(self):
        cfg = base()
        l2 = replace(cfg.caches.l2, size_bytes=WRITEBACK_L2_BYTES)
        cfg = replace(cfg, caches=replace(cfg.caches, l2=l2))
        checker = checked_run("HF-RF", cfg, WRITEBACK_BUDGET)
        assert checker.violations == []

    def test_trrd_tfaw_machine(self):
        checker = checked_run("HF-RF", timing_config(base(), t_rrd=24,
                                                     t_faw=120))
        assert checker.violations == []

    def test_open_page_machine(self):
        checker = checked_run("HF-RF", controller_config(base(),
                                                         page_policy="open"))
        assert checker.violations == []


T = SystemConfig().dram_timing  # tRCD 40, CL 40, tBurst 16, tRP 40, tWR 48


def timing(cas, *, hit=False, conflict=False, data_start=None):
    start = cas + T.t_cl if data_start is None else data_start
    return TransactionTiming(cas_cycle=cas, data_start=start,
                             data_end=start + T.t_burst, row_hit=hit,
                             start_cycle=0, conflict=conflict)


class TestChecker:
    """Each rule, broken once by a hand-built transaction."""

    def feed(self, *transactions):
        checker = Ddr2Checker(T)
        for row, t, keep_open in transactions:
            checker(DramCoord(0, 0, row, 0), t, False, keep_open,
                    t.conflict)
        return checker.violations

    def test_legal_stream_passes(self):
        first = timing(T.t_rcd)
        hit = timing(first.data_end, hit=True)
        again = timing(hit.data_end + T.t_rp + T.t_rcd)
        assert self.feed((5, first, True), (5, hit, False),
                         (6, again, False)) == []

    def test_missing_trcd(self):
        (v,) = self.feed((5, timing(0), False))
        assert "tRCD" in v

    def test_short_cl_and_burst(self):
        t = TransactionTiming(cas_cycle=40, data_start=79, data_end=100,
                              row_hit=False)
        assert len(self.feed((5, t, False))) == 2

    def test_hit_on_a_closed_bank(self):
        first = timing(T.t_rcd)
        late = first.data_end + T.t_rp + T.t_rcd
        violations = self.feed((5, first, False), (5, timing(late, hit=True),
                                                   False))
        assert any("row_hit=True" in v for v in violations)

    def test_closed_bank_reused_before_precharge(self):
        first = timing(T.t_rcd)
        early = first.data_end + T.t_rcd  # no tRP after auto-precharge
        violations = self.feed((5, first, False), (6, timing(early), False))
        assert any("tRCD" in v for v in violations)

    def test_conflict_skips_precharge(self):
        first = timing(T.t_rcd)
        early = first.data_end + T.t_rcd  # ACT without the PRE's tRP
        violations = self.feed((5, first, True),
                               (6, timing(early, conflict=True), False))
        assert len(violations) == 1 and "tRCD" in violations[0]

    def test_overlapping_bursts(self):
        checker = Ddr2Checker(T)
        checker(DramCoord(0, 0, 5, 0), timing(T.t_rcd), False, True, False)
        checker(DramCoord(0, 1, 5, 0), timing(T.t_rcd + 1), False, True,
                False)
        assert len(checker.violations) == 1
        assert "overlaps" in checker.violations[0]

    def test_trrd(self):
        cfg = replace(T, t_rrd=24)
        checker = Ddr2Checker(cfg)
        checker(DramCoord(0, 0, 5, 0), timing(T.t_rcd), False, True, False)
        checker(DramCoord(0, 1, 5, 0),
                timing(T.t_rcd + 10, data_start=T.t_rcd + T.t_cl + 16),
                False, True, False)
        assert len(checker.violations) == 1
        assert "tRCD" in checker.violations[0]


class TestObserverList:
    """``dram.observers`` calls its subscribers in attach order, and
    subscribers attached together see what each sees alone."""

    @staticmethod
    def observed_run(*attach):
        """One golden-configuration run of HF-RF with each of ``attach``
        (``fn(system) -> subscriber``) subscribed, in order; returns the
        subscribers and the machine's committed-transaction count."""
        mix = workload_by_name(MIX)
        cfg = SystemConfig().with_cores(mix.num_cores)
        traces = [make_trace(app, SEED, "eval", core_id=i)
                  for i, app in enumerate(mix.apps())]
        system = MultiCoreSystem(cfg, make_policy("HF-RF"), traces, BUDGET,
                                 warmup_insts=WARMUP, seed=SEED)
        subscribers = [fn(system) for fn in attach]
        system.run()
        total = system.dram.total_transactions
        system.close()
        assert system.dram.observers == []
        return subscribers, total

    def test_log_and_checker_together_see_what_each_sees_alone(self):
        order = []

        def log(system):
            return CommandLog(system.config.dram_timing).attach(system.dram)

        def checker(system):
            return Ddr2Checker(system.config.dram_timing).attach(system.dram)

        def recorder(system):
            seen = record_transactions(system.dram)
            for tag in "abc":
                system.dram.observers.append(
                    lambda *_, tag=tag: order.append(tag))
            return seen

        (alone_log,), total = self.observed_run(log)
        (alone_checker,), _ = self.observed_run(checker)
        (both_log, both_checker, seen), both_total = self.observed_run(
            log, checker, recorder)
        assert total == both_total == len(seen) > 1000
        assert order == list("abc") * total
        assert both_log.commands == alone_log.commands
        assert both_checker.transactions == alone_checker.transactions == total
        assert both_checker.violations == alone_checker.violations == []
