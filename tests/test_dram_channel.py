"""Tests for the logic-channel timing model (banks + shared data bus)."""

import pytest

from repro.config import DramTimingConfig
from repro.dram.channel import Channel

T = DramTimingConfig()  # 40/40/40, burst 16, tWR 48


def make_channel(banks=4):
    return Channel(0, banks, T)


class TestSingleTransaction:
    def test_closed_bank_timing(self):
        ch = make_channel()
        t = ch.execute(0, row=5, now=100, is_write=False, keep_open=False)
        assert not t.row_hit
        assert t.cas_cycle == 100 + T.t_rcd
        assert t.data_start == t.cas_cycle + T.t_cl
        assert t.data_end == t.data_start + T.t_burst
        # total: 40 + 40 + 16 = 96 cycles
        assert t.data_end - 100 == 96

    def test_row_hit_timing(self):
        ch = make_channel()
        first = ch.execute(0, row=5, now=0, is_write=False, keep_open=True)
        t = ch.execute(0, row=5, now=first.data_end, is_write=False, keep_open=True)
        assert t.row_hit
        # hit skips ACT: CAS at bank-ready
        assert t.cas_cycle == first.data_end
        assert t.data_end - t.cas_cycle == T.t_cl + T.t_burst

    def test_open_row_conflict_pays_precharge(self):
        ch = make_channel()
        first = ch.execute(0, row=5, now=0, is_write=False, keep_open=True)
        t = ch.execute(0, row=9, now=first.data_end, is_write=False, keep_open=False)
        assert not t.row_hit
        assert t.cas_cycle == first.data_end + T.t_rp + T.t_rcd


class TestBusSerialisation:
    def test_bursts_never_overlap(self):
        ch = make_channel(banks=8)
        windows = []
        now = 0
        for bank in range(8):
            t = ch.execute(bank, row=1, now=now, is_write=False, keep_open=False)
            windows.append((t.data_start, t.data_end))
            now += 1  # near-simultaneous commits
        windows.sort()
        for (s1, e1), (s2, e2) in zip(windows, windows[1:]):
            assert s2 >= e1, "data bursts overlapped on the shared bus"

    def test_bank_prep_overlaps_bus(self):
        # two transactions on different banks: the second's ACT overlaps the
        # first's CAS/burst, so its data follows back-to-back
        ch = make_channel()
        t1 = ch.execute(0, row=1, now=0, is_write=False, keep_open=False)
        t2 = ch.execute(1, row=1, now=16, is_write=False, keep_open=False)
        assert t2.data_start == t1.data_end  # seamless on the bus

    def test_same_bank_serialises_on_bank(self):
        ch = make_channel()
        t1 = ch.execute(0, row=1, now=0, is_write=False, keep_open=False)
        t2 = ch.execute(0, row=2, now=1, is_write=False, keep_open=False)
        # bank 0 not ready until data_end + tRP
        assert t2.cas_cycle >= t1.data_end + T.t_rp


class TestPacing:
    def test_one_decision_per_burst_slot(self):
        ch = make_channel()
        ch.execute(0, row=1, now=100, is_write=False, keep_open=False)
        assert ch.busy_until == 100 + T.t_burst

    def test_idle_channel_issues_immediately(self):
        ch = make_channel()
        assert ch.busy_until <= 500


class TestStatsAndReset:
    def test_counters(self):
        ch = make_channel()
        ch.execute(0, row=1, now=0, is_write=False, keep_open=True)
        t = ch.execute(0, row=1, now=200, is_write=False, keep_open=True)
        assert t.row_hit
        assert ch.transactions == 2
        assert ch.total_row_hits == 1
        assert ch.total_activations == 1

    def test_reset(self):
        ch = make_channel()
        ch.execute(0, row=1, now=0, is_write=False, keep_open=True)
        ch.reset()
        assert ch.transactions == 0
        assert ch.bus_free_cycle == 0
        assert ch.busy_until == 0
        assert not ch.is_row_hit(0, 1)

    def test_needs_at_least_one_bank(self):
        with pytest.raises(ValueError):
            Channel(0, 0, T)


class TestActivateRateConstraints:
    """Optional tRRD / tFAW enforcement (disabled in the paper baseline)."""

    def test_trrd_spaces_activates(self):
        from dataclasses import replace

        t = replace(T, t_rrd=24)
        ch = Channel(0, 8, t)
        t1 = ch.execute(0, row=1, now=0, is_write=False, keep_open=False)
        t2 = ch.execute(1, row=1, now=0, is_write=False, keep_open=False)
        act1 = t1.cas_cycle - t.t_rcd
        act2 = t2.cas_cycle - t.t_rcd
        assert act2 - act1 >= 24

    def test_tfaw_caps_four_activate_window(self):
        from dataclasses import replace

        t = replace(T, t_faw=120)
        ch = Channel(0, 8, t)
        acts = []
        for bank in range(5):
            tr = ch.execute(bank, row=1, now=0, is_write=False, keep_open=False)
            acts.append(tr.cas_cycle - t.t_rcd)
        # the 5th ACT must fall outside the window opened by the 1st
        assert acts[4] - acts[0] >= 120

    def test_disabled_by_default(self):
        ch = Channel(0, 8, T)
        t1 = ch.execute(0, row=1, now=0, is_write=False, keep_open=False)
        t2 = ch.execute(1, row=1, now=0, is_write=False, keep_open=False)
        # without constraints both ACTs may issue at cycle 0
        assert t1.cas_cycle == t2.cas_cycle

    def test_hits_do_not_consume_act_budget(self):
        from dataclasses import replace

        t = replace(T, t_faw=120)
        ch = Channel(0, 8, t)
        ch.execute(0, row=1, now=0, is_write=False, keep_open=True)
        # row hits: no ACT, so the window never fills
        for i in range(6):
            tr = ch.execute(0, row=1, now=200 * (i + 1), is_write=False, keep_open=True)
            assert tr.row_hit
        assert len(ch._act_times) == 1

    def test_running_controller_enforces_trrd_and_tfaw(self):
        """The controller runs its own inlined copy of Channel.execute;
        judge the ACT stream of a real run against tRRD and tFAW."""
        from dataclasses import replace

        from repro import Telemetry, run_multicore, workload_by_name
        from repro.config import SystemConfig

        cfg = SystemConfig()
        constrained = replace(cfg, dram_timing=replace(
            cfg.dram_timing, t_rrd=24, t_faw=120))
        mix = workload_by_name("4MEM-1")
        tm = Telemetry(capture_commands=True)
        slow = run_multicore(mix, "HF-RF", inst_budget=2000, seed=1,
                             config=constrained, telemetry=tm)
        base = run_multicore(mix, "HF-RF", inst_budget=2000, seed=1)
        acts: dict[str, list[int]] = {}
        for e in tm.bus.named("cmd"):
            if e.args["op"] == "ACT":
                acts.setdefault(e.track, []).append(e.cycle)
        assert sum(map(len, acts.values())) > 1000
        for channel, cycles in acts.items():
            cycles.sort()
            rrd = [b - a for a, b in zip(cycles, cycles[1:]) if b - a < 24]
            faw = [b - a for a, b in zip(cycles, cycles[4:]) if b - a < 120]
            assert rrd == [] and faw == [], channel
        assert slow.end_cycle > base.end_cycle
