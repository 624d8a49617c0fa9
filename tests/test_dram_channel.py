"""Tests for the logic-channel timing model (banks + shared data bus).

The controller's scheduling point resolves each transaction's timing
against the channel's bank arrays and reports it to ``dram.observers``.
Each test enqueues its requests at the cycles it names and reads those
reports back (``tests/machine.py``'s :class:`DramRig`); a row a test keeps
open is kept by the open-page policy or by a queued request to it.
"""

import pytest

from repro.config import DramTimingConfig, SystemConfig
from repro.dram.channel import Channel
from tests.machine import DramRig, timing_config

T = DramTimingConfig()  # 40/40/40, burst 16, tWR 48


class TestSingleTransaction:
    def test_closed_bank_timing(self):
        t = DramRig().issue(0, 5, 100)
        assert not t.row_hit
        assert t.cas_cycle == 100 + T.t_rcd
        assert t.data_start == t.cas_cycle + T.t_cl
        assert t.data_end == t.data_start + T.t_burst
        # total: 40 + 40 + 16 = 96 cycles
        assert t.data_end - 100 == 96

    def test_row_hit_timing(self):
        rig = DramRig(page_policy="open")
        first = rig.issue(0, 5, 0)
        t = rig.issue(0, 5, first.data_end)
        assert t.row_hit
        # hit skips ACT: CAS at bank-ready
        assert t.cas_cycle == first.data_end
        assert t.data_end - t.cas_cycle == T.t_cl + T.t_burst

    def test_open_row_conflict_pays_precharge(self):
        rig = DramRig(page_policy="open")
        first = rig.issue(0, 5, 0)
        t = rig.issue(0, 9, first.data_end)
        assert not t.row_hit
        assert t.conflict
        assert t.cas_cycle == first.data_end + T.t_rp + T.t_rcd


class TestBusSerialisation:
    def test_bursts_never_overlap(self):
        rig = DramRig()
        for bank in range(8):
            rig.post(bank, 1, bank)  # near-simultaneous arrivals
        windows = sorted((t.data_start, t.data_end) for t in rig.run())
        assert len(windows) == 8
        for (s1, e1), (s2, e2) in zip(windows, windows[1:]):
            assert s2 >= e1, "data bursts overlapped on the shared bus"

    def test_bank_prep_overlaps_bus(self):
        # two transactions on different banks: the second's ACT overlaps the
        # first's CAS/burst, so its data follows back-to-back
        rig = DramRig()
        rig.post(0, 1, 0)
        rig.post(1, 1, 16)
        t1, t2 = rig.run()
        assert t2.data_start == t1.data_end  # seamless on the bus

    def test_same_bank_serialises_on_bank(self):
        rig = DramRig()
        rig.post(0, 1, 0)
        rig.post(0, 2, 1)
        t1, t2 = rig.run()
        # bank 0 not ready until data_end + tRP
        assert t2.cas_cycle >= t1.data_end + T.t_rp


class TestPacing:
    def test_one_decision_per_burst_slot(self):
        rig = DramRig()
        rig.issue(0, 1, 100)
        assert rig.dram.channels[0].busy_until == 100 + T.t_burst

    def test_idle_channel_issues_immediately(self):
        rig = DramRig()
        assert rig.dram.channels[0].busy_until <= 500
        assert rig.issue(0, 1, 500).start_cycle == 500


class TestStatsAndReset:
    def test_counters(self):
        rig = DramRig(page_policy="open")
        rig.issue(0, 1, 0)
        t = rig.issue(0, 1, 200)
        ch = rig.dram.channels[0]
        assert t.row_hit
        assert ch.transactions == 2
        assert ch.total_row_hits == 1
        assert ch.total_activations == 1

    def test_needs_at_least_one_bank(self):
        with pytest.raises(ValueError):
            Channel(0, 0)


def constrained(**timing):
    return DramRig(timing_config(SystemConfig(num_cores=1), **timing))


class TestActivateRateConstraints:
    """Optional tRRD / tFAW enforcement (disabled in the paper baseline)."""

    def test_trrd_spaces_activates(self):
        rig = constrained(t_rrd=24)
        rig.post(0, 1, 0)
        rig.post(1, 1, 0)
        t1, t2 = rig.run()
        act1 = t1.cas_cycle - T.t_rcd
        act2 = t2.cas_cycle - T.t_rcd
        assert act2 - act1 >= 24

    def test_tfaw_caps_four_activate_window(self):
        rig = constrained(t_faw=120)
        for bank in range(5):
            rig.post(bank, 1, 0)
        acts = [t.cas_cycle - T.t_rcd for t in rig.run()]
        # the 5th ACT must fall outside the window opened by the 1st
        assert acts[4] - acts[0] >= 120

    def test_disabled_by_default(self):
        rig = DramRig()
        rig.post(0, 1, 0)
        rig.post(1, 1, 0)
        # without constraints each ACT issues the moment its scheduling
        # point starts the bank: nothing pushes it back
        for t in rig.run():
            assert t.cas_cycle == t.start_cycle + T.t_rcd

    def test_hits_do_not_consume_act_budget(self):
        rig = DramRig(
            timing_config(SystemConfig(num_cores=1), t_faw=120),
            page_policy="open",
        )
        rig.post(0, 1, 0)
        # row hits: no ACT, so the window never fills
        for i in range(6):
            rig.post(0, 1, 200 * (i + 1))
        first, *hits = rig.run()
        assert not first.row_hit
        assert len(hits) == 6 and all(t.row_hit for t in hits)
        assert len(rig.dram.channels[0]._act_times) == 1

    def test_running_controller_enforces_trrd_and_tfaw(self):
        """Judge the ACT stream of a real run against tRRD and tFAW."""
        from dataclasses import replace

        from repro import Telemetry, run_multicore, workload_by_name

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
