"""Tests for the controller-level policy precedence rules.

Covers the paper's layering: global hit-first above core selection, the
bank-readiness eligibility rule, and the interplay with write drains —
behaviours that live in the controller rather than any single policy.
"""

from repro.config import SystemConfig
from repro.core import make_policy
from tests.machine import controller_config, make_controller, read, write

CFG = SystemConfig(num_cores=4)


def controller(policy_name, me_values=None, config=CFG):
    if me_values is not None:
        policy = make_policy(policy_name, me_values=me_values)
    else:
        policy = make_policy(policy_name)
    return make_controller(policy, config.num_cores, config=config, seed=3)


class TestGlobalHitFirst:
    def test_hit_beats_core_priority(self):
        # core 0 opens a row (a, with b queued behind it keeping the row
        # open); core 3 has absolute fixed-ME priority, but b is a row hit
        # and must still go first (Section 4.1 command rule)
        engine, dram, ctrl = controller(
            "ME", me_values=[1.0, 1.0, 1.0, 1000.0]
        )
        a = read(0, core=0)
        b = read(32 * 64, core=0)  # same bank/row as a: queued hit
        ctrl.enqueue(a, 0)
        ctrl.enqueue(b, 0)
        # same bank, different row: directly competes with b for the bank.
        # It arrives at cycle 1, after a committed at the cycle-0 point
        # (opening the row for b): the controller hides it until then.
        c = read(4096 * 64, core=3)
        ctrl.enqueue(c, 1)
        engine.run()
        assert a.issue_cycle == 0
        assert b.row_hit
        assert b.issue_cycle < c.issue_cycle

    def test_fcfs_ignores_hits(self):
        engine, dram, ctrl = controller("FCFS")
        a = read(0, core=0)
        b = read(32 * 64, core=0)  # would be a hit after a
        c = read(4096 * 64, core=1)  # same bank as a, different row - miss
        ctrl.enqueue(a, 0)
        ctrl.enqueue(c, 0)
        ctrl.enqueue(b, 0)
        engine.run()
        # arrival order: a, c, b regardless of b's row hit
        assert a.issue_cycle < c.issue_cycle < b.issue_cycle


class TestDrainInteraction:
    def test_drain_mode_serves_writes_even_with_reads(self):
        cfg = controller_config(
            CFG, buffer_entries=8, write_drain_high=3, write_drain_low=1
        )
        engine, dram, ctrl = controller("HF-RF", config=cfg)
        writes = [write(i * 128, core=0) for i in range(3)]
        r = read(64 * 7, core=1)
        for w in writes:
            ctrl.enqueue(w, 0)
        assert ctrl.drain_mode
        ctrl.enqueue(r, 0)
        engine.run()
        # at least one write beat the read to its channel (drain priority)
        same_channel_writes = [
            w for w in writes if w.coord.channel == r.coord.channel
        ]
        if same_channel_writes:
            assert min(w.issue_cycle for w in same_channel_writes) < r.issue_cycle
        assert not ctrl.drain_mode  # drained below the low watermark


class TestBankReadiness:
    def test_scheduler_rearms_for_busy_banks(self):
        engine, dram, ctrl = controller("HF-RF")
        # saturate one bank with back-to-back rows
        reqs = [read(i * 4096 * 64, core=0) for i in range(4)]  # same bank
        for r in reqs:
            ctrl.enqueue(r, 0)
        engine.run()
        assert all(r.done_cycle > 0 for r in reqs)
        # service strictly serialised on the bank
        issues = sorted(r.issue_cycle for r in reqs)
        assert all(b - a >= 96 for a, b in zip(issues, issues[1:]))


class TestRandomTieBreakDeterminism:
    def test_same_seed_same_schedule(self):
        outcomes = []
        for _ in range(2):
            engine, dram, ctrl = controller("LREQ")
            reqs = [read(i * 256, core=i % 4) for i in range(12)]
            for r in reqs:
                ctrl.enqueue(r, 0)
            engine.run()
            outcomes.append(tuple(r.issue_cycle for r in reqs))
        assert outcomes[0] == outcomes[1]
