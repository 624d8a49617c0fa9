"""The contract between the scheduling point and the policies.

A policy whose ``select_read``/``select_write`` is
:class:`~repro.core.policy.SchedulingPolicy`'s own method names a kernel
rule, and the scheduling point runs that rule itself, with no Python call.
Wherever the method is anything else (an override, a wrap set on the class
before the build, a wrap set on the instance after it), the point calls it
at every decision with the candidates in queue order, as it always did.
Calling the base methods directly runs the same rule bodies.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.config import SystemConfig
from repro.controller.decision_log import DecisionLog
from repro.core import LeastRequestPolicy, make_policy
from repro.core.policy import SchedulingContext, SchedulingPolicy
from repro.sim.system import MultiCoreSystem
from repro.util.rng import RngStream
from repro.workloads.mixes import workload_by_name
from repro.workloads.synthetic import make_trace
from tests.machine import controller_config, make_controller, stage_read
from tests.test_golden_stats import _writeback_config

#: the policies whose reads and writes both follow a kernel rule
NATIVE = ("HF-RF", "FCFS", "RF", "ME", "FIX-10", "LREQ", "ME-LREQ", "RR")


def build(policy, *, mix="2MEM-1", config=None, budget=3000) -> MultiCoreSystem:
    mix = workload_by_name(mix)
    if isinstance(policy, str):
        policy = make_policy(policy, me_values=(3.0, 1.0, 2.0, 0.5)[:mix.num_cores])
    cfg = (config or SystemConfig()).with_cores(mix.num_cores)
    traces = [make_trace(a, 7, "eval", i) for i, a in enumerate(mix.apps())]
    return MultiCoreSystem(cfg, policy, traces, budget, warmup_insts=2000, seed=7)


def fingerprint(system: MultiCoreSystem) -> tuple:
    st = system.controller.stats
    return (
        system.engine.now,
        system.dram.total_transactions,
        system.dram.total_row_hits,
        [(c.committed, c.finish_cycle) for c in system.cores],
        list(st.read_count), list(st.read_latency_sum), list(st.write_count),
    )


def ran(system: MultiCoreSystem) -> MultiCoreSystem:
    system.run()
    return system


class TestPythonPath:
    @pytest.mark.parametrize("name", NATIVE)
    def test_a_decision_log_attached_after_the_build_sees_every_decision(
            self, name):
        plain = fingerprint(ran(build(name)))
        system = build(name)
        log = DecisionLog.attach(system.controller)
        system.run()
        assert len(log.decisions) == system.dram.total_transactions > 100
        assert fingerprint(system) == plain
        DecisionLog.detach(system.controller)
        assert "select_read" not in vars(system.controller.policy)
        assert "select_write" not in vars(system.controller.policy)

    @pytest.mark.parametrize("name", ("HF-RF", "FCFS", "RR", "ME-LREQ"))
    def test_class_wraps_installed_before_the_build_see_every_decision(
            self, name, monkeypatch):
        plain = fingerprint(ran(build(name, mix="4MEM-1",
                                      config=_writeback_config())))
        seen = {"read": 0, "write": 0}

        def counting(kind, fn):
            def wrapper(self, candidates, ctx):
                assert type(candidates) is list and candidates
                seen[kind] += 1
                return fn(self, candidates, ctx)
            return wrapper

        # as bench/ledger.py wraps them: on the class, by name
        for kind in ("read", "write"):
            attr = f"select_{kind}"
            monkeypatch.setattr(SchedulingPolicy, attr,
                                counting(kind, getattr(SchedulingPolicy, attr)))
        system = ran(build(name, mix="4MEM-1", config=_writeback_config()))
        writes = sum(ch.writes for ch in system.dram.channels)
        assert seen == {"read": system.dram.total_transactions - writes,
                        "write": writes}
        assert writes > 0
        assert fingerprint(system) == plain

    def test_an_override_is_called_at_every_read_decision(self):
        calls = []

        class CountingLreq(LeastRequestPolicy):
            def select_read(self, candidates, ctx):
                calls.append(len(candidates))
                return super().select_read(candidates, ctx)

        system = ran(build(CountingLreq()))
        writes = sum(ch.writes for ch in system.dram.channels)
        assert len(calls) == system.dram.total_transactions - writes > 100
        assert fingerprint(system) == fingerprint(ran(build("LREQ")))


class TestNativePath:
    @pytest.mark.parametrize("name", NATIVE)
    def test_no_python_frame_of_the_policies_runs(self, name):
        system = build(name)
        core_dir = os.sep + os.path.join("repro", "core") + os.sep
        frames = []

        def profile(frame, event, _arg):
            if event == "call" and core_dir in frame.f_code.co_filename:
                frames.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            system.run()
        finally:
            sys.setprofile(None)
        assert system.dram.total_transactions > 100
        assert frames == []


def deep_controller(num_cores=2, entries=128):
    cfg = controller_config(SystemConfig(num_cores=num_cores),
                            buffer_entries=entries,
                            write_drain_high=entries // 2,
                            write_drain_low=entries // 4)
    _, dram, ctrl = make_controller(num_cores=num_cores, config=cfg)
    return dram, ctrl


def context(dram, ctrl, seed=0):
    return SchedulingContext(0, 0, ctrl.queues, dram, RngStream(seed, "t"))


class TestDirectCalls:
    def _deep_queue(self):
        """70 pending reads of core 0, then 66 of core 1, on a 144-entry
        controller: both past the 64 entries of Figure 1's default table."""
        dram, ctrl = deep_controller(entries=144)
        cands = [stage_read(ctrl, 0, 2 * i) for i in range(70)]
        cands += [stage_read(ctrl, 1, 2 * i + 1000) for i in range(66)]
        assert list(ctrl.queues.pending_reads) == [70, 66]
        return dram, ctrl, cands

    @pytest.mark.parametrize("name, kwargs", [
        ("LREQ", {}),
        ("ME-LREQ", {"me_values": [1.0, 1.0], "table_bits": None}),
        ("ME-LREQ", {"me_values": [1.0, 1.0], "max_pending": 128}),
    ])
    def test_fewer_pending_wins_past_64(self, name, kwargs):
        dram, ctrl, cands = self._deep_queue()
        policy = make_policy(name, **kwargs)
        policy.setup(2, RngStream(0))
        chosen = policy.select_read(cands, context(dram, ctrl))
        assert chosen is cands[70]  # core 1's oldest

    def test_the_default_table_saturates_at_64_and_draws(self):
        dram, ctrl, cands = self._deep_queue()
        policy = make_policy("ME-LREQ", me_values=[1.0, 1.0])
        policy.setup(2, RngStream(0))
        assert policy.table.lookup(0, 70) == policy.table.lookup(1, 66)
        ctx = context(dram, ctrl, seed=5)
        chosen = policy.select_read(cands, ctx)
        # the two cores tie: one draw over them, in first-appearance order
        twin = RngStream(5, "t")
        assert chosen is (cands[0], cands[70])[twin.randint(0, 2)]
        assert ctx.rng.randint(0, 1 << 30) == twin.randint(0, 1 << 30)

    def test_round_robin_advances_on_a_single_candidate(self):
        dram, ctrl = deep_controller(num_cores=4)
        policy = make_policy("RR")
        policy.setup(4, RngStream(0))
        ctx = context(dram, ctrl)
        r2 = stage_read(ctrl, 2, 0)
        assert policy.select_read([r2], ctx) is r2
        assert policy._next_core == 3
        r1 = stage_read(ctrl, 1, 2)
        assert policy.select_read([r1], ctx) is r1
        assert policy._next_core == 2
        policy.reset()
        assert policy._next_core == 0

    def test_priorities_compare_as_python_compares(self):
        dram, ctrl = deep_controller()
        a = stage_read(ctrl, 0, 0)
        b = stage_read(ctrl, 1, 2)
        # 2**53 + 1 > float(2**53) in Python, though not once made a double
        prio = {0: float(2 ** 53), 1: 2 ** 53 + 1}
        ctx = context(dram, ctrl)
        policy = make_policy("CADS")
        assert policy._select_core_then_request([a, b], ctx, prio.get) is b
        assert ctx.rng.randint(0, 1 << 30) == RngStream(0, "t").randint(0, 1 << 30)

    def test_one_candidate_reads_no_priority_and_draws_nothing(self):
        dram, ctrl = deep_controller()
        a = stage_read(ctrl, 0, 0)
        ctx = context(dram, ctrl)
        policy = make_policy("CADS")
        assert policy._select_core_then_request([a], ctx, None) is a

    def test_empty_candidates_rejected_by_every_rule(self):
        dram, ctrl = deep_controller()
        ctx = context(dram, ctrl)
        for name in NATIVE:
            policy = make_policy(name, me_values=[1.0, 2.0])
            policy.setup(2, RngStream(0))
            with pytest.raises(ValueError):
                policy.select_read([], ctx)
            with pytest.raises(ValueError):
                policy.select_write([], ctx)


class TestBind:
    def test_a_rule_the_kernel_does_not_know_fails_at_bind(self):
        class Fastest(SchedulingPolicy):
            read_rule = "fastest"

        with pytest.raises(ValueError, match="fastest"):
            make_controller(Fastest())

    def test_a_policy_with_no_rule_and_no_method_fails_at_bind(self):
        class Nothing(SchedulingPolicy):
            pass

        with pytest.raises(TypeError, match="read_rule"):
            make_controller(Nothing())
