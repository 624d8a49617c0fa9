"""Tests for the related-work extension policies (FQ, STFM)."""

import pytest

from repro.core import make_policy
from repro.core.extensions import FairQueueingPolicy, StallTimeFairPolicy
from repro.core.policy import SchedulingContext
from repro.sim.runner import run_multicore
from repro.util.rng import RngStream
from repro.workloads.mixes import workload_by_name
from tests.machine import make_controller, read, stage_read


def make_ctx(num_cores=4):
    """Scheduling state: a controller whose queues hold the staged
    candidates, its DRAM, and the context's RNG."""
    engine, dram, ctrl = make_controller(num_cores=num_cores)
    return dram, ctrl, RngStream(0, "x")


def sctx(dram, ctrl, rng, now=0):
    return SchedulingContext(now, 0, ctrl.queues, dram, rng)


class TestFairQueueing:
    def test_alternates_between_equal_cores(self):
        dram, ctrl, rng = make_ctx(2)
        pol = make_policy("FQ")
        pol.setup(2, RngStream(0))
        reqs = [stage_read(ctrl, c, 10 * c + i) for c in range(2) for i in range(3)]
        served = []
        ctx = sctx(dram, ctrl, rng)
        cands = [r for r in reqs if r.coord.channel == 0]
        for _ in range(4):
            r = pol.select_read(cands, ctx)
            served.append(r.core_id)
            cands.remove(r)  # served
        # equal shares: after 4 services, each core served twice
        assert served.count(0) == served.count(1) == 2

    def test_virtual_clock_advances(self):
        dram, ctrl, rng = make_ctx(2)
        pol = FairQueueingPolicy(quantum=10)
        pol.setup(2, RngStream(0))
        stage_read(ctrl, 0, 0)
        ctx = sctx(dram, ctrl, rng)
        pol.select_read(list(ctrl.queues.reads), ctx)
        assert pol.virtual_clock(0) == 10

    def test_idle_core_cannot_hoard_credit(self):
        dram, ctrl, rng = make_ctx(2)
        pol = FairQueueingPolicy(quantum=10)
        pol.setup(2, RngStream(0))
        # core 0 served many times while core 1 idle
        for i in range(5):
            r = stage_read(ctrl, 0, i * 2)
            pol.select_read([r], sctx(dram, ctrl, rng))
        # when core 1 shows up it joins at the virtual-time floor (core 0's
        # clock), so it does NOT get 5 back-to-back services of banked credit
        r0 = stage_read(ctrl, 0, 100)
        r1 = stage_read(ctrl, 1, 201)
        pol.select_read([r0, r1], sctx(dram, ctrl, rng))
        assert pol.virtual_clock(1) >= pol.virtual_clock(0) - pol.quantum
        # from here service alternates: over 6 rounds each core gets ~3
        served = []
        for i in range(6):
            a = stage_read(ctrl, 0, 300 + 2 * i)
            b = stage_read(ctrl, 1, 401 + 2 * i)
            chosen = pol.select_read([a, b], sctx(dram, ctrl, rng))
            served.append(chosen.core_id)
        assert 2 <= served.count(0) <= 4

    def test_quantum_validation(self):
        with pytest.raises(ValueError):
            FairQueueingPolicy(quantum=0)

    def test_end_to_end(self):
        mix = workload_by_name("2MEM-1")
        r = run_multicore(mix, "FQ", 3000, seed=3, warmup_insts=8000)
        assert all(c.ipc > 0 for c in r.per_core)


class TestStallTimeFair:
    def test_most_delayed_core_wins(self):
        dram, ctrl, rng = make_ctx(2)
        pol = StallTimeFairPolicy(alpha=1.0)
        pol.setup(2, RngStream(0))
        fresh = stage_read(ctrl, 0, 0, now=990)
        stale = stage_read(ctrl, 1, 2, now=0)  # waiting 1000 cycles
        chosen = pol.select_read([fresh, stale], sctx(dram, ctrl, rng, now=1000))
        assert chosen is stale

    def test_slowdown_estimates_update(self):
        dram, ctrl, rng = make_ctx(2)
        pol = StallTimeFairPolicy(alpha=0.5)
        pol.setup(2, RngStream(0))
        assert pol.slowdown(0) == pytest.approx(1.0)
        r = stage_read(ctrl, 0, 0, now=0)
        pol.select_read([r], sctx(dram, ctrl, rng, now=288))
        assert pol.slowdown(0) > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            StallTimeFairPolicy(baseline_latency=0)
        with pytest.raises(ValueError):
            StallTimeFairPolicy(alpha=2.0)

    def test_reset(self):
        pol = StallTimeFairPolicy()
        pol.setup(2, RngStream(0))
        pol._avg_latency[0] = 999.0
        pol.reset()
        assert pol.slowdown(0) == pytest.approx(1.0)

    def test_end_to_end(self):
        mix = workload_by_name("2MEM-1")
        r = run_multicore(mix, "STFM", 3000, seed=3, warmup_insts=8000)
        assert all(c.ipc > 0 for c in r.per_core)


class TestBatchScheduling:
    def _pol(self, num_cores=2, cap=2):
        from repro.core.extensions import BatchSchedulingPolicy

        pol = BatchSchedulingPolicy(marking_cap=cap)
        pol.setup(num_cores, RngStream(0))
        return pol

    def test_batch_served_before_new_arrivals(self):
        # BATCH reads the controller's queue, so the controller's own
        # scheduling points serve (and dequeue) the requests here
        engine, dram, ctrl = make_controller(self._pol(), num_cores=2)
        old = [stage_read(ctrl, 0, i * 2) for i in range(2)]
        # a new request arrives mid-batch, after the first scheduling
        # point formed it: the remaining marked request still goes first
        newcomer = read(100 * 64, core=1)
        engine.schedule(1, lambda now: ctrl.enqueue(newcomer, now))
        engine.run()
        first, second, third = sorted(
            old + [newcomer], key=lambda r: r.issue_cycle
        )
        assert first in old
        assert second in old
        assert third is newcomer
        assert ctrl.policy.batches_formed == 2

    def test_marking_cap_limits_per_core(self):
        dram, ctrl, rng = make_ctx(2)
        pol = self._pol(cap=2)
        for i in range(6):
            stage_read(ctrl, 0, i * 2)
        ctx = sctx(dram, ctrl, rng)
        pol.select_read(list(ctrl.queues.reads), ctx)
        # batch was formed with at most 2 of core 0's requests, 1 consumed
        assert len(pol._batch) == 1
        assert pol.batches_formed == 1

    def test_shortest_job_first_within_batch(self):
        dram, ctrl, rng = make_ctx(2)
        pol = self._pol(cap=4)
        hog = [stage_read(ctrl, 0, i * 2) for i in range(4)]
        light = stage_read(ctrl, 1, 101)
        ctx = sctx(dram, ctrl, rng)
        chosen = pol.select_read(list(ctrl.queues.reads), ctx)
        assert chosen is light  # fewest marked requests

    def test_validation(self):
        from repro.core.extensions import BatchSchedulingPolicy

        with pytest.raises(ValueError):
            BatchSchedulingPolicy(marking_cap=0)

    def test_end_to_end(self):
        mix = workload_by_name("2MEM-1")
        r = run_multicore(mix, "BATCH", 3000, seed=3, warmup_insts=8000)
        assert all(c.ipc > 0 for c in r.per_core)
