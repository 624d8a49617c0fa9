"""Tests for the controller request queues and per-core counters.

The queues are state only: ``MemoryController.enqueue`` adds a request
and the scheduling point removes the one it commits, so these tests drive
both through a real controller (``tests/machine.py``).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import SystemConfig
from tests.machine import (
    DramRig,
    controller_config,
    make_controller,
    read,
    write,
)


def controller(capacity=8, num_cores=2):
    cfg = controller_config(
        SystemConfig(num_cores=num_cores),
        buffer_entries=capacity,
        write_drain_high=max(capacity // 2, 1),
        write_drain_low=max(capacity // 4, 0),
    )
    return make_controller(num_cores=num_cores, config=cfg)


def make_req(addr=0, core=0, write_=False):
    return write(addr, core) if write_ else read(addr, core)


class TestCapacity:
    def test_empty(self):
        engine, dram, ctrl = controller(4, 2)
        q = ctrl.queues
        assert q.occupancy == 0
        assert ctrl.can_accept()
        assert q.capacity - q.occupancy == 4

    def test_fills_up(self):
        engine, dram, ctrl = controller(2, 1)
        assert ctrl.enqueue(make_req(0), 0)
        assert ctrl.enqueue(make_req(64), 0)
        assert not ctrl.can_accept()
        assert not ctrl.enqueue(make_req(128), 0)
        assert ctrl.queues.occupancy == 2

    def test_shared_between_reads_and_writes(self):
        engine, dram, ctrl = controller(2, 1)
        ctrl.enqueue(make_req(0, write_=False), 0)
        ctrl.enqueue(make_req(64, write_=True), 0)
        assert not ctrl.can_accept()


class TestCounters:
    def test_pending_reads_per_core(self):
        engine, dram, ctrl = controller(8, 2)
        ctrl.enqueue(make_req(0, core=0), 0)
        ctrl.enqueue(make_req(64, core=0), 0)
        ctrl.enqueue(make_req(128, core=1), 0)
        assert list(ctrl.queues.pending_reads) == [2, 1]
        assert list(ctrl.queues.pending_writes) == [0, 0]

    def test_remove_decrements(self):
        engine, dram, ctrl = controller(8, 2)
        ctrl.enqueue(make_req(0, core=1), 0)
        engine.run()  # the scheduling point commits and removes it
        assert list(ctrl.queues.pending_reads) == [0, 0]
        assert ctrl.queues.occupancy == 0
        assert ctrl.queues.reads == [] and ctrl.queues.reads_by_ch == [[], []]

    def test_write_counters(self):
        engine, dram, ctrl = controller(8, 2)
        ctrl.enqueue(make_req(0, core=1, write_=True), 0)
        assert list(ctrl.queues.pending_writes) == [0, 1]
        assert list(ctrl.queues.pending_reads) == [0, 0]

    def test_cores_with_reads(self):
        engine, dram, ctrl = controller(8, 3)
        ctrl.enqueue(make_req(0, core=2), 0)
        q = ctrl.queues
        assert [i for i, n in enumerate(q.pending_reads) if n] == [2]

    def test_bad_core_rejected(self):
        # enqueue trusts the hierarchy's core ids; one past the counters
        # fails loudly instead of being counted
        engine, dram, ctrl = controller(8, 2)
        with pytest.raises(IndexError):
            ctrl.enqueue(make_req(0, core=5), 0)


class TestSequenceNumbers:
    def test_monotone_assignment(self):
        engine, dram, ctrl = controller(8, 1)
        rs = [make_req(i * 64) for i in range(4)]
        for r in rs:
            ctrl.enqueue(r, 0)
        assert [r.seq for r in rs] == sorted(r.seq for r in rs)
        assert len({r.seq for r in rs}) == 4


class TestChannelViews:
    def test_reads_for_channel(self):
        engine, dram, ctrl = controller(8, 1)
        r0 = make_req(0)  # channel 0
        r1 = make_req(64)  # channel 1
        ctrl.enqueue(r0, 0)
        ctrl.enqueue(r1, 0)
        assert ctrl.queues.reads_by_ch[0] == [r0]
        assert ctrl.queues.reads_by_ch[1] == [r1]

    def test_any_for_bank(self):
        # the close-page query: a commit keeps its row open iff another
        # queued request targets it
        rig = DramRig()
        rig.post(0, 5, 0)
        rig.post(0, 5, 0, col=1)  # same bank and row
        rig.post(1, 5, 0)
        rig.post(1, 6, 0)  # same bank, another row
        rig.run()
        kept = {
            (tr.coord.bank, tr.coord.row, tr.coord.col): tr.keep_open
            for tr in rig.log
        }
        assert kept == {(0, 5, 0): True, (0, 5, 1): False,
                        (1, 5, 0): False, (1, 6, 0): False}

    def test_any_for_bank_sees_writes(self):
        rig = DramRig()
        rig.post(0, 5, 0)
        rig.post(0, 5, 0, col=1, is_write=True)
        rig.run()
        first = rig.log[0]
        assert not first.is_write and first.keep_open


class TestPropertyCounters:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # core
                st.booleans(),  # write
                st.integers(min_value=0, max_value=1000),  # line index
            ),
            max_size=32,
        )
    )
    def test_counters_match_queue_contents(self, ops):
        engine, dram, ctrl = controller(64, 4)
        q = ctrl.queues

        def counters_match():
            for core in range(4):
                assert q.pending_reads[core] == sum(
                    1 for r in q.reads if r.core_id == core
                )
                assert q.pending_writes[core] == sum(
                    1 for r in q.writes if r.core_id == core
                )
            assert q.occupancy == len(q.reads) + len(q.writes)
            assert sum(map(len, q.reads_by_ch)) == len(q.reads)
            assert sum(map(len, q.writes_by_ch)) == len(q.writes)

        for core, write_, line in ops:
            assert ctrl.enqueue(make_req(line * 64, core=core, write_=write_), 0)
        counters_match()
        # removal at every commit keeps counters consistent
        commits = []

        def observer(*transaction):
            commits.append(transaction)
            counters_match()

        dram.observers.append(observer)
        engine.run()
        assert len(commits) == len(ops)
        assert q.occupancy == 0
        assert list(q.pending_reads) == [0] * 4
        assert list(q.pending_writes) == [0] * 4
