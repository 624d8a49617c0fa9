"""Tests for the trace representation."""

import pytest

from repro.cpu.trace import ListTrace, MemOp, TraceSource
from tests.machine import ops as read_ops


class TestMemOp:
    def test_fields(self):
        op = MemOp(gap=3, addr=0x40, is_write=True)
        assert (op.gap, op.addr, op.is_write) == (3, 0x40, True)

    def test_validation(self):
        with pytest.raises(ValueError):
            MemOp(gap=-1, addr=0)
        with pytest.raises(ValueError):
            MemOp(gap=0, addr=-4)

    def test_equality_and_hash(self):
        assert MemOp(1, 64) == MemOp(1, 64)
        assert MemOp(1, 64) != MemOp(1, 64, True)
        assert len({MemOp(1, 64), MemOp(1, 64)}) == 1

    def test_not_equal_other_type(self):
        assert MemOp(1, 64) != "MemOp"


class TestListTrace:
    def test_iteration_and_exhaustion(self):
        ops = [MemOp(0, 0), MemOp(1, 64, True)]
        t = ListTrace(ops)
        assert read_ops(t, 5) == ops
        gaps, addrs, writes, base = t.stream(1).columns(1)
        assert (list(gaps), list(addrs), list(writes), base) == (
            [0, 1], [0, 64], [0, 1], 0)
        assert t.stream(2) is None
        assert t.stream(3) is None  # stays exhausted

    def test_total_instructions(self):
        t = ListTrace([MemOp(3, 0), MemOp(5, 64)])
        assert t.total_instructions == 10  # 3+1 + 5+1
        assert len(t) == 2

    def test_satisfies_protocol(self):
        assert isinstance(ListTrace([]), TraceSource)
