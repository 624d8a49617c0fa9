"""Tests for trace recording and the REPROTR1 file format."""

import pytest

from repro.cpu.trace import ListTrace, MemOp
from repro.cpu.trace_io import load_trace, record_trace, save_trace
from repro.workloads.spec2000 import app_by_code
from repro.workloads.synthetic import make_trace
from tests.machine import ops as read_ops


class TestRoundtrip:
    def test_save_load(self, tmp_path):
        ops = [MemOp(3, 0x1000), MemOp(0, 0xFFFF_FFFF_0040, True), MemOp(7, 64)]
        p = tmp_path / "t.trace"
        save_trace(ops, p)
        loaded = load_trace(p)
        assert read_ops(loaded, 4) == ops
        assert loaded.columns(3) is None

    def test_empty_trace(self, tmp_path):
        p = tmp_path / "empty.trace"
        save_trace([], p)
        assert load_trace(p).columns(0) is None

    def test_synthetic_roundtrip(self, tmp_path):
        src = make_trace(app_by_code("c"), seed=3, phase="eval")
        ops = record_trace(src, 500)
        p = tmp_path / "swim.trace"
        save_trace(ops, p)
        assert len(ops) == 500
        assert read_ops(load_trace(p), 500) == ops


class TestErrors:
    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.trace"
        p.write_bytes(b"NOTATRACE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="REPROTR1"):
            load_trace(p)

    def test_truncated(self, tmp_path):
        p = tmp_path / "short.trace"
        save_trace([MemOp(1, 64)], p)
        data = p.read_bytes()
        p.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_trace(p)

    def test_record_negative(self):
        with pytest.raises(ValueError):
            record_trace(ListTrace([]), -1)


class TestRecorder:
    def test_record_stops_at_end(self):
        assert record_trace(ListTrace([MemOp(0, 0)]), 10) == [MemOp(0, 0)]
