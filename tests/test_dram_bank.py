"""Tests for the per-bank state a channel keeps (seen through ``banks``)."""

from repro.config import DramTimingConfig
from repro.dram.channel import Channel

T = DramTimingConfig()  # tRP=tRCD=tCL=40, burst=16, tWR=48


def make_channel():
    return Channel(0, 1, T)


def bank(ch):
    return ch.banks[0]


class TestInitialState:
    def test_starts_precharged(self):
        b = bank(make_channel())
        assert b.open_row is None
        assert b.ready_cycle == 0

    def test_access_start_is_now_when_idle(self):
        ch = make_channel()
        t = ch.execute(0, 5, 100, is_write=False, keep_open=False)
        assert t.start_cycle == 100


class TestCommit:
    def test_keep_open_latches_row(self):
        ch = make_channel()
        t = ch.execute(0, 7, 0, is_write=False, keep_open=True)
        assert bank(ch).open_row == 7
        assert bank(ch).ready_cycle == t.data_end  # CAS to same row may follow

    def test_auto_precharge_closes_row(self):
        ch = make_channel()
        t = ch.execute(0, 7, 0, is_write=False, keep_open=False)
        assert bank(ch).open_row is None
        assert bank(ch).ready_cycle == t.data_end + T.t_rp

    def test_write_recovery_added(self):
        ch = make_channel()
        t = ch.execute(0, 7, 0, is_write=True, keep_open=False)
        assert bank(ch).ready_cycle == t.data_end + T.t_wr + T.t_rp

    def test_hit_and_activation_counters(self):
        ch = make_channel()
        ch.execute(0, 1, 0, is_write=False, keep_open=True)
        ch.execute(0, 1, 200, is_write=False, keep_open=True)
        assert bank(ch).activations == 1
        assert bank(ch).row_hits == 1


class TestReset:
    def test_reset_restores_initial_state(self):
        ch = make_channel()
        ch.execute(0, 3, 0, is_write=True, keep_open=True)
        ch.reset()
        b = bank(ch)
        assert b.open_row is None
        assert b.ready_cycle == 0
        assert b.activations == 0
        assert b.row_hits == 0
