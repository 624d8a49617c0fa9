"""Tests for the per-bank state a channel keeps in its arrays.

``open_row``/``ready`` and the per-bank counters are written by the
controller's scheduling point at every commit; these tests commit through
it (``tests/machine.py``'s :class:`DramRig`) and read bank 0 of channel 0.
"""

from repro.config import DramTimingConfig
from tests.machine import DramRig

T = DramTimingConfig()  # tRP=tRCD=tCL=40, burst=16, tWR=48


def bank0(rig):
    """``(open_row, ready)`` of channel 0's bank 0."""
    ch = rig.dram.channels[0]
    return ch.open_row[0], ch.ready[0]


class TestInitialState:
    def test_starts_precharged(self):
        assert bank0(DramRig()) == (-1, 0)

    def test_access_start_is_now_when_idle(self):
        t = DramRig().issue(0, 5, 100)
        assert t.start_cycle == 100


class TestCommit:
    def test_keep_open_latches_row(self):
        rig = DramRig(page_policy="open")
        t = rig.issue(0, 7, 0)
        # CAS to same row may follow at data_end
        assert bank0(rig) == (7, t.data_end)

    def test_auto_precharge_closes_row(self):
        rig = DramRig()
        t = rig.issue(0, 7, 0)
        assert bank0(rig) == (-1, t.data_end + T.t_rp)

    def test_write_recovery_added(self):
        rig = DramRig()
        t = rig.issue(0, 7, 0, is_write=True)
        assert bank0(rig) == (-1, t.data_end + T.t_wr + T.t_rp)

    def test_hit_and_activation_counters(self):
        rig = DramRig(page_policy="open")
        rig.issue(0, 1, 0)
        rig.issue(0, 1, 200)
        ch = rig.dram.channels[0]
        assert ch.acts[0] == 1
        assert ch.hits[0] == 1
