"""Tests for the assembled DRAM system."""

from repro.config import DramTimingConfig, DramTopologyConfig
from repro.dram.dram_system import DramSystem
from tests.machine import DramRig, read


def make_system():
    return DramSystem(DramTopologyConfig(), DramTimingConfig(), line_bytes=64)


class TestRouting:
    def test_channel_count(self):
        sys_ = make_system()
        assert len(sys_.channels) == 2
        assert all(ch.num_banks == 16 for ch in sys_.channels)
        assert all(len(ch.open_row) == 16 for ch in sys_.channels)

    def test_execute_routes_to_decoded_channel(self):
        rig = DramRig()
        addr = 64  # line 1 -> channel 1
        assert rig.dram.coord(addr).channel == 1
        assert rig.ctrl.enqueue(read(addr), 0)
        rig.run()
        assert rig.dram.channels[1].transactions == 1
        assert rig.dram.channels[0].transactions == 0

    def test_row_hit_query(self):
        rig = DramRig(page_policy="open")
        coord = rig.dram.coord(0)
        assert not rig.dram.is_row_hit(coord)
        rig.issue(coord.bank, coord.row, 0)
        assert rig.dram.is_row_hit(coord)


class TestStats:
    def test_aggregates(self):
        rig = DramRig(page_policy="open")
        rig.issue(0, 0, 0)
        rig.issue(0, 0, 500)
        dram = rig.dram
        assert dram.total_transactions == 2
        assert dram.total_row_hits == 1
        assert dram.total_activations == 1
        assert dram.row_hit_rate() == 0.5

    def test_empty_hit_rate(self):
        assert make_system().row_hit_rate() == 0.0
