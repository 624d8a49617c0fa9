"""Tests for the cache-line-interleaved address mapping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DramTopologyConfig
from repro.dram.address import AddressMapper, DramCoord

TOPO = DramTopologyConfig()


@pytest.fixture
def mapper():
    return AddressMapper(TOPO, line_bytes=64)


class TestInterleaving:
    def test_consecutive_lines_alternate_channels(self, mapper):
        c0 = mapper.decode(0 * 64)
        c1 = mapper.decode(1 * 64)
        assert c0.channel == 0
        assert c1.channel == 1

    def test_lines_walk_banks_after_channels(self, mapper):
        # with 2 channels, lines 0 and 2 share a channel but differ in bank
        a = mapper.decode(0 * 64)
        b = mapper.decode(2 * 64)
        assert a.channel == b.channel
        assert a.bank != b.bank

    def test_row_capacity(self, mapper):
        # 8 KB row / 64 B lines = 128 columns per row
        assert mapper.lines_per_row == 128

    def test_same_row_stride(self, mapper):
        # lines 32 apart (2 channels x 16 banks) share channel+bank,
        # consecutive column, same row
        a = mapper.decode(0)
        b = mapper.decode(32 * 64)
        assert (a.channel, a.bank, a.row) == (b.channel, b.bank, b.row)
        assert b.col == a.col + 1

    def test_row_rollover(self, mapper):
        # 32 banks x 128 cols = 4096 lines per full row sweep
        a = mapper.decode(0)
        b = mapper.decode(4096 * 64)
        assert (a.channel, a.bank) == (b.channel, b.bank)
        assert b.row == a.row + 1

    def test_sub_line_bits_ignored(self, mapper):
        assert mapper.decode(100) == mapper.decode(64)

    def test_channel_of_matches_decode(self, mapper):
        for addr in (0, 64, 4096, 123456 * 64):
            assert mapper.channel_of(addr) == mapper.decode(addr).channel


class TestBijection:
    @given(st.integers(min_value=0, max_value=2**44))
    def test_roundtrip(self, addr):
        mapper = AddressMapper(TOPO, line_bytes=64)
        line_addr = mapper.line_address(addr)
        assert mapper.encode(mapper.decode(addr)) == line_addr

    @given(
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=2**20),
        st.integers(min_value=0, max_value=127),
    )
    def test_inverse_roundtrip(self, channel, bank, row, col):
        mapper = AddressMapper(TOPO, line_bytes=64)
        coord = DramCoord(channel=channel, bank=bank, row=row, col=col)
        assert mapper.decode(mapper.encode(coord)) == coord

    def test_distinct_lines_distinct_coords(self, mapper):
        seen = set()
        for line in range(10_000):
            coord = mapper.decode(line * 64)
            assert coord not in seen
            seen.add(coord)


class TestErrors:
    def test_negative_address(self, mapper):
        with pytest.raises(ValueError):
            mapper.decode(-1)

    def test_encode_range_checks(self, mapper):
        with pytest.raises(ValueError):
            mapper.encode(DramCoord(channel=2, bank=0, row=0, col=0))
        with pytest.raises(ValueError):
            mapper.encode(DramCoord(channel=0, bank=16, row=0, col=0))
        with pytest.raises(ValueError):
            mapper.encode(DramCoord(channel=0, bank=0, row=-1, col=0))
        with pytest.raises(ValueError):
            mapper.encode(DramCoord(channel=0, bank=0, row=0, col=128))

    def test_row_smaller_than_line_rejected(self):
        topo = DramTopologyConfig(row_bytes=32)
        with pytest.raises(ValueError):
            AddressMapper(topo, line_bytes=64)


@st.composite
def layouts(draw):
    """A DRAM layout and line size no built-in config uses: 1, 2 or 4
    channels, 1 to 64 banks per channel, rows down to one line, lines of
    32 to 128 bytes, so any field may have zero bits."""
    line = draw(st.sampled_from((32, 64, 128)))
    topo = DramTopologyConfig(
        logic_channels=draw(st.sampled_from((1, 2, 4))),
        phys_per_logic=draw(st.sampled_from((1, 2))),
        dimms_per_phys=draw(st.sampled_from((1, 2))),
        banks_per_dimm=draw(st.sampled_from((1, 2, 4, 8, 16))),
        row_bytes=line << draw(st.integers(0, 7)),
    )
    return topo, line


@st.composite
def coords(draw, mapper):
    return DramCoord(
        channel=draw(st.integers(0, mapper.channels - 1)),
        bank=draw(st.integers(0, mapper.banks_per_channel - 1)),
        row=draw(st.integers(0, 2**30)),
        col=draw(st.integers(0, mapper.lines_per_row - 1)),
    )


def _controller(topo, line):
    """A controller over a DRAM system of ``topo`` with ``line``-byte lines."""
    from repro import make_policy
    from repro.config import SystemConfig
    from repro.controller.controller import MemoryController
    from repro.dram.dram_system import DramSystem
    from repro.sim.engine import EventEngine
    from repro.util.rng import RngStream

    cfg = SystemConfig(num_cores=1)
    dram = DramSystem(topo, cfg.dram_timing, line)
    ctrl = MemoryController(cfg.controller, dram, make_policy("FCFS"), 1,
                            EventEngine(), RngStream(0, "t"), line_bytes=line)
    return dram, ctrl


class TestKernelDecode:
    """The one decode (the model kernel's), judged by its inverse, on any
    layout, through the mapper and through the controller's enqueue."""

    @settings(max_examples=60, deadline=None)
    @given(st.data(), layouts())
    def test_decode_inverts_encode_on_any_layout(self, data, layout):
        from repro.controller.request import MemoryRequest

        topo, line = layout
        dram, ctrl = _controller(topo, line)
        coord = data.draw(coords(dram.mapper))
        addr = dram.mapper.encode(coord)
        assert dram.mapper.decode(addr) == coord
        assert dram.mapper.decode(addr + data.draw(st.integers(0, line - 1))) \
            == coord
        req = MemoryRequest(addr, 0, data.draw(st.booleans()), 0)
        assert req.coord is None and (req.bank, req.row) == (-1, -1)
        assert ctrl.enqueue(req, 0)
        assert (req.bank, req.row) == (coord.bank, coord.row)
        assert req.coord == coord == dram.coord(req.addr)
        assert req.coord is req.coord  # built once, then kept

    @settings(max_examples=20, deadline=None)
    @given(st.data(), layouts())
    def test_assigning_coord_mirrors_bank_and_row(self, data, layout):
        from repro.controller.request import MemoryRequest

        topo, line = layout
        mapper = AddressMapper(topo, line_bytes=line)
        coord = data.draw(coords(mapper))
        req = MemoryRequest(0, 0, False, 0)
        req.coord = coord
        assert req.coord is coord
        assert (req.bank, req.row) == (coord.bank, coord.row)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(-2**63, -1), layouts())
    def test_a_negative_address_raises_the_same_error(self, addr, layout):
        from repro.controller.request import MemoryRequest

        topo, line = layout
        dram, ctrl = _controller(topo, line)
        with pytest.raises(ValueError) as by_mapper:
            dram.mapper.decode(addr)
        with pytest.raises(ValueError) as by_enqueue:
            ctrl.enqueue(MemoryRequest(addr, 0, False, 0), 0)
        assert str(by_mapper.value) == str(by_enqueue.value) \
            == f"negative address {addr:#x}"
        assert ctrl.queues.occupancy == 0
