"""Tests for the cache-line-interleaved address mapping."""

import pytest
from hypothesis import given
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


class TestSharedDecodeMemo:
    def test_memo_stays_under_its_cap_and_keeps_its_identity(self, monkeypatch):
        from repro import make_policy
        from repro.config import SystemConfig
        from repro.controller.controller import MemoryController
        from repro.dram import address
        from repro.dram.dram_system import DramSystem
        from repro.sim.engine import EventEngine
        from repro.util.rng import RngStream

        monkeypatch.setattr(address, "_DECODE_CAP", 64)
        monkeypatch.setattr(address, "_SHARED_DECODE", {})
        cfg = SystemConfig(num_cores=1)
        dram = DramSystem(cfg.dram_topology, cfg.dram_timing, cfg.line_bytes)
        ctrl = MemoryController(cfg.controller, dram, make_policy("FCFS"), 1,
                                EventEngine(), RngStream(0, "t"),
                                line_bytes=cfg.line_bytes)
        memo = dram.mapper._decode_cache
        assert ctrl._decode_cache is memo
        fresh = AddressMapper(cfg.dram_topology, line_bytes=cfg.line_bytes)
        fresh._decode_cache = {}  # a private memo: decodes from scratch
        for line in range(1000):
            coord = dram.mapper.decode(line * 64 * 37)
            assert len(memo) <= 64
            assert coord == fresh.decode(line * 64 * 37)
        assert ctrl._decode_cache is memo is dram.mapper._decode_cache
        assert address._SHARED_DECODE[
            (64, fresh.channels, fresh.banks_per_channel, fresh.lines_per_row)
        ] is memo
