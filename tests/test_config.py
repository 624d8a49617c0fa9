"""Tests for the Table 1 configuration dataclasses."""

import pytest

from repro.config import (
    CacheConfig,
    ControllerConfig,
    CoreConfig,
    DramTimingConfig,
    DramTopologyConfig,
    SystemConfig,
)


class TestDefaultsMatchTable1:
    def test_core(self):
        c = CoreConfig()
        assert c.issue_width == 4
        assert c.rob_size == 196

    def test_caches(self):
        s = SystemConfig()
        assert s.caches.l1d.size_bytes == 64 * 1024
        assert s.caches.l1d.assoc == 2
        assert s.caches.l1d.hit_latency == 3
        assert s.caches.l2.size_bytes == 4 * 1024 * 1024
        assert s.caches.l2.assoc == 4
        assert s.caches.l2.hit_latency == 15
        assert s.caches.l1d.mshrs == 32
        assert s.caches.l2.mshrs == 64
        assert s.line_bytes == 64

    def test_dram_timing(self):
        t = DramTimingConfig()
        assert t.t_rp == t.t_rcd == t.t_cl == 40  # 12.5 ns at 3.2 GHz
        assert t.t_burst == 16  # 64 B over a 16 B/transfer logic channel
        assert t.row_miss_core_latency == 96

    def test_topology(self):
        topo = DramTopologyConfig()
        assert topo.logic_channels == 2
        assert topo.banks_per_channel == 16
        assert topo.total_banks == 32

    def test_controller(self):
        c = ControllerConfig()
        assert c.buffer_entries == 64
        assert c.overhead == 48  # 15 ns
        assert c.write_drain_high == 32  # half the buffer
        assert c.write_drain_low == 16  # a quarter
        assert c.page_policy == "closed"

    def test_system_validates(self):
        assert SystemConfig().validate() is not None


class TestCacheConfig:
    def test_num_sets(self):
        c = CacheConfig(size_bytes=64 * 1024, assoc=2, line_bytes=64)
        assert c.num_sets == 512

    def test_rejects_non_pow2_sets(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=96 * 1024, assoc=2, line_bytes=64).validate()

    def test_rejects_tiny_cache(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=64, assoc=2, line_bytes=64).validate()

    def test_rejects_no_mshrs(self):
        with pytest.raises(ValueError, match="mshrs"):
            CacheConfig(size_bytes=64 * 1024, assoc=2, mshrs=0).validate()


class TestValidationErrors:
    def test_zero_cores(self):
        with pytest.raises(ValueError):
            SystemConfig(num_cores=0).validate()

    def test_bad_drain_watermarks(self):
        with pytest.raises(ValueError):
            ControllerConfig(write_drain_high=10, write_drain_low=20).validate()

    def test_bad_page_policy(self):
        with pytest.raises(ValueError):
            ControllerConfig(page_policy="weird").validate()

    def test_bad_topology(self):
        with pytest.raises(ValueError):
            DramTopologyConfig(logic_channels=3).validate()


class TestWithCores:
    def test_with_cores(self):
        s = SystemConfig(num_cores=4)
        s8 = s.with_cores(8)
        assert s8.num_cores == 8
        assert s.num_cores == 4  # original untouched
        assert s8.caches == s.caches

    def test_summary_mentions_key_facts(self):
        text = SystemConfig().summary()
        assert "4" in text and "GHz" in text and "L2" in text
