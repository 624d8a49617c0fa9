"""Tests for the cache hierarchy wired to a real controller + engine."""

import pytest

from repro.cache.hierarchy import BLOCKED, MERGED, PENDING, CacheHierarchy
from repro.config import SystemConfig
from repro.controller.controller import MemoryController
from repro.core import make_policy
from repro.dram.dram_system import DramSystem
from repro.sim.engine import EventEngine
from repro.util.rng import RngStream


def make_stack(num_cores=2, buffer_entries=64):
    from dataclasses import replace

    cfg = SystemConfig(num_cores=num_cores)
    cfg = replace(
        cfg,
        controller=replace(
            cfg.controller,
            buffer_entries=buffer_entries,
            write_drain_high=max(buffer_entries // 2, 1),
            write_drain_low=max(buffer_entries // 4, 0),
        ),
    )
    engine = EventEngine()
    dram = DramSystem(cfg.dram_topology, cfg.dram_timing, cfg.line_bytes)
    policy = make_policy("HF-RF")
    ctrl = MemoryController(
        cfg.controller, dram, policy, num_cores, engine, RngStream(0, "c")
    )
    hier = CacheHierarchy(cfg, ctrl, num_cores)
    return cfg, engine, ctrl, hier


class TestHitPaths:
    def test_l1_hit_after_fill(self):
        cfg, engine, ctrl, hier = make_stack()
        got = []
        r = hier.access(0, 0x10000, False, 0, lambda l, t: got.append(t))
        assert r == PENDING
        engine.run()
        assert len(got) == 1
        assert hier.access(0, 0x10000, False, engine.now, None) == cfg.caches.l1d.hit_latency

    def test_l2_hit_for_other_l1_misses(self):
        cfg, engine, ctrl, hier = make_stack()
        hier.access(0, 0x10000, False, 0, lambda l, t: None)
        engine.run()
        # evict from L1 by invalidation, keep L2 copy
        hier.l1d[0].invalidate(0x10000)
        lat = hier.access(0, 0x10000, False, engine.now, None)
        assert lat == cfg.caches.l1d.hit_latency + cfg.caches.l2.hit_latency

    def test_per_core_l1_privacy(self):
        cfg, engine, ctrl, hier = make_stack()
        hier.access(0, 0x10000, False, 0, lambda l, t: None)
        engine.run()
        # core 1 misses its own L1 but hits the shared L2
        lat = hier.access(1, 0x10000, False, engine.now, None)
        assert lat == cfg.caches.l1d.hit_latency + cfg.caches.l2.hit_latency


class TestMissPaths:
    def test_merge_returns_merged(self):
        cfg, engine, ctrl, hier = make_stack()
        assert hier.access(0, 0x10000, False, 0, lambda l, t: None) == PENDING
        assert hier.access(0, 0x10020, False, 1, lambda l, t: None) == MERGED
        assert hier.mshrs[0].merges == 1

    def test_merged_waiters_all_fire(self):
        cfg, engine, ctrl, hier = make_stack()
        got = []
        hier.access(0, 0x10000, False, 0, lambda l, t: got.append("a"))
        hier.access(0, 0x10000, False, 1, lambda l, t: got.append("b"))
        engine.run()
        assert sorted(got) == ["a", "b"]

    def test_mshr_full_blocks(self):
        cfg, engine, ctrl, hier = make_stack()
        n = cfg.caches.l1d.mshrs
        for i in range(n):
            assert hier.access(0, (i + 1) << 20, False, 0, lambda l, t: None) == PENDING
        assert hier.access(0, (n + 1) << 20, False, 0, lambda l, t: None) == BLOCKED

    def test_l1d_mshrs_size_each_cores_mshr_file(self):
        from dataclasses import replace

        cfg, engine, ctrl, _ = make_stack()
        caches = replace(cfg.caches, l1d=replace(cfg.caches.l1d, mshrs=4))
        hier = CacheHierarchy(replace(cfg, caches=caches), ctrl, 2)
        for i in range(4):
            assert hier.access(0, (i + 1) << 20, False, 0, lambda l, t: None) == PENDING
        assert hier.access(0, 5 << 20, False, 0, lambda l, t: None) == BLOCKED

    def test_unblock_fires_after_completion(self):
        cfg, engine, ctrl, hier = make_stack()
        n = cfg.caches.l1d.mshrs
        for i in range(n):
            hier.access(0, (i + 1) << 20, False, 0, lambda l, t: None)
        woken = []
        hier.wait_unblock(lambda now: woken.append(now))
        engine.run()
        assert woken, "unblock callback never fired"

    def test_controller_buffer_full_blocks(self):
        cfg, engine, ctrl, hier = make_stack(buffer_entries=4)
        for i in range(4):
            assert hier.access(0, (i + 1) << 20, False, 0, lambda l, t: None) == PENDING
        assert hier.access(0, 99 << 20, False, 0, lambda l, t: None) == BLOCKED


class TestWritebacks:
    def test_dirty_l2_eviction_writes_back(self):
        cfg, engine, ctrl, hier = make_stack()
        # dirty a line via a store miss, then evict it from L2 by filling
        # its set with (assoc) other lines
        store_addr = 0x10000
        hier.access(0, store_addr, True, 0, lambda l, t: None)
        engine.run()
        set_idx = hier.l2.set_index(store_addr)
        stride = hier.l2.config.num_sets * 64
        fills = 0
        addr = store_addr + stride
        while fills < cfg.caches.l2.assoc:
            if hier.l2.set_index(addr) == set_idx:
                hier.access(0, addr, False, engine.now, lambda l, t: None)
                engine.run()
                fills += 1
            addr += stride
        assert ctrl.stats.write_count[0] >= 1

    def test_owner_attribution(self):
        cfg, engine, ctrl, hier = make_stack()
        hier.access(1, 0x20000, True, 0, lambda l, t: None)
        engine.run()
        # line owned by core 1; force eviction via same-set fills from core 0
        set_idx = hier.l2.set_index(0x20000)
        stride = hier.l2.config.num_sets * 64
        addr = 0x20000 + stride
        fills = 0
        while fills < cfg.caches.l2.assoc:
            if hier.l2.set_index(addr) == set_idx:
                hier.access(0, addr, False, engine.now, lambda l, t: None)
                engine.run()
                fills += 1
            addr += stride
        assert ctrl.stats.write_count[1] >= 1, "writeback not billed to owner"


class TestStatistics:
    def test_demand_and_miss_counters(self):
        cfg, engine, ctrl, hier = make_stack()
        hier.access(0, 0x10000, False, 0, lambda l, t: None)
        engine.run()
        hier.access(0, 0x10000, False, engine.now, None)
        assert hier.demand_accesses[0] == 2
        assert hier.l2_miss_count(0) == 1
        assert 0.0 < hier.l1_miss_rate(0) <= 1.0
