"""Tests for the cache hierarchy wired to a real controller + engine.

Misses, merges and structural stalls enter at
:meth:`CacheHierarchy._after_l2_miss`, where the core kernel enters after
its own L1 and L2 probes, and fills return through the engine to
``_on_fill``.  The hit paths live in the core kernel, so those tests run a
machine over ``ListTrace`` traces (``tests/machine.py``).
"""

from dataclasses import replace

from repro.cache.hierarchy import BLOCKED, MERGED, PENDING, CacheHierarchy
from repro.config import SystemConfig
from repro.cpu.trace import MemOp
from tests.machine import SETTLE, make_stack, run_traces

A = 0x10000


def noop(line, now):
    pass


class TestHitPaths:
    def test_l1_hit_after_fill(self):
        sys_ = run_traces([[MemOp(SETTLE, A), MemOp(SETTLE, A)]])
        core, l1 = sys_.cores[0], sys_.hierarchy.l1d[0]
        assert core.stats.mem_requests == 1  # the first load went to DRAM
        assert (l1.stats.hits, l1.stats.misses) == (1, 1)
        assert core.stats.l1_hits == 1  # served at the L1 hit latency

    def test_l2_hit_for_other_l1_misses(self):
        # two more lines in A's L1 set (2-way, 32 KB apart) evict A from
        # the L1; the L2 keeps its copy
        l1_way = 32 * 1024
        refs = [A, A + l1_way, A + 2 * l1_way, A]
        sys_ = run_traces([[MemOp(SETTLE, a) for a in refs]])
        core, hier = sys_.cores[0], sys_.hierarchy
        assert hier.l2.stats.hits == 1
        assert core.stats.l2_hits == 1  # served at L1 + L2 latency
        assert core.stats.mem_requests == 3

    def test_per_core_l1_privacy(self):
        # core 1 reads A after core 0's fill: it misses its own L1 but
        # hits the shared L2
        sys_ = run_traces([[MemOp(SETTLE, A)], [MemOp(2 * SETTLE, A)]])
        assert sys_.hierarchy.l1d[1].stats.misses == 1
        assert sys_.cores[1].stats.l2_hits == 1
        assert sys_.cores[1].stats.mem_requests == 0


class TestMissPaths:
    def test_merge_returns_merged(self):
        cfg, engine, ctrl, hier = make_stack()
        assert hier._after_l2_miss(0, A, False, 0, noop) == PENDING
        assert hier._after_l2_miss(0, A, False, 1, noop) == MERGED
        assert hier.mshrs[0].merges == 1

    def test_merged_waiters_all_fire(self):
        cfg, engine, ctrl, hier = make_stack()
        got = []
        hier._after_l2_miss(0, A, False, 0, lambda l, t: got.append("a"))
        hier._after_l2_miss(0, A, False, 1, lambda l, t: got.append("b"))
        engine.run()
        assert sorted(got) == ["a", "b"]
        assert hier.mshrs[0].occupancy == 0

    def test_mshr_full_blocks(self):
        cfg, engine, ctrl, hier = make_stack()
        n = cfg.caches.l1d.mshrs
        for i in range(n):
            assert hier._after_l2_miss(0, (i + 1) << 20, False, 0, noop) == PENDING
        assert hier._after_l2_miss(0, (n + 1) << 20, False, 0, noop) == BLOCKED

    def test_l1d_mshrs_size_each_cores_mshr_file(self):
        cfg, engine, ctrl, _ = make_stack()
        caches = replace(cfg.caches, l1d=replace(cfg.caches.l1d, mshrs=4))
        hier = CacheHierarchy(replace(cfg, caches=caches), ctrl, 2)
        for i in range(4):
            assert hier._after_l2_miss(0, (i + 1) << 20, False, 0, noop) == PENDING
        assert hier._after_l2_miss(0, 5 << 20, False, 0, noop) == BLOCKED

    def test_unblock_fires_after_completion(self):
        # 40 back-to-back misses overflow the 32 MSHRs: fetch stalls on
        # the 33rd, and only the fills' unblock wake lets the core finish
        cfg = SystemConfig(num_cores=1)
        ops = [MemOp(0, (i + 1) << 20) for i in range(40)]
        sys_ = run_traces([ops], config=cfg)
        core = sys_.cores[0]
        assert core.stats.structural_stalls >= 1
        assert core.stats.mem_requests == 40
        assert core.finished

    def test_controller_buffer_full_blocks(self):
        cfg, engine, ctrl, hier = make_stack(buffer_entries=4)
        for i in range(4):
            assert hier._after_l2_miss(0, (i + 1) << 20, False, 0, noop) == PENDING
        assert hier._after_l2_miss(0, 99 << 20, False, 0, noop) == BLOCKED


def evict_from_l2(cfg, engine, hier, line, core=0):
    """Miss on ``assoc`` other lines of ``line``'s L2 set, one at a time."""
    stride = hier.l2.config.num_sets * cfg.line_bytes
    for k in range(1, cfg.caches.l2.assoc + 1):
        assert hier._after_l2_miss(
            core, line + k * stride, False, engine.now, noop
        ) == PENDING
        engine.run()


class TestWritebacks:
    def test_dirty_l2_eviction_writes_back(self):
        cfg, engine, ctrl, hier = make_stack()
        # dirty a line via a store miss, then evict it from L2 by filling
        # its set with (assoc) other lines
        hier._after_l2_miss(0, A, True, 0, None)
        engine.run()
        evict_from_l2(cfg, engine, hier, A)
        assert ctrl.stats.write_count[0] >= 1

    def test_owner_attribution(self):
        cfg, engine, ctrl, hier = make_stack()
        hier._after_l2_miss(1, 0x20000, True, 0, None)
        engine.run()
        # line owned by core 1; force eviction via same-set fills from core 0
        evict_from_l2(cfg, engine, hier, 0x20000, core=0)
        assert ctrl.stats.write_count[1] >= 1, "writeback not billed to owner"


class TestStatistics:
    def test_demand_and_miss_counters(self):
        sys_ = run_traces([[MemOp(SETTLE, A), MemOp(SETTLE, A)]])
        hier = sys_.hierarchy
        assert hier.demand_accesses[0] == 2
        assert hier.l2_miss_count(0) == 1
        assert 0.0 < hier.l1_miss_rate(0) <= 1.0
