"""Tests for the set-associative cache, including a model-based LRU check.

Demand hits run only in the core kernel's fetch loop (``advance_fetch`` in
``cpu/_core.c``), which probes the sets directly; those tests run a
one-core machine over a :class:`ListTrace` (``tests/machine.py``) and read
the L1's ``_sets`` and stats.  The fill and eviction methods the hierarchy
calls are tested on a bare cache.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssocCache
from repro.config import CacheConfig, SystemConfig
from repro.cpu.trace import MemOp
from tests.machine import SETTLE, run_traces


def small_cache(assoc=2, sets=4, line=64):
    return SetAssocCache(
        CacheConfig(size_bytes=assoc * sets * line, assoc=assoc, line_bytes=line)
    )


def run_l1(refs, assoc=2, sets=4):
    """Run ``refs`` — ``(byte address, is_write)`` pairs, each fetched
    after the previous one's fill returned — on a one-core machine whose
    L1 has ``assoc`` ways and ``sets`` sets; returns that L1."""
    base = SystemConfig(num_cores=1)
    l1d = replace(base.caches.l1d, size_bytes=assoc * sets * 64, assoc=assoc)
    cfg = replace(base, caches=replace(base.caches, l1d=l1d))
    system = run_traces(
        [[MemOp(SETTLE, addr, is_write) for addr, is_write in refs]], config=cfg
    )
    return system.hierarchy.l1d[0]


class TestBasics:
    def test_miss_then_hit_after_fill(self):
        c = run_l1([(0, False), (0, False)])
        assert c.stats.hits == 1 and c.stats.misses == 1

    def test_same_line_different_offsets(self):
        c = run_l1([(0, False), (63, False), (64, False)])
        # 63 shares line 0's fill; 64 is the next line
        assert (c.stats.hits, c.stats.misses) == (1, 2)

    def test_probe_does_not_touch(self):
        c = small_cache()
        c.fill(0)
        h, m = c.stats.hits, c.stats.misses
        assert c.probe(0)
        assert not c.probe(64)
        assert (c.stats.hits, c.stats.misses) == (h, m)


class TestLru:
    def test_eviction_order(self):
        c = small_cache(assoc=2, sets=1)
        c.fill(0 * 64)
        c.fill(1 * 64)
        ev = c.fill(2 * 64)  # evicts line 0 (LRU)
        assert ev == (0, False)
        assert not c.probe(0)
        assert c.probe(64) and c.probe(128)

    def test_touch_refreshes_recency(self):
        # a hit on line 0 makes line 1 the LRU victim of line 2's fill
        c = run_l1(
            [(0, False), (64, False), (0, False), (128, False)], assoc=2, sets=1
        )
        assert list(c._sets[0]) == [0, 2]
        assert c.stats.evictions == 1

    def test_fill_existing_refreshes(self):
        c = small_cache(assoc=2, sets=1)
        c.fill(0 * 64)
        c.fill(1 * 64)
        assert c.fill(0 * 64) is None  # already resident
        ev = c.fill(2 * 64)
        assert ev == (64, False)


class TestDirty:
    def test_write_lookup_sets_dirty(self):
        # a load installs line 0 clean; the store hit then dirties it
        c = run_l1([(0, False), (0, True)])
        assert c.stats.hits == 1
        assert c.is_dirty(0)

    def test_dirty_eviction_reported(self):
        c = small_cache(assoc=1, sets=1)
        c.fill(0, dirty=True)
        ev = c.fill(64)
        assert ev == (0, True)
        assert c.stats.dirty_evictions == 1

    def test_set_dirty_absent_line(self):
        c = small_cache()
        assert not c.set_dirty(0)
        c.fill(0)
        assert c.set_dirty(0)
        assert c.is_dirty(0)

    def test_fill_merges_dirty_flag(self):
        c = small_cache(assoc=2, sets=1)
        c.fill(0, dirty=True)
        c.fill(0, dirty=False)  # refresh must not clean the line
        assert c.is_dirty(0)


class TestInvalidate:
    def test_invalidate(self):
        c = small_cache()
        c.fill(0)
        assert c.invalidate(0)
        assert not c.probe(0)
        assert not c.invalidate(0)


class TestSetMapping:
    def test_set_index_uses_line_bits(self):
        c = small_cache(assoc=2, sets=4)
        for addr in (0, 64, 4 * 64):
            c.fill(addr)
        # line 1 -> set 1; line 4 wraps onto set 0 beside line 0
        assert [list(s) for s in c._sets] == [[0, 4], [1], [], []]

    def test_distinct_sets_do_not_interfere(self):
        c = small_cache(assoc=1, sets=4)
        for i in range(4):
            c.fill(i * 64)
        assert all(c.probe(i * 64) for i in range(4))


class TestModelBasedLru:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=15),  # line index
                st.booleans(),  # store?
            ),
            max_size=80,
        )
    )
    def test_against_reference_model(self, refs):
        """Drive the kernel's hit path and the hierarchy's fills with a
        reference stream, then compare the L1 against a dict-based
        reference LRU (recency order, dirtiness and hit/miss counts)."""
        assoc, sets = 2, 2
        cache = run_l1(
            [(line * 64, is_write) for line, is_write in refs], assoc, sets
        )
        # reference: per set, ordered dict tag->dirty (front = LRU); a miss
        # installs the line as MRU, dirty when a store allocated it
        model = [dict() for _ in range(sets)]
        hits = 0
        for line, is_write in refs:
            ref = model[line % sets]
            if line in ref:
                hits += 1
                ref[line] = ref.pop(line) or is_write
            else:
                if len(ref) >= assoc:
                    ref.pop(next(iter(ref)))
                ref[line] = is_write
        assert [list(s.items()) for s in cache._sets] == [
            list(ref.items()) for ref in model
        ]
        assert (cache.stats.hits, cache.stats.misses) == (hits, len(refs) - hits)
        for ln in range(16):
            assert cache.probe(ln * 64) == (ln in model[ln % sets])
