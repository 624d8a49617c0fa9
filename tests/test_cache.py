"""Tests for the set-associative cache, including a model-based LRU check.

Every cache operation runs in the model kernel (``cpu/_core.c``) on the
caches' flat blocks: the demand hit paths in the core's fetch loop, the
L1 fill in ``CacheHierarchy._fill_l1`` and the L2 fill, its victim's
owner and L1 copy in ``CacheHierarchy._on_fill``.  These tests drive
those paths — a one-core machine over a :class:`ListTrace`
(``tests/machine.py``), or the hierarchy's entry points directly — and
read each set through :meth:`SetAssocCache.lines` (resident ``(tag,
dirty)`` lines, LRU first) and the stats.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import PENDING
from repro.config import SystemConfig
from repro.cpu.trace import MemOp
from tests.machine import SETTLE, make_stack, run_traces


def l1_config(assoc, sets):
    """A one-core Table 1 machine whose L1 has ``assoc`` ways, ``sets`` sets."""
    base = SystemConfig(num_cores=1)
    l1d = replace(base.caches.l1d, size_bytes=assoc * sets * 64, assoc=assoc)
    return replace(base, caches=replace(base.caches, l1d=l1d))


def run_l1(refs, assoc=2, sets=4):
    """Run ``refs`` — ``(byte address, is_write)`` pairs, each fetched
    after the previous one's fill returned — on a one-core machine whose
    L1 has ``assoc`` ways and ``sets`` sets; returns that L1."""
    system = run_traces(
        [[MemOp(SETTLE, addr, is_write) for addr, is_write in refs]],
        config=l1_config(assoc, sets),
    )
    return system.hierarchy.l1d[0]


def l1_stack(assoc=2, sets=4, l2_bytes=None):
    """``(hier, its L1 of core 0)``: the hierarchy of a two-core machine
    with that L1 (and an ``l2_bytes`` L2), driven through its entry
    points."""
    cfg = l1_config(assoc, sets).with_cores(2)
    if l2_bytes is not None:
        l2 = replace(cfg.caches.l2, size_bytes=l2_bytes)
        cfg = replace(cfg, caches=replace(cfg.caches, l2=l2))
    _, _, _, hier = make_stack(config=cfg)
    return hier, hier.l1d[0]


def fill(hier, line, dirty=False, core=0):
    """The L2 hit path's L1 install of byte address ``line``."""
    hier._fill_l1(core, line, dirty, 0)


def miss(hier, line, core=0):
    """A read of byte address ``line`` that missed both caches, run until
    its fill has installed it in the L2 and the core's L1."""
    engine = hier.controller.engine
    assert hier._after_l2_miss(core, line, False, engine.now, None) == PENDING
    engine.run()


def tags(cache, index=0):
    return [tag for tag, _ in cache.lines(index)]


class TestBasics:
    def test_miss_then_hit_after_fill(self):
        c = run_l1([(0, False), (0, False)])
        assert c.stats.hits == 1 and c.stats.misses == 1

    def test_same_line_different_offsets(self):
        c = run_l1([(0, False), (63, False), (64, False)])
        # 63 shares line 0's fill; 64 is the next line
        assert (c.stats.hits, c.stats.misses) == (1, 2)

    def test_lines_of_an_empty_set(self):
        hier, c = l1_stack()
        assert c.lines(0) == [] and c.stats.fills == 0


class TestLru:
    def test_eviction_order(self):
        hier, c = l1_stack(assoc=2, sets=1)
        fill(hier, 0 * 64)
        fill(hier, 1 * 64)
        fill(hier, 2 * 64)  # evicts line 0, the LRU slot
        assert tags(c) == [1, 2]
        assert (c.stats.evictions, c.stats.fills) == (1, 3)

    def test_touch_refreshes_recency(self):
        # a hit on line 0 makes line 1 the LRU victim of line 2's fill
        c = run_l1(
            [(0, False), (64, False), (0, False), (128, False)], assoc=2, sets=1
        )
        assert tags(c) == [0, 2]
        assert c.stats.evictions == 1

    def test_fill_existing_refreshes(self):
        hier, c = l1_stack(assoc=2, sets=1)
        fill(hier, 0 * 64)
        fill(hier, 1 * 64)
        fill(hier, 0 * 64)  # already resident: moves to MRU, no fill
        assert (tags(c), c.stats.fills) == ([1, 0], 2)
        fill(hier, 2 * 64)
        assert tags(c) == [0, 2]

    def test_a_deep_set_evicts_in_lru_order(self):
        hier, c = l1_stack(assoc=8, sets=1)
        for line in range(8):
            fill(hier, line * 64)
        fill(hier, 3 * 64)  # from the middle to MRU
        fill(hier, 8 * 64)
        fill(hier, 9 * 64)
        assert tags(c) == [2, 4, 5, 6, 7, 3, 8, 9]


class TestDirty:
    def test_write_lookup_sets_dirty(self):
        # a load installs line 0 clean; the store hit then dirties it
        c = run_l1([(0, False), (0, True)])
        assert c.stats.hits == 1
        assert c.lines(0) == [(0, True)]

    def test_dirty_eviction_reported(self):
        hier, c = l1_stack(assoc=1, sets=1)
        fill(hier, 0, dirty=True)
        fill(hier, 64)
        assert c.lines(0) == [(1, False)]
        assert (c.stats.evictions, c.stats.dirty_evictions) == (1, 1)

    def test_fill_merges_dirty_flag(self):
        hier, c = l1_stack(assoc=2, sets=1)
        fill(hier, 0, dirty=True)
        fill(hier, 0, dirty=False)  # refresh must not clean the line
        assert c.lines(0) == [(0, True)]
        fill(hier, 64, dirty=False)
        fill(hier, 64, dirty=True)  # ... and a dirty refill dirties it
        assert c.lines(0) == [(0, True), (1, True)]

    def test_dirty_l1_victim_dirties_the_l2_copy_in_place(self):
        # A direct-mapped L1 over an L2 holding lines 0 and 1: evicting
        # dirty line 0 from the L1 dirties the L2's copy without moving it.
        hier, c = l1_stack(assoc=1, sets=1)
        l2 = hier.l2
        stride = (l2._set_mask + 1) * 64
        miss(hier, 0)
        miss(hier, stride)
        assert [t for t, _ in l2.lines(0)] == [0, stride // 64]
        fill(hier, 0, dirty=True)
        fill(hier, stride)  # evicts dirty line 0 from the L1
        assert l2.lines(0) == [(0, True), (stride // 64, False)]
        assert hier.writebacks == 0


class TestInvalidate:
    def test_an_l2_victim_takes_its_owners_l1_copy(self):
        # A one-set L2 (4 ways): the fifth line evicts the first, which
        # leaves core 0's L1 too, closing the gap; its dirty L1 copy goes
        # to memory, billed to core 0.
        hier, c = l1_stack(assoc=4, sets=16, l2_bytes=4 * 64)
        for i in range(4):
            miss(hier, i * 64)
        assert tags(c, 0) == [0] and tags(c, 1) == [1]
        fill(hier, 0, dirty=True)
        miss(hier, 4 * 64)
        assert [t for t, _ in hier.l2.lines(0)] == [1, 2, 3, 4]
        assert c.lines(0) == [] and tags(c, 4) == [4]
        assert hier.writebacks == 1
        assert hier.controller.stats.write_count[0] == 1


class TestSetMapping:
    def test_set_index_uses_line_bits(self):
        hier, c = l1_stack(assoc=2, sets=4)
        for addr in (0, 64, 4 * 64):
            fill(hier, addr)
        # line 1 -> set 1; line 4 wraps onto set 0 beside line 0
        assert [tags(c, i) for i in range(4)] == [[0, 4], [1], [], []]

    def test_distinct_sets_do_not_interfere(self):
        hier, c = l1_stack(assoc=1, sets=4)
        for i in range(4):
            fill(hier, i * 64)
        assert [tags(c, i) for i in range(4)] == [[0], [1], [2], [3]]


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
        assert [cache.lines(i) for i in range(sets)] == [
            list(ref.items()) for ref in model
        ]
        assert (cache.stats.hits, cache.stats.misses) == (hits, len(refs) - hits)
