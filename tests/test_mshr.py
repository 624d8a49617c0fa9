"""Tests for the MSHR file, through the hierarchy paths that run it.

``CacheHierarchy._after_l2_miss`` allocates and merges entries and
``CacheHierarchy._on_fill`` retires them when the engine delivers the
fill, firing their waiters.
"""

from dataclasses import replace

import pytest

from repro.cache.hierarchy import BLOCKED, MERGED, PENDING
from repro.cache.mshr import MshrFile
from repro.config import SystemConfig
from tests.machine import make_stack, read


def stack(mshrs=4):
    """``(engine, hier, core 0's MSHR file)`` with ``mshrs`` entries per core."""
    base = SystemConfig(num_cores=2)
    caches = replace(base.caches, l1d=replace(base.caches.l1d, mshrs=mshrs))
    _, engine, _, hier = make_stack(config=replace(base, caches=caches))
    return engine, hier, hier.mshrs[0]


def miss(hier, line, waiter=None, now=0):
    return hier._after_l2_miss(0, line, False, now, waiter)


class TestAllocation:
    def test_new_entry(self):
        engine, hier, m = stack()
        assert miss(hier, 0x1000) == PENDING
        assert m.occupancy == 1
        assert 0x1000 in m._entries

    def test_merge_same_line(self):
        engine, hier, m = stack()
        assert miss(hier, 0x1000) == PENDING
        assert miss(hier, 0x1000) == MERGED
        assert m.occupancy == 1
        assert m.merges == 1

    def test_capacity_enforced(self):
        engine, hier, m = stack(mshrs=2)
        miss(hier, 0)
        miss(hier, 64)
        assert m.occupancy == m.capacity
        assert miss(hier, 128) == BLOCKED

    def test_merge_allowed_when_full(self):
        engine, hier, m = stack(mshrs=1)
        miss(hier, 0)
        assert miss(hier, 0) == MERGED  # merge needs no new entry

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            MshrFile(0)


class TestCompletion:
    def test_waiters_fired_in_order(self):
        engine, hier, m = stack()
        fired = []
        miss(hier, 0, lambda line, now: fired.append(("a", line, now)))
        miss(hier, 0, lambda line, now: fired.append(("b", line, now)))
        engine.run()
        done = fired[0][2]
        assert done > 0
        assert fired == [("a", 0, done), ("b", 0, done)]
        assert 0 not in m._entries

    def test_complete_without_waiters(self):
        engine, hier, m = stack()
        miss(hier, 0)
        engine.run()
        assert m.occupancy == 0

    def test_complete_unknown_line_raises(self):
        engine, hier, m = stack()
        with pytest.raises(KeyError):
            hier._on_fill(read(0x2000), 0)

    def test_slot_reusable_after_completion(self):
        engine, hier, m = stack(mshrs=1)
        miss(hier, 0)
        assert miss(hier, 64) == BLOCKED
        engine.run()
        assert miss(hier, 64, now=engine.now) == PENDING


class TestStats:
    def test_peak_occupancy(self):
        engine, hier, m = stack()
        miss(hier, 0)
        miss(hier, 64)
        engine.run()
        miss(hier, 128, now=engine.now)
        assert m.occupancy == 1
        assert m.peak_occupancy == 2
