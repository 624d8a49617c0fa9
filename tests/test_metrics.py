"""Tests for the evaluation metrics."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.memory_efficiency import memory_efficiency
from repro.metrics.speedup import slowdowns, smt_speedup, unfairness

ipc_lists = st.lists(
    st.floats(min_value=0.01, max_value=8.0, allow_nan=False), min_size=1, max_size=8
)


class TestSmtSpeedup:
    def test_ideal_n_core(self):
        assert smt_speedup([1.0, 2.0], [1.0, 2.0]) == pytest.approx(2.0)

    def test_half_speed(self):
        assert smt_speedup([0.5, 1.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            smt_speedup([1.0], [1.0, 2.0])

    def test_zero_ipc_rejected(self):
        with pytest.raises(ValueError):
            smt_speedup([0.0], [1.0])
        with pytest.raises(ValueError):
            smt_speedup([1.0], [0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            smt_speedup([], [])

    @given(ipc_lists)
    def test_bounded_by_core_count(self, singles):
        # running multiprogrammed can't beat running alone per-core here
        multi = [s * 0.9 for s in singles]
        assert smt_speedup(multi, singles) <= len(singles)


class TestUnfairness:
    def test_perfectly_fair(self):
        assert unfairness([0.5, 1.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_starved_core(self):
        # core 1 at 10% of solo, core 0 at 100%
        assert unfairness([1.0, 0.2], [1.0, 2.0]) == pytest.approx(10.0)

    def test_slowdowns(self):
        assert slowdowns([0.5, 1.0], [1.0, 3.0]) == (2.0, 3.0)

    @given(ipc_lists)
    def test_at_least_one(self, singles):
        multi = [s / 2 for s in singles]
        assert unfairness(multi, singles) >= 1.0


class TestMemoryEfficiency:
    def test_eq1(self):
        assert memory_efficiency(1.5, 3.0) == 0.5

    def test_zero_bandwidth_capped(self):
        assert memory_efficiency(2.0, 0.0) == 1e5

    def test_cap_applied(self):
        assert memory_efficiency(1e7, 1.0, cap=100.0) == 100.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            memory_efficiency(-1.0, 1.0)


class TestReservoirSampler:
    def test_keeps_everything_under_capacity(self):
        from repro.metrics.stats import ReservoirSampler

        r = ReservoirSampler(10)
        for x in range(5):
            r.add(float(x))
        assert sorted(r.sample) == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_capacity_bound(self):
        from repro.metrics.stats import ReservoirSampler

        r = ReservoirSampler(8)
        for x in range(1000):
            r.add(float(x))
        assert len(r.sample) == 8
        assert r.seen == 1000

    def test_percentiles_plausible(self):
        from repro.metrics.stats import ReservoirSampler

        r = ReservoirSampler(512, seed=3)
        for x in range(10_000):
            r.add(float(x))
        assert 3500 < r.percentile(50) < 6500
        assert r.percentile(0) <= r.percentile(100)

    def test_percentile_validation(self):
        from repro.metrics.stats import ReservoirSampler

        r = ReservoirSampler(4)
        with pytest.raises(ValueError):
            r.percentile(50)  # empty
        r.add(1.0)
        with pytest.raises(ValueError):
            r.percentile(101)

    def test_deterministic(self):
        from repro.metrics.stats import ReservoirSampler

        a, b = ReservoirSampler(8, seed=5), ReservoirSampler(8, seed=5)
        for x in range(200):
            a.add(float(x))
            b.add(float(x))
        assert a.sample == b.sample

    def test_clear(self):
        from repro.metrics.stats import ReservoirSampler

        r = ReservoirSampler(4)
        r.add(1.0)
        r.clear()
        assert r.sample == [] and r.seen == 0
