"""Tests for repro.util.rng — determinism and stream independence."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.util.rng import RngStream, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_label_sensitivity(self):
        assert derive_seed(42, "a", 1) != derive_seed(42, "a", 2)
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_is_63_bit_nonnegative(self):
        for s in range(20):
            v = derive_seed(s, "lbl")
            assert 0 <= v < 2**63

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    def test_stable_across_calls(self, seed, label):
        assert derive_seed(seed, label) == derive_seed(seed, label)


class TestRngStream:
    def test_reproducible_sequence(self):
        a = RngStream(7, "core", 0)
        b = RngStream(7, "core", 0)
        assert [a.randint(0, 2**62) for _ in range(10)] == [
            b.randint(0, 2**62) for _ in range(10)
        ]

    def test_distinct_labels_distinct_streams(self):
        a = RngStream(7, "core", 0)
        b = RngStream(7, "core", 1)
        assert [a.randint(0, 2**62) for _ in range(5)] != [
            b.randint(0, 2**62) for _ in range(5)
        ]

    def test_child_derivation(self):
        parent = RngStream(7, "sys")
        c1 = parent.child("ctrl")
        c2 = RngStream(7, "sys", "ctrl")
        assert [c1.randint(0, 2**62) for _ in range(5)] == [
            c2.randint(0, 2**62) for _ in range(5)
        ]

    def test_randint_range(self):
        rng = RngStream(1)
        vals = [rng.randint(3, 9) for _ in range(200)]
        assert all(3 <= v < 9 for v in vals)
        assert set(vals) == set(range(3, 9))  # all values reachable

    def test_geometric_positive(self):
        rng = RngStream(1)
        vals = [rng.geometric(0.3) for _ in range(500)]
        assert all(v >= 1 for v in vals)
        # mean of geometric(p) is 1/p
        assert 2.0 < np.mean(vals) < 5.0

    def test_geometric_clamps_bad_p(self):
        rng = RngStream(1)
        assert rng.geometric(5.0) == 1  # p clamped to 1
        assert rng.geometric(0.0) >= 1  # p clamped above 0
