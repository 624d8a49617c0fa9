"""Tests for the fixed-point codec behind the priority table."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.fixedpoint import FixedPointCodec


class TestFixedPointCodec:
    def test_levels(self):
        assert FixedPointCodec(bits=10, max_value=1.0).levels == 1024
        assert FixedPointCodec(bits=1, max_value=1.0).levels == 2

    def test_zero_maps_to_zero(self):
        c = FixedPointCodec(bits=8, max_value=100.0)
        assert c.encode(0.0) == 0
        assert c.encode(-5.0) == 0

    def test_max_maps_to_top_code(self):
        c = FixedPointCodec(bits=8, max_value=100.0)
        assert c.encode(100.0) == 255

    def test_saturation(self):
        c = FixedPointCodec(bits=8, max_value=100.0)
        assert c.encode(1e9) == 255

    def test_roundtrip_error_bounded(self):
        c = FixedPointCodec(bits=10, max_value=50.0)
        for v in (0.1, 1.0, 7.3, 25.0, 49.9):
            assert abs(c.decode(c.encode(v)) - v) <= c.scale / 2 + 1e-12

    def test_decode_range_check(self):
        c = FixedPointCodec(bits=4, max_value=1.0)
        with pytest.raises(ValueError):
            c.decode(16)
        with pytest.raises(ValueError):
            c.decode(-1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            FixedPointCodec(bits=0, max_value=1.0)
        with pytest.raises(ValueError):
            FixedPointCodec(bits=8, max_value=0.0)

    @given(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.integers(min_value=2, max_value=16),
    )
    def test_encode_always_in_range(self, value, bits):
        c = FixedPointCodec(bits=bits, max_value=1000.0)
        code = c.encode(value)
        assert 0 <= code < c.levels

    @given(
        st.floats(min_value=0.001, max_value=999.0, allow_nan=False),
        st.floats(min_value=0.001, max_value=999.0, allow_nan=False),
    )
    def test_encode_monotone(self, a, b):
        c = FixedPointCodec(bits=10, max_value=1000.0)
        lo, hi = min(a, b), max(a, b)
        assert c.encode(lo) <= c.encode(hi)
