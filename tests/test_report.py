"""Tests for the text-rendering helpers."""

import pytest

from repro.metrics.report import bar, bar_chart, histogram


class TestBar:
    def test_full_scale(self):
        assert bar(1.0, 1.0, width=10) == "#" * 10

    def test_half_scale(self):
        assert bar(0.5, 1.0, width=10) == "#" * 5

    def test_clamps(self):
        assert bar(5.0, 1.0, width=10) == "#" * 10
        assert bar(-1.0, 1.0, width=10) == ""

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            bar(1.0, 0.0)


class TestBarChart:
    def test_renders_all_labels(self):
        out = bar_chart({"HF-RF": 2.0, "ME-LREQ": 2.5})
        assert "HF-RF" in out and "ME-LREQ" in out
        assert out.count("\n") == 1

    def test_longest_value_fills_width(self):
        out = bar_chart({"a": 2.0, "b": 1.0}, width=8)
        lines = out.splitlines()
        assert lines[0].count("#") == 8
        assert lines[1].count("#") == 4

    def test_empty(self):
        assert bar_chart({}) == "(no data)"

    def test_all_zero(self):
        out = bar_chart({"a": 0.0})
        assert "a" in out


class TestHistogram:
    def test_bins_cover_range(self):
        out = histogram([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], bins=5)
        assert out.count("\n") == 4

    def test_all_equal(self):
        assert "x3" in histogram([7.0, 7.0, 7.0])

    def test_empty(self):
        assert histogram([]) == "(no data)"

    def test_counts_sum(self):
        vals = list(range(100))
        out = histogram(vals, bins=4)
        total = sum(int(line.split(")")[1].split()[0]) for line in out.splitlines())
        assert total == 100

    def test_bad_bins(self):
        with pytest.raises(ValueError):
            histogram([1.0], bins=0)
