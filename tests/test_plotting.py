"""Tests for the ASCII plotting helpers."""

import pytest

from repro.analysis.plotting import ascii_cdf_plot, sparkline


class TestSparkline:
    def test_monotone_series(self):
        line = sparkline([0, 1, 2, 3])
        assert line == "▁▃▅█"
        # Heights never decrease for a monotone series.
        levels = [" ▁▂▃▄▅▆▇█".index(c) for c in line]
        assert levels == sorted(levels)

    def test_constant_series(self):
        line = sparkline([5.0, 5.0, 5.0])
        assert len(line) == 3
        assert len(set(line)) == 1

    def test_length_matches(self):
        assert len(sparkline(list(range(17)))) == 17

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sparkline([])


class TestCdfPlot:
    def test_contains_axes_and_legend(self):
        plot = ascii_cdf_plot({"walk": [0.2, 0.4, 0.9], "rot": [0.3, 0.5]})
        assert "1.00 |" in plot
        assert "walk" in plot and "rot" in plot

    def test_markers_present(self):
        plot = ascii_cdf_plot({"a": [1.0, 2.0, 3.0]})
        assert "*" in plot

    def test_distinct_markers_per_series(self):
        plot = ascii_cdf_plot({"a": [1.0, 2.0], "b": [1.5, 2.5]})
        assert "*" in plot and "o" in plot

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_cdf_plot({})
        with pytest.raises(ValueError):
            ascii_cdf_plot({"a": []})

