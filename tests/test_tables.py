"""Tests for ASCII and markdown table rendering."""

import pytest

from repro.analysis.tables import (
    format_cdf_series,
    format_markdown_table,
    format_table,
)


class TestFormatTable:
    def test_contains_headers_and_cells(self):
        text = format_table(["name", "value"], [["alpha", 1.5], ["beta", 2]])
        assert "name" in text
        assert "alpha" in text
        assert "1.500" in text
        assert "2" in text

    def test_title(self):
        text = format_table(["a"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_alignment(self):
        text = format_table(["col"], [["short"], ["much longer cell"]])
        lines = [l for l in text.splitlines() if l.startswith("|")]
        assert len({len(l) for l in lines}) == 1  # all rows same width

    def test_row_width_validated(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            format_table([], [])

    def test_no_rows_ok(self):
        text = format_table(["a"], [])
        assert "a" in text

    def test_missing_statistic_renders_as_dash(self):
        text = format_table(["a", "b"], [[None, 1.5]])
        assert "| - | 1.500 |" in text


class TestFormatMarkdownTable:
    def test_renders_cells_like_the_ascii_table(self):
        text = format_markdown_table(["a", "b"], [[None, 1.5], ["x", 2]])
        assert text == "| a | b |\n|---|---|\n| - | 1.500 |\n| x | 2 |"


class TestFormatCdf:
    def test_downsamples(self):
        xs = [float(i) for i in range(100)]
        ps = [(i + 1) / 100 for i in range(100)]
        text = format_cdf_series("walk", xs, ps, points=5)
        lines = text.splitlines()
        assert lines[0] == "CDF walk:"
        assert 5 <= len(lines) - 1 <= 8

    def test_includes_last_point(self):
        xs = [1.0, 2.0, 3.0]
        ps = [1 / 3, 2 / 3, 1.0]
        text = format_cdf_series("x", xs, ps)
        assert "p=1.00" in text

    def test_validates_lengths(self):
        with pytest.raises(ValueError):
            format_cdf_series("x", [1.0], [0.5, 1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            format_cdf_series("x", [], [])
