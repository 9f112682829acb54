"""Tests for the markdown report generator."""

import pytest

from repro.analysis.report import (
    comparison_section,
    fig2a_section,
    fig2c_section,
    generate_report,
)


class TestSections:
    def test_fig2a_section_structure(self):
        text = fig2a_section(n_trials=3, base_seed=6000)
        assert text.startswith("## Fig. 2a")
        assert "| codebook |" in text
        assert "narrow" in text and "omni" in text

    def test_fig2c_section_structure(self):
        text = fig2c_section(n_trials=2, base_seed=6100)
        assert text.startswith("## Fig. 2c")
        for scenario in ("walk", "rotation", "vehicular"):
            assert scenario in text

    def test_comparison_section_structure(self):
        text = comparison_section(n_trials=2, base_seed=6200)
        assert "silent-tracker" in text
        assert "reactive" in text


class TestGenerateReport:
    def test_full_report(self):
        text = generate_report(n_trials=2, base_seed=6300)
        assert text.startswith("# Silent Tracker reproduction report")
        assert "## Fig. 2a" in text
        assert "## Fig. 2c" in text
        assert "## Baseline comparison" in text

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            generate_report(n_trials=0)
