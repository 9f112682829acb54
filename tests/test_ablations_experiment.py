"""Tests for the ablation sweep runners (small trial counts)."""

import pytest

from repro.experiments.ablations import (
    sweep_adapt_threshold,
    sweep_codebook_beamwidth,
    sweep_handover_margin,
)
from repro.experiments.fig2c import tracking_headline


def summarize(sweep):
    return {label: tracking_headline(trials) for label, trials in sweep.items()}


class TestHandoverMarginSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return sweep_handover_margin(
            margins_db=(0.0, 6.0), n_trials=4, base_seed=7000
        )

    def test_arms_labeled(self, sweep):
        assert set(sweep) == {"T=0dB", "T=6dB"}

    def test_trials_counted(self, sweep):
        for trials in sweep.values():
            assert len(trials) == 4

    def test_summary_rows(self, sweep):
        summary = summarize(sweep)
        assert len(summary) == 2
        for headline in summary.values():
            assert 0.0 <= headline["completed_per_trial"] <= 1.0


class TestAdaptThresholdSweep:
    def test_runs(self):
        sweep = sweep_adapt_threshold(
            thresholds_db=(3.0,), n_trials=3, base_seed=7100
        )
        assert set(sweep) == {"adapt=3dB"}
        assert summarize(sweep)["adapt=3dB"]["trials"] == 3


class TestCodebookSweep:
    def test_all_kinds(self):
        sweep = sweep_codebook_beamwidth(n_trials=3, base_seed=7200)
        assert set(sweep) == {"narrow", "wide", "omni"}

    def test_narrow_beats_omni(self):
        sweep = sweep_codebook_beamwidth(n_trials=4, base_seed=7300)
        summary = summarize(sweep)
        assert (
            summary["narrow"]["completed_per_trial"]
            >= summary["omni"]["completed_per_trial"]
        )


class TestSummaryShape:
    def test_empty_completed_arm(self):
        # Omni arm often completes nothing; summary must not crash.
        sweep = sweep_codebook_beamwidth(n_trials=2, base_seed=7500)
        for headline in summarize(sweep).values():
            if headline["completed_per_trial"] == 0.0:
                assert headline["mean_completion_s"] is None
