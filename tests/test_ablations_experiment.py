"""Tests for the ablation sweep grids (small trial counts)."""

import pytest

from repro.campaign.aggregate import arm_headlines
from repro.campaign.runner import run_campaign
from repro.experiments.ablations import (
    adapt_threshold_spec,
    codebook_beamwidth_spec,
    handover_margin_spec,
)


def run(spec, field):
    return arm_headlines(spec, run_campaign(spec).results_in_order(), field)


class TestHandoverMarginSweep:
    @pytest.fixture(scope="class")
    def summary(self):
        spec = handover_margin_spec(margins_db=(0.0, 6.0), n_trials=4, base_seed=7000)
        return run(spec, "override_label")

    def test_arms_labeled(self, summary):
        assert list(summary) == ["T=0dB", "T=6dB"]

    def test_trials_counted(self, summary):
        for headline in summary.values():
            assert headline["trials"] == 4

    def test_summary_rows(self, summary):
        assert len(summary) == 2
        for headline in summary.values():
            assert 0.0 <= headline["completed_per_trial"] <= 1.0


class TestAdaptThresholdSweep:
    def test_runs(self):
        spec = adapt_threshold_spec(thresholds_db=(3.0,), n_trials=3, base_seed=7100)
        summary = run(spec, "override_label")
        assert set(summary) == {"adapt=3dB"}
        assert summary["adapt=3dB"]["trials"] == 3


class TestCodebookSweep:
    def test_all_kinds(self):
        summary = run(codebook_beamwidth_spec(n_trials=3, base_seed=7200), "protocol")
        assert set(summary) == {"narrow", "wide", "omni"}

    def test_narrow_beats_omni(self):
        summary = run(codebook_beamwidth_spec(n_trials=4, base_seed=7300), "protocol")
        assert (
            summary["narrow"]["completed_per_trial"]
            >= summary["omni"]["completed_per_trial"]
        )


class TestSummaryShape:
    def test_empty_completed_arm(self):
        # Omni arm often completes nothing; summary must not crash.
        summary = run(codebook_beamwidth_spec(n_trials=2, base_seed=7500), "protocol")
        for headline in summary.values():
            if headline["completed_per_trial"] == 0.0:
                assert headline["mean_completion_s"] is None
