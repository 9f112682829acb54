"""Tests for the protocol comparison runner (small trial counts)."""

import pytest

from repro.experiments.comparison import (
    ComparisonTrialResult,
    comparison_headline,
    run_comparison,
    run_comparison_trial,
)


class TestComparisonTrial:
    def test_silent_tracker_trial(self):
        result = run_comparison_trial("silent-tracker", "walk", seed=3)
        assert result.protocol == "silent-tracker"
        assert result.handovers_completed >= 1
        assert result.soft_handovers >= 1

    def test_reactive_trial_only_hard(self):
        result = run_comparison_trial("reactive", "vehicular", seed=3)
        assert result.soft_handovers == 0

    def test_deterministic(self):
        a = run_comparison_trial("oracle", "walk", seed=5)
        b = run_comparison_trial("oracle", "walk", seed=5)
        assert a == b


class TestComparisonAggregate:
    @pytest.fixture(scope="class")
    def results(self):
        return run_comparison(scenario="vehicular", n_trials=4, base_seed=7600)

    def test_protocol_arms(self, results):
        assert set(results) == {"silent-tracker", "reactive", "oracle"}

    @pytest.fixture(scope="class")
    def summary(self, results):
        return {
            protocol: comparison_headline(trials)
            for protocol, trials in results.items()
        }

    def test_summary_interruption_gap(self, summary):
        tracker = summary["silent-tracker"]["mean_first_interruption_s"]
        reactive = summary["reactive"]["mean_first_interruption_s"]
        if tracker is not None and reactive is not None:
            assert tracker < reactive

    def test_summary_soft_ratios(self, summary):
        if summary["silent-tracker"]["soft_per_resolved"] is not None:
            assert summary["silent-tracker"]["soft_per_resolved"] > 0.5
        if summary["reactive"]["soft_per_resolved"] is not None:
            assert summary["reactive"]["soft_per_resolved"] == 0.0


class TestComparisonHeadline:
    def trial(self, soft, hard, interruption):
        return ComparisonTrialResult(
            protocol="arm", scenario="walk", seed=1,
            handovers_completed=soft + hard, soft_handovers=soft,
            hard_handovers=hard, first_interruption_s=interruption,
        )

    def test_soft_is_a_count_and_soft_per_resolved_a_ratio(self):
        headline = comparison_headline(
            [self.trial(2, 1, 0.02), self.trial(0, 1, 0.9), self.trial(0, 0, None)]
        )
        assert headline["soft"] == 2
        assert headline["hard"] == 2
        assert headline["soft_per_resolved"] == 0.5
        assert headline["completed_any"] == 2
        assert headline["first_interruptions_s"] == (0.02, 0.9)
        assert headline["mean_first_interruption_s"] == (0.02 + 0.9) / 2

    def test_no_resolved_handover_has_no_ratio(self):
        headline = comparison_headline([self.trial(0, 0, None)])
        assert headline["soft_per_resolved"] is None
        assert headline["mean_first_interruption_s"] is None
