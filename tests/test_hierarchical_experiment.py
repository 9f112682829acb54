"""Tests for the hierarchical-search extension experiment."""

import pytest

from repro.analysis.stats import summarize
from repro.campaign.aggregate import arm_headlines
from repro.campaign.runner import run_campaign
from repro.experiments.hierarchical import run_hierarchical_trial, strategy_spec


class TestHierarchicalTrial:
    def test_trial_runs(self):
        result = run_hierarchical_trial(seed=3)
        assert result.dwells >= 1
        assert result.stage_reached in (1, 2)

    def test_success_implies_stage2(self):
        for seed in range(5):
            result = run_hierarchical_trial(seed=seed)
            if result.success:
                assert result.stage_reached == 2

    def test_deterministic(self):
        assert run_hierarchical_trial(seed=11) == run_hierarchical_trial(seed=11)


class TestComparison:
    @pytest.fixture(scope="class")
    def results(self):
        spec = strategy_spec(n_trials=10, base_seed=3100)
        return arm_headlines(spec, run_campaign(spec).results_in_order(), "protocol")

    def test_both_strategies_reported(self, results):
        assert set(results) == {"exhaustive", "hierarchical"}

    def test_exhaustive_success_high(self, results):
        assert results["exhaustive"]["successes_per_trial"] >= 0.8

    def test_hierarchical_fewer_dwells_when_it_works(self, results):
        """Two-stage search is cheaper on successful trials."""
        hier = summarize(results["hierarchical"]["dwells"])
        exhaustive = summarize(results["exhaustive"]["dwells"])
        if hier["count"] >= 3 and exhaustive["count"] >= 3:
            assert hier["mean"] <= exhaustive["mean"] + 2.0

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            strategy_spec(n_trials=0)
