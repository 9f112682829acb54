"""Tests for the Fig. 2a experiment runner (search latency / success)."""

import pytest

from repro.analysis.stats import summarize
from repro.campaign.aggregate import arm_headlines
from repro.campaign.runner import run_campaign
from repro.experiments.fig2a import fig2a_spec, run_search_trial


class TestSearchTrial:
    def test_narrow_search_succeeds(self):
        result = run_search_trial("narrow", seed=3)
        assert result.success
        assert result.dwells >= 1
        assert result.time_to_found_s is not None
        assert result.time_to_found_s <= 1.0

    def test_deterministic_per_seed(self):
        a = run_search_trial("narrow", seed=11)
        b = run_search_trial("narrow", seed=11)
        assert a == b

    def test_seeds_vary_outcome(self):
        dwells = {run_search_trial("narrow", seed=s).dwells for s in range(5)}
        assert len(dwells) > 1

    def test_scenario_field_propagates(self):
        result = run_search_trial("wide", scenario="rotation", seed=1)
        assert result.scenario == "rotation"
        assert result.codebook == "wide"


class TestFig2aAggregate:
    @pytest.fixture(scope="class")
    def results(self):
        spec = fig2a_spec(n_trials=12, base_seed=900)
        return arm_headlines(spec, run_campaign(spec).results_in_order(), "protocol")

    def test_success_ordering(self, results):
        """The paper's headline: narrow > wide >> omni."""
        assert (
            results["narrow"]["successes_per_trial"]
            >= results["wide"]["successes_per_trial"]
        )
        assert (
            results["wide"]["successes_per_trial"]
            > results["omni"]["successes_per_trial"]
        )

    def test_narrow_success_high(self, results):
        assert results["narrow"]["successes_per_trial"] >= 0.9

    def test_omni_success_low(self, results):
        assert results["omni"]["successes_per_trial"] <= 0.3

    def test_latency_summaries_present(self, results):
        latency = summarize(results["narrow"]["dwells"])
        assert latency["count"] > 0
        assert latency["mean"] > 0

    def test_narrow_needs_more_dwells_than_wide(self, results):
        """More beams to walk -> higher median search latency."""
        assert (
            summarize(results["narrow"]["dwells"])["p50"]
            > summarize(results["wide"]["dwells"])["p50"]
        )

    def test_trial_lists_full(self, results):
        for kind in ("narrow", "wide", "omni"):
            assert results[kind]["trials"] == 12

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            fig2a_spec(n_trials=0)
