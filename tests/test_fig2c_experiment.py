"""Tests for the Fig. 2c experiment runner (handover completion CDF)."""

import math

import pytest

from repro.api import Session
from repro.campaign.aggregate import arm_headlines
from repro.campaign.runner import run_campaign
from repro.experiments.fig2c import (
    SERVING_CELL,
    TrackingTrialResult,
    fig2c_spec,
    run_tracking_trial,
)
from repro.net.handover import HandoverOutcome


class TestTrackingTrial:
    def test_walk_completes(self):
        result = run_tracking_trial("walk", seed=3)
        assert result.completed
        assert result.completion_time_s > 0
        assert result.outcome in (HandoverOutcome.SOFT, HandoverOutcome.HARD)

    def test_deterministic_per_seed(self):
        a = run_tracking_trial("rotation", seed=4)
        b = run_tracking_trial("rotation", seed=4)
        assert a == b

    def test_tracking_time_bounded_by_completion(self):
        result = run_tracking_trial("walk", seed=3)
        assert result.tracking_time_s <= result.completion_time_s

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_tracking_trial("swimming", seed=1)


def _full_horizon_trial(scenario, seed, duration_s=None):
    """Reference: the whole horizon in one ``Session.run()`` call."""
    with Session(
        scenario=scenario,
        protocol="silent-tracker",
        seed=seed,
        duration_s=duration_s,
        serving_cell=SERVING_CELL,
    ) as session:
        protocol = session.attach_protocol()
        session.run()
    timeline = next(
        (t for t in protocol.timelines if t.complete_s is not None), None
    )
    record = next(
        (r for r in protocol.handover_log.records if r.complete_s is not None),
        None,
    )
    return TrackingTrialResult(
        scenario=scenario,
        seed=seed,
        completed=timeline is not None,
        completion_time_s=timeline.completion_time_s if timeline else None,
        tracking_time_s=timeline.tracking_time_s if timeline else None,
        outcome=timeline.outcome if timeline else None,
        beam_switches=timeline.beam_switches_while_tracking if timeline else 0,
        reacquisitions=timeline.reacquisitions if timeline else 0,
        interruption_s=record.interruption_s if record else None,
        rach_attempts=record.rach_attempts if record else 0,
    )


class TestEarlyStop:
    """A trial ends once its reported episode is final, with the same result."""

    # Rotation seed 200 never completes its episode, so one case runs
    # the whole horizon in slices.
    @pytest.mark.parametrize("scenario", ["walk", "rotation", "vehicular"])
    @pytest.mark.parametrize("seed", [200, 202, 7])
    def test_matches_full_horizon(self, scenario, seed):
        assert run_tracking_trial(scenario, seed=seed) == _full_horizon_trial(
            scenario, seed
        )

    @pytest.mark.parametrize("scenario", ["walk", "vehicular"])
    def test_short_duration_matches(self, scenario):
        result = run_tracking_trial(scenario, seed=3, duration_s=0.1)
        assert not result.completed
        assert result == _full_horizon_trial(scenario, 3, duration_s=0.1)

    def _clock_at_end(self, monkeypatch, scenario, seed):
        """Run a trial; return its result, its session and the final clock."""
        sessions = []
        real_run = Session.run

        def recording_run(session, duration=None):
            sessions.append(session)
            return real_run(session, duration)

        monkeypatch.setattr(Session, "run", recording_run)
        result = run_tracking_trial(scenario, seed=seed)
        session = sessions[-1]
        return result, session, session.deployment.sim.now

    @pytest.mark.parametrize("scenario", ["walk", "rotation", "vehicular"])
    def test_stops_within_one_period_of_completion(self, monkeypatch, scenario):
        result, session, end_s = self._clock_at_end(monkeypatch, scenario, 202)
        assert result.completed
        complete_s = next(
            t.complete_s
            for t in session.protocol.timelines
            if t.complete_s is not None
        )
        period_s = session.deployment.stations[0].frame.ssb_period_s
        assert complete_s <= end_s < complete_s + period_s
        assert end_s < session.spec.resolved_duration_s

    def test_uncompleted_trial_ends_on_the_horizon(self, monkeypatch):
        result, session, end_s = self._clock_at_end(monkeypatch, "rotation", 200)
        assert not result.completed
        assert end_s == session.spec.resolved_duration_s

    @pytest.mark.parametrize("duration_s", [math.nan, math.inf])
    def test_non_finite_duration_rejected(self, duration_s):
        with pytest.raises(ValueError, match="finite"):
            run_tracking_trial("vehicular", duration_s=duration_s)


class TestFig2cAggregate:
    @pytest.fixture(scope="class")
    def results(self):
        spec = fig2c_spec(n_trials=8, base_seed=950)
        return arm_headlines(spec, run_campaign(spec).results_in_order(), "scenario")

    def test_all_scenarios_present(self, results):
        assert set(results) == {"walk", "rotation", "vehicular"}

    def test_high_completion_rate(self, results):
        """Silent Tracker succeeds in all three mobility scenarios."""
        for scenario, data in results.items():
            assert data["completed_per_trial"] >= 0.75, scenario

    def test_mostly_soft(self, results):
        for scenario, data in results.items():
            assert data["soft_per_completed"] >= 0.5, scenario

    def test_times_in_paper_band(self, results):
        """Fig. 2c's x-axis spans ~0.4-1.8 s; our distribution must be
        of that order (sub-second to a few seconds, never minutes)."""
        for scenario, data in results.items():
            for t in data["completion_times_s"]:
                assert 0.05 < t < 5.0, (scenario, t)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            fig2c_spec(n_trials=0)
