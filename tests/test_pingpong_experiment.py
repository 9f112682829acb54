"""Tests for the ping-pong (hysteresis) ablation."""

import pytest

from repro.campaign.aggregate import arm_headlines
from repro.campaign.runner import run_campaign
from repro.core.config import SilentTrackerConfig
from repro.experiments.pingpong import (
    _run_loiter_trial,
    count_ping_pongs,
    pingpong_spec,
)
from repro.net.handover import HandoverRecord


def completed_record(src, dst, t):
    record = HandoverRecord("ue0", src, dst, trigger_s=t)
    record.complete_s = t + 0.05
    return record


class TestPingPongCounter:
    def test_no_records(self):
        assert count_ping_pongs([]) == 0

    def test_single_handover_no_pingpong(self):
        assert count_ping_pongs([completed_record("A", "B", 1.0)]) == 0

    def test_immediate_return_counts(self):
        records = [
            completed_record("A", "B", 1.0),
            completed_record("B", "A", 2.0),
        ]
        assert count_ping_pongs(records) == 1

    def test_forward_progress_not_counted(self):
        records = [
            completed_record("A", "B", 1.0),
            completed_record("B", "C", 2.0),
        ]
        assert count_ping_pongs(records) == 0

    def test_incomplete_ignored(self):
        incomplete = HandoverRecord("ue0", "B", "A", trigger_s=2.0)
        records = [completed_record("A", "B", 1.0), incomplete]
        assert count_ping_pongs(records) == 0

    def test_oscillation_chain(self):
        records = [
            completed_record("A", "B", 1.0),
            completed_record("B", "A", 2.0),
            completed_record("A", "B", 3.0),
        ]
        assert count_ping_pongs(records) == 2


class TestTrials:
    def test_trial_runs(self):
        result = _run_loiter_trial(
            SilentTrackerConfig(time_to_trigger_s=0.0), seed=3, duration_s=6.0
        )
        assert result.handovers >= 0
        assert result.ping_pongs <= max(0, result.handovers - 1)

    def test_deterministic(self):
        a = _run_loiter_trial(
            SilentTrackerConfig(time_to_trigger_s=0.16), seed=9, duration_s=6.0
        )
        b = _run_loiter_trial(
            SilentTrackerConfig(time_to_trigger_s=0.16), seed=9, duration_s=6.0
        )
        assert a == b

    def test_large_ttt_suppresses_handover(self):
        # A TTT longer than the run disables the margin-triggered path;
        # only RLF-forced handovers (which rightly bypass TTT — the
        # serving link is already dead) can remain.
        suppressed = _run_loiter_trial(
            SilentTrackerConfig(time_to_trigger_s=99.0), seed=3, duration_s=4.0
        )
        baseline = _run_loiter_trial(
            SilentTrackerConfig(time_to_trigger_s=0.0), seed=3, duration_s=4.0
        )
        assert suppressed.handovers <= baseline.handovers


class TestSweep:
    def test_sweep_shape(self):
        spec = pingpong_spec(ttt_s_values=(0.0, 0.16), n_trials=3, base_seed=8100)
        headlines = arm_headlines(
            spec, run_campaign(spec).results_in_order(), "override_label"
        )
        assert set(headlines) == {"ttt=0ms", "ttt=160ms"}
        for headline in headlines.values():
            assert headline["handovers_per_trial"] >= 0.0

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            pingpong_spec(n_trials=0)
