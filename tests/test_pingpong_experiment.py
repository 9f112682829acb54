"""Tests for the ping-pong (hysteresis) ablation."""

import pytest

from repro.experiments.pingpong import (
    _count_ping_pongs,
    pingpong_headline,
    run_pingpong_trial,
    sweep_time_to_trigger,
)
from repro.net.handover import HandoverRecord


def completed_record(src, dst, t):
    record = HandoverRecord("ue0", src, dst, trigger_s=t)
    record.complete_s = t + 0.05
    return record


class TestPingPongCounter:
    def test_no_records(self):
        assert _count_ping_pongs([]) == 0

    def test_single_handover_no_pingpong(self):
        assert _count_ping_pongs([completed_record("A", "B", 1.0)]) == 0

    def test_immediate_return_counts(self):
        records = [
            completed_record("A", "B", 1.0),
            completed_record("B", "A", 2.0),
        ]
        assert _count_ping_pongs(records) == 1

    def test_forward_progress_not_counted(self):
        records = [
            completed_record("A", "B", 1.0),
            completed_record("B", "C", 2.0),
        ]
        assert _count_ping_pongs(records) == 0

    def test_incomplete_ignored(self):
        incomplete = HandoverRecord("ue0", "B", "A", trigger_s=2.0)
        records = [completed_record("A", "B", 1.0), incomplete]
        assert _count_ping_pongs(records) == 0

    def test_oscillation_chain(self):
        records = [
            completed_record("A", "B", 1.0),
            completed_record("B", "A", 2.0),
            completed_record("A", "B", 3.0),
        ]
        assert _count_ping_pongs(records) == 2


class TestTrials:
    def test_trial_runs(self):
        result = run_pingpong_trial(0.0, seed=3, duration_s=6.0)
        assert result.handovers >= 0
        assert result.ping_pongs <= max(0, result.handovers - 1)

    def test_deterministic(self):
        a = run_pingpong_trial(0.16, seed=9, duration_s=6.0)
        b = run_pingpong_trial(0.16, seed=9, duration_s=6.0)
        assert a == b

    def test_large_ttt_suppresses_handover(self):
        # A TTT longer than the run disables the margin-triggered path;
        # only RLF-forced handovers (which rightly bypass TTT — the
        # serving link is already dead) can remain.
        suppressed = run_pingpong_trial(99.0, seed=3, duration_s=4.0)
        baseline = run_pingpong_trial(0.0, seed=3, duration_s=4.0)
        assert suppressed.handovers <= baseline.handovers


class TestSweep:
    def test_sweep_shape(self):
        sweep = sweep_time_to_trigger(
            ttt_s_values=(0.0, 0.16), n_trials=3, base_seed=8100
        )
        assert set(sweep) == {"ttt=0ms", "ttt=160ms"}
        headlines = [pingpong_headline(trials) for trials in sweep.values()]
        assert len(headlines) == 2
        for headline in headlines:
            assert headline["handovers_per_trial"] >= 0.0

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            sweep_time_to_trigger(n_trials=0)
