"""Tests for the workload generator."""

import pytest

from repro.core.beamsurfer import BeamSurfer
from repro.core.events import NeighborState
from repro.core.neighbor_tracker import NeighborTracker
from repro.experiments.workloads import (
    detection_duty_cycle,
    generate_rss_trace,
)
from repro.measure.report import RssMeasurement
from repro.phy.codebook import Codebook


class TestGenerate:
    def test_trace_length(self):
        trace = generate_rss_trace(duration_s=1.0, period_s=0.020, seed=3)
        assert len(trace) == 50

    def test_deterministic(self):
        a = generate_rss_trace(seed=9, duration_s=1.0)
        b = generate_rss_trace(seed=9, duration_s=1.0)
        assert a == b

    def test_best_policy_mostly_detects(self):
        trace = generate_rss_trace(
            rx_beam_policy="best", seed=3, duration_s=2.0
        )
        assert detection_duty_cycle(trace) > 0.8

    def test_fixed_beam_loses_signal_under_rotation(self):
        """A static beam under 120 deg/s rotation detects only while the
        beam happens to point at the cell."""
        trace = generate_rss_trace(
            scenario="rotation",
            rx_beam_policy="fixed",
            fixed_rx_beam=0,
            seed=3,
            duration_s=3.0,
        )
        duty = detection_duty_cycle(trace)
        assert duty < 0.6

    def test_distance_recorded(self):
        trace = generate_rss_trace(scenario="walk", seed=1, duration_s=1.0)
        assert all(p.distance_m > 1.0 for p in trace)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            generate_rss_trace(rx_beam_policy="psychic")

    def test_empty_duty_cycle_rejected(self):
        with pytest.raises(ValueError):
            detection_duty_cycle([])


class TestReplay:
    def test_replay_into_tracker(self):
        """A canned detection sequence drives N-A/R -> N-RBA."""
        tracker = NeighborTracker(
            Codebook.uniform_azimuth(20.0), ["cellB"], ewma_alpha=1.0
        )
        tracker.begin_search(0.0)
        beam = tracker.beam_for_burst("cellB")
        canned = [
            RssMeasurement(0.02, "cellB", beam, tx_beam=1,
                           rss_dbm=-60.0, snr_db=12.0),
            RssMeasurement(0.04, "cellB", beam, tx_beam=1,
                           rss_dbm=-61.0, snr_db=11.0),
        ]
        for measurement in canned:
            tracker.on_measurement(measurement, measurement.time_s)
        assert tracker.state is NeighborState.TRACKING

    def test_replay_into_beamsurfer(self):
        surfer = BeamSurfer(Codebook.uniform_azimuth(20.0), 5)
        canned = [
            RssMeasurement(0.00, "cellA", 5, tx_beam=0, rss_dbm=-60.0,
                           snr_db=12.0),
            RssMeasurement(0.02, "cellA", 5, tx_beam=0, rss_dbm=-60.5,
                           snr_db=11.5),
        ]
        for measurement in canned:
            surfer.on_serving_measurement(measurement, measurement.time_s)
        assert surfer.smoothed_rss_dbm is not None
