"""Unit tests for the four-step random-access procedure."""

import pytest

from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3
from repro.mobility.base import StaticPose
from repro.net.base_station import BaseStation
from repro.net.link_engine import LinkEngine
from repro.net.mobile import Mobile
from repro.net.random_access import (
    RachOutcome,
    RandomAccessProcedure,
)
from repro.phy.channel import Channel
from repro.phy.codebook import Codebook
from repro.phy.frame import RachConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder

from channel_configs import DETERMINISTIC


def make_setup(tx_power=10.0, mobile_at=Vec3(10.0, 0.0), seed=1):
    sim = Simulator()
    registry = RngRegistry(seed)
    links = LinkEngine(Channel(DETERMINISTIC, registry), registry)
    station = BaseStation(
        "cellB",
        Pose(Vec3(0.0, 10.0)),
        Codebook.uniform_azimuth(20.0),
        tx_power_dbm=tx_power,
    )
    mobile = Mobile("ue0", StaticPose(Pose(mobile_at)), Codebook.uniform_azimuth(20.0))
    return sim, links, station, mobile


def run_rach(sim, links, station, mobile, mobile_beam, station_beam,
             config=None, trace=None):
    results = []
    procedure = RandomAccessProcedure(
        sim,
        links,
        station,
        mobile,
        config or RachConfig(),
        (lambda: mobile_beam) if not callable(mobile_beam) else mobile_beam,
        (lambda: station_beam) if not callable(station_beam) else station_beam,
        results.append,
        trace=trace,
    )
    procedure.start()
    sim.run_until(5.0)
    return procedure, results


class TestSuccessPath:
    def test_aligned_beams_succeed_first_attempt(self):
        sim, links, station, mobile = make_setup()
        mobile_beam = mobile.best_rx_beam_towards(station, 0.0)
        station_beam = station.best_tx_beam_towards(
            station.pose.bearing_to(mobile.pose_at(0.0).position)
        )
        procedure, results = run_rach(
            sim, links, station, mobile, mobile_beam, station_beam
        )
        assert len(results) == 1
        result = results[0]
        assert result.outcome is RachOutcome.SUCCESS
        assert result.attempts == 1

    def test_completion_time_includes_occasion_wait(self):
        sim, links, station, mobile = make_setup()
        config = RachConfig()
        mobile_beam = mobile.best_rx_beam_towards(station, 0.0)
        station_beam = station.best_tx_beam_towards(
            station.pose.bearing_to(mobile.pose_at(0.0).position)
        )
        _, results = run_rach(
            sim, links, station, mobile, mobile_beam, station_beam, config
        )
        result = results[0]
        # One successful attempt: msg1 at the occasion, then the msg2,
        # msg3 and msg4 delays.
        expected = config.next_occasion(0.0) + (
            config.response_delay_s + config.msg3_delay_s + config.msg4_delay_s
        )
        assert result.end_s == pytest.approx(expected)

    def test_trace_records_messages(self):
        sim, links, station, mobile = make_setup()
        trace = TraceRecorder()
        mobile_beam = mobile.best_rx_beam_towards(station, 0.0)
        station_beam = station.best_tx_beam_towards(
            station.pose.bearing_to(mobile.pose_at(0.0).position)
        )
        run_rach(sim, links, station, mobile, mobile_beam, station_beam,
                 trace=trace)
        for category in ("rach.msg1", "rach.msg2", "rach.msg3", "rach.msg4",
                         "rach.complete"):
            assert any(e.category == category for e in trace.events)


class TestFailurePath:
    def test_no_beam_fails_after_max_attempts(self):
        sim, links, station, mobile = make_setup()
        config = RachConfig(max_attempts=3)
        procedure, results = run_rach(
            sim, links, station, mobile, lambda: None, lambda: None, config
        )
        assert results[0].outcome is RachOutcome.FAILURE
        assert results[0].attempts == 3

    def test_misaligned_beams_fail(self):
        sim, links, station, mobile = make_setup(tx_power=0.0)
        best = mobile.best_rx_beam_towards(station, 0.0)
        opposite = (best + 9) % 18
        config = RachConfig(max_attempts=2)
        _, results = run_rach(
            sim, links, station, mobile, opposite, 0, config
        )
        assert results[0].outcome is RachOutcome.FAILURE

    def test_beam_restored_mid_procedure_recovers(self):
        """Losing the beam costs attempts; restoring it lets RACH finish."""
        sim, links, station, mobile = make_setup()
        good_beam = mobile.best_rx_beam_towards(station, 0.0)
        station_beam = station.best_tx_beam_towards(
            station.pose.bearing_to(mobile.pose_at(0.0).position)
        )
        calls = {"n": 0}

        def flaky_beam():
            calls["n"] += 1
            return None if calls["n"] <= 1 else good_beam

        _, results = run_rach(
            sim, links, station, mobile, flaky_beam, station_beam
        )
        result = results[0]
        assert result.outcome is RachOutcome.SUCCESS
        assert result.attempts >= 2

    def test_cannot_start_twice(self):
        sim, links, station, mobile = make_setup()
        procedure = RandomAccessProcedure(
            sim, links, station, mobile, RachConfig(),
            lambda: 0, lambda: 0, lambda r: None,
        )
        procedure.start()
        with pytest.raises(RuntimeError):
            procedure.start()
