"""Unit tests for the deployment wiring."""

import pytest

from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3
from repro.mobility.base import StaticPose
from repro.net.base_station import BaseStation
from repro.net.deployment import Deployment, DeploymentConfig
from repro.net.mobile import Mobile
from repro.phy.codebook import Codebook

from channel_configs import DETERMINISTIC


def make_deployment():
    deployment = Deployment(
        DeploymentConfig(master_seed=1, channel=DETERMINISTIC)
    )
    deployment.add_station(
        BaseStation(
            "cellA",
            Pose(Vec3(0.0, 10.0)),
            Codebook.uniform_azimuth(30.0),
            tx_power_dbm=10.0,
            ssb_phase_s=0.0,
        )
    )
    deployment.add_station(
        BaseStation(
            "cellB",
            Pose(Vec3(20.0, 10.0)),
            Codebook.uniform_azimuth(30.0),
            tx_power_dbm=10.0,
            ssb_phase_s=0.005,
        )
    )
    mobile = deployment.add_mobile(
        Mobile("ue0", StaticPose(Pose(Vec3(10.0, 0.0))),
               Codebook.uniform_azimuth(20.0))
    )
    return deployment, mobile


class CountingListener:
    def __init__(self):
        self.offers = []

    def choose_rx_beam(self, cell_id, now_s):
        self.offers.append((cell_id, now_s))
        return 0

    def on_measurement(self, measurement):
        pass


class TestTopology:
    def test_duplicate_station_rejected(self):
        deployment, _ = make_deployment()
        with pytest.raises(ValueError):
            deployment.add_station(
                BaseStation("cellA", Pose(Vec3(1, 1)),
                            Codebook.uniform_azimuth(30.0))
            )

    def test_duplicate_mobile_rejected(self):
        deployment, _ = make_deployment()
        with pytest.raises(ValueError):
            deployment.add_mobile(
                Mobile("ue0", StaticPose(Pose(Vec3(0, 0))), Codebook.omni())
            )

    def test_lookup(self):
        deployment, mobile = make_deployment()
        assert deployment.station("cellA").cell_id == "cellA"
        assert deployment.mobile("ue0") is mobile
        with pytest.raises(KeyError):
            deployment.station("nope")
        with pytest.raises(KeyError):
            deployment.mobile("nope")

    def test_add_after_start_rejected(self):
        deployment, _ = make_deployment()
        deployment.start()
        with pytest.raises(RuntimeError):
            deployment.add_station(
                BaseStation("cellZ", Pose(Vec3(1, 1)),
                            Codebook.uniform_azimuth(30.0))
            )

    def test_double_start_rejected(self):
        deployment, _ = make_deployment()
        deployment.start()
        with pytest.raises(RuntimeError):
            deployment.start()


class TestBurstDelivery:
    def test_bursts_fire_per_period(self):
        deployment, mobile = make_deployment()
        listener = CountingListener()
        mobile.attach_listener(listener)
        deployment.run(0.1)  # 5 periods of 20 ms
        # Both cells offer a burst every period (phases 0 and 5 ms).
        cell_a = [t for c, t in listener.offers if c == "cellA"]
        cell_b = [t for c, t in listener.offers if c == "cellB"]
        assert len(cell_a) == 6  # t = 0, 20, ..., 100 ms
        assert len(cell_b) == 5  # t = 5, 25, ..., 85 ms

    def test_staggered_phases_no_rf_conflict(self):
        deployment, mobile = make_deployment()
        listener = CountingListener()
        mobile.attach_listener(listener)
        deployment.run(0.2)
        assert mobile.bursts_skipped_busy == 0

    def test_burst_counters(self):
        deployment, mobile = make_deployment()
        mobile.attach_listener(CountingListener())
        deployment.run(0.1)
        assert deployment.metrics.counter("bursts.cellA") == 6
        assert deployment.metrics.counter("bursts.cellB") == 5

    def test_run_auto_starts(self):
        deployment, _ = make_deployment()
        deployment.run(0.05)
        assert deployment.sim.now == pytest.approx(0.05)

    def test_stop_halts_bursts(self):
        deployment, mobile = make_deployment()
        listener = CountingListener()
        mobile.attach_listener(listener)
        deployment.run(0.05)
        count = len(listener.offers)
        deployment.stop()
        # The simulator itself keeps running; no bursts are delivered
        # while the deployment is stopped.
        deployment.sim.run_until(deployment.sim.now + 0.1)
        assert len(listener.offers) == count

    def test_run_after_stop_rearms_bursts(self):
        # Regression: stop() used to leave _started=True, so a later
        # run() silently advanced time with zero bursts forever.
        deployment, mobile = make_deployment()
        listener = CountingListener()
        mobile.attach_listener(listener)
        deployment.run(0.05)
        count = len(listener.offers)
        assert count > 0
        deployment.stop()
        deployment.run(0.1)
        assert len(listener.offers) > count

    def test_stop_on_grid_boundary_does_not_refire_burst(self):
        # Regression: a stop()/run() cycle landing exactly on a
        # station's burst grid used to deliver that boundary burst a
        # second time (next_burst_start(now) is inclusive of now).
        deployment, mobile = make_deployment()
        listener = CountingListener()
        mobile.attach_listener(listener)
        deployment.run(0.04)  # cellA bursts at 0, 0.02, 0.04 delivered
        deployment.stop()
        deployment.run(0.02)  # now 0.06 — one more cellA burst
        times_a = [t for cell, t in listener.offers if cell == "cellA"]
        assert times_a == pytest.approx([0.0, 0.02, 0.04, 0.06])

        # An uninterrupted run sees the identical offer sequence.
        reference, ref_mobile = make_deployment()
        ref_listener = CountingListener()
        ref_mobile.attach_listener(ref_listener)
        reference.run(0.06)
        assert listener.offers == ref_listener.offers

    def test_stop_inside_measurement_callback_does_not_refire(self):
        # Regression: stopping the deployment from within a listener's
        # on_measurement (i.e. inside the burst task's own callback)
        # used to leave next_fire_s at the burst that JUST fired, so an
        # immediate restart delivered the same burst time twice.
        class StopOnceListener(CountingListener):
            def __init__(self, deployment):
                super().__init__()
                self.deployment = deployment
                self.stopped = False

            def on_measurement(self, measurement):
                if not self.stopped and measurement.time_s >= 0.04:
                    self.stopped = True
                    self.deployment.stop()

        deployment, mobile = make_deployment()
        listener = StopOnceListener(deployment)
        mobile.attach_listener(listener)
        deployment.run(0.04)  # stop() fires inside the 0.04 cellA burst
        assert listener.stopped
        count_a = deployment.metrics.counter("bursts.cellA")
        deployment.run(0.02)  # restart at now == 0.04
        # cellA grid points up to 0.06: one more burst, not a re-fired
        # duplicate of 0.04.
        assert deployment.metrics.counter("bursts.cellA") == count_a + 1

    def test_rearmed_bursts_keep_absolute_schedule(self):
        deployment, mobile = make_deployment()
        listener = CountingListener()
        mobile.attach_listener(listener)
        deployment.run(0.032)  # mid-period for both cells
        deployment.stop()
        listener.offers.clear()
        deployment.run(0.05)
        # cellA fires at k * 20 ms, cellB at 5 + k * 20 ms — the grid
        # established at the original start, not re-phased at re-arm.
        for cell_id, now_s in listener.offers:
            phase = 0.0 if cell_id == "cellA" else 0.005
            beats = (now_s - phase) / 0.02
            assert beats == pytest.approx(round(beats), abs=1e-9)
