"""Vectorized burst evaluation against a per-dwell oracle.

The vectorized burst path's contract is *bit-for-bit* equality with a
loop of one :meth:`Channel.rss_dbm` call per transmit dwell, including
RNG stream state: any drift here silently changes every artifact.
These tests pin the contract at every layer — antenna patterns,
codebook gains, fading/shadowing stream order, channel burst
evaluation, the full link engine (against :func:`oracle_measure_burst`,
the per-dwell loop kept here as a test fixture), and finally
trace-level campaign artifacts.
"""

import math

import numpy as np
import pytest

from repro.experiments.scenarios import build_cell_edge_deployment
from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3
from repro.measure.report import RssMeasurement
from repro.net.link_engine import LinkEngine
from repro.phy.antenna import (
    AntennaPattern,
    GaussianBeamPattern,
    OmniPattern,
)
from repro.phy.channel import Channel, ChannelConfig
from repro.phy.codebook import Beam, Codebook
from repro.phy.fading import NoFading, RicianFading
from repro.phy.link import LinkBudget
from repro.phy.shadowing import ShadowingProcess
from repro.sim.rng import RngRegistry

from channel_configs import DETERMINISTIC

#: Angles that stress the ±pi seam alongside generic offsets.
SEAM_ANGLES = [0.0, math.pi, -math.pi, 2.0 * math.pi, -2.0 * math.pi,
               0.5 * math.pi, -0.5 * math.pi, 3.75, -3.75]


def oracle_measure_burst(
    links, station, mobile_id, mobile_pose, rx_gain_fn, rx_beam, time_s,
):
    """Per-dwell reference for :meth:`LinkEngine.measure_burst`.

    One :meth:`Channel.rss_dbm` call per transmit dwell, in sweep order;
    the strongest detected dwell wins, ties to the earliest.  Same
    signature as the method (``links`` in the ``self`` slot), so tests
    can patch it in for the whole simulator.
    """
    budget = station.link_budget
    bearing_to_mobile = station.pose.bearing_to(mobile_pose.position)
    rx_gain = rx_gain_fn(rx_beam, mobile_pose.bearing_to(station.pose.position))
    link = links.link_id(station.cell_id, mobile_id)
    best_rss = best_tx = None
    for tx_beam in station.schedule.beams_in_burst():
        rss = links.channel.rss_dbm(
            link, time_s, station.pose, mobile_pose,
            station.tx_gain_dbi(tx_beam, bearing_to_mobile), rx_gain,
            station.tx_power_dbm,
        )
        if budget.snr_db(rss) < budget.detection_snr_db:
            continue
        if best_rss is None or rss > best_rss:
            best_rss, best_tx = rss, tx_beam
    if best_rss is None:
        return RssMeasurement(time_s, station.cell_id, rx_beam)
    return RssMeasurement(
        time_s, station.cell_id, rx_beam, tx_beam=best_tx, rss_dbm=best_rss,
        snr_db=budget.snr_db(best_rss),
    )


def patch_in_oracle(monkeypatch):
    """Route every ``LinkEngine.measure_burst`` through the oracle.

    Returns the call log, so a test can prove the oracle ran.
    """
    calls = []

    def measure(links, *args, **kwargs):
        calls.append(1)
        return oracle_measure_burst(links, *args, **kwargs)

    monkeypatch.setattr(LinkEngine, "measure_burst", measure)
    return calls


def _stream_states(registry):
    return {
        name: registry.stream(name).bit_generator.state
        for name in registry.stream_names()
    }


def _patterns():
    return [
        GaussianBeamPattern(math.radians(20.0)),
        GaussianBeamPattern(math.radians(60.0)),
        OmniPattern(),
    ]


class TestPatternArrays:
    @pytest.mark.parametrize("pattern", _patterns(), ids=repr)
    def test_bit_identical_to_scalar(self, pattern):
        rng = np.random.default_rng(17)
        offsets = np.concatenate([rng.uniform(-7.0, 7.0, 512), SEAM_ANGLES])
        vectorized = pattern.gain_dbi_array(offsets)
        scalar = np.array([pattern.gain_dbi(float(o)) for o in offsets])
        assert np.array_equal(vectorized, scalar)

    @pytest.mark.parametrize("pattern", _patterns(), ids=repr)
    def test_preserves_shape(self, pattern):
        offsets = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
        assert pattern.gain_dbi_array(offsets).shape == (2, 3)

    @pytest.mark.parametrize("pattern", _patterns(), ids=repr)
    def test_empty_input_is_float64(self, pattern):
        empty = pattern.gain_dbi_array(np.array([]))
        assert empty.shape == (0,)
        assert empty.dtype == np.float64

    def test_default_implementation_contract(self):
        class Linear(AntennaPattern):
            def gain_dbi(self, offset_rad):
                return 2.0 * offset_rad

            @property
            def peak_gain_dbi(self):
                return 0.0

            @property
            def beamwidth_rad(self):
                return 1.0

        pattern = Linear()
        gains = pattern.gain_dbi_array(np.ones((3, 2)))
        assert gains.shape == (3, 2)
        assert np.array_equal(gains, np.full((3, 2), 2.0))
        empty = pattern.gain_dbi_array([])
        assert empty.dtype == np.float64 and empty.shape == (0,)


class TestCodebookBatch:
    @pytest.mark.parametrize("kind", ["narrow", "wide", "omni"])
    def test_gains_match_scalar(self, kind):
        from repro.experiments.scenarios import make_mobile_codebook

        codebook = make_mobile_codebook(kind)
        for azimuth in np.random.default_rng(3).uniform(-4.0, 4.0, 100):
            batch = codebook.gains_dbi(float(azimuth))
            scalar = [codebook.gain_dbi(i, float(azimuth)) for i in range(len(codebook))]
            assert list(batch) == scalar

    def test_index_subset(self):
        codebook = Codebook.uniform_azimuth(20.0)
        subset = codebook.gains_dbi(0.3, [0, 5, 17])
        assert list(subset) == [codebook.gain_dbi(i, 0.3) for i in (0, 5, 17)]
        with pytest.raises(IndexError):
            codebook.gains_dbi(0.3, [99])

    def test_mixed_patterns_grouped(self):
        narrow = GaussianBeamPattern(math.radians(20.0))
        wide = GaussianBeamPattern(math.radians(60.0))
        beams = [
            Beam(0, -1.0, narrow),
            Beam(1, 0.0, wide),
            Beam(2, 1.0, narrow),
        ]
        codebook = Codebook(beams)
        batch = codebook.gains_dbi(0.25)
        assert list(batch) == [b.gain_dbi(0.25) for b in beams]
        subset = codebook.gains_dbi(0.25, [2, 0])
        assert list(subset) == [beams[2].gain_dbi(0.25), beams[0].gain_dbi(0.25)]

    def test_wrap_point_ring_accepted(self):
        pattern = GaussianBeamPattern(math.radians(72.0))
        ring_deg = (90.0, 162.0, -126.0, -54.0, 18.0)  # crosses ±180°
        codebook = Codebook(
            [Beam(i, math.radians(d), pattern) for i, d in enumerate(ring_deg)]
        )
        assert len(codebook) == 5

    def test_shuffled_ring_rejected(self):
        pattern = GaussianBeamPattern(math.radians(72.0))
        bad_deg = (90.0, -126.0, 162.0, -54.0, 18.0)  # two wrap points
        with pytest.raises(ValueError):
            Codebook(
                [Beam(i, math.radians(d), pattern) for i, d in enumerate(bad_deg)]
            )


class TestStreamOrder:
    @pytest.mark.parametrize("k_db", [10.0, 3.0])
    def test_fading_array_matches_scalar_sequence(self, k_db):
        batch_fading = RicianFading(k_db, np.random.default_rng(9))
        scalar_fading = RicianFading(k_db, np.random.default_rng(9))
        batch = batch_fading.sample_db_array(33)
        scalar = [scalar_fading.sample_db() for _ in range(33)]
        assert list(batch) == scalar
        # Streams stay aligned after the batch draw.
        follow_up = [batch_fading.sample_db() for _ in range(5)]
        assert follow_up == [scalar_fading.sample_db() for _ in range(5)]

    def test_no_fading_array(self):
        assert list(NoFading().sample_db_array(4)) == [0.0] * 4

    def test_shadowing_repeat_matches_scalar_loop(self):
        batch = ShadowingProcess(2.5, 1.5, np.random.default_rng(11))
        scalar = ShadowingProcess(2.5, 1.5, np.random.default_rng(11))
        value = batch.sample_repeat_db(0.7, 18)
        assert [scalar.sample_db(0.7) for _ in range(18)] == [value] * 18
        # Identical stream state afterwards.
        assert batch.sample_db(1.2) == scalar.sample_db(1.2)

    def test_shadowing_repeat_zero_sigma_draws_nothing(self):
        process = ShadowingProcess(0.0, 1.5, np.random.default_rng(1))
        assert process.sample_repeat_db(0.0, 5) == 0.0


def _make_channel(seed, deterministic=False):
    config = (
        DETERMINISTIC if deterministic else ChannelConfig()
    )
    return Channel(config, RngRegistry(seed))


class TestChannelBurst:
    @pytest.mark.parametrize("deterministic", [False, True])
    @pytest.mark.parametrize("n_beams", [1, 6, 18])
    def test_burst_matches_scalar_loop(self, n_beams, deterministic):
        scalar_channel = _make_channel(5, deterministic)
        batch_channel = _make_channel(5, deterministic)
        tx_pose = Pose(Vec3(0.0, 10.0), heading=-0.5 * math.pi)
        rng = np.random.default_rng(2)
        gains = rng.uniform(-10.0, 19.0, n_beams)
        for burst in range(12):
            time_s = 0.02 * burst
            rx_pose = Pose(Vec3(10.0 + 0.03 * burst, 0.0), heading=0.1 * burst)
            scalar_rss = [
                scalar_channel.rss_dbm(
                    "cellA|ue0", time_s, tx_pose, rx_pose,
                    float(g), 3.0, 0.0,
                )
                for g in gains
            ]
            batch_rss = batch_channel.burst_rss_dbm(
                "cellA|ue0", time_s, tx_pose, rx_pose, gains, 3.0, 0.0
            )
            assert list(batch_rss) == scalar_rss

    def test_include_fading_false(self):
        # No fading (``rician_k_db=None``) with shadowing and blockage on.
        scalar_channel = Channel(ChannelConfig(rician_k_db=None), RngRegistry(7))
        batch_channel = Channel(ChannelConfig(rician_k_db=None), RngRegistry(7))
        tx_pose = Pose(Vec3(0.0, 10.0))
        rx_pose = Pose(Vec3(9.0, 0.0))
        gains = np.array([1.0, 2.0, 3.0])
        scalar_rss = [
            scalar_channel.rss_dbm("l", 0.0, tx_pose, rx_pose, float(g), 0.0, 0.0)
            for g in gains
        ]
        batch_rss = batch_channel.burst_rss_dbm(
            "l", 0.0, tx_pose, rx_pose, gains, 0.0, 0.0
        )
        assert list(batch_rss) == scalar_rss

    def test_empty_burst_touches_no_state(self):
        registry = RngRegistry(1)
        channel = Channel(ChannelConfig(), registry)
        out = channel.burst_rss_dbm(
            "l", 0.0, Pose(Vec3(0.0, 0.0)), Pose(Vec3(1.0, 0.0)),
            np.array([]), 0.0, 0.0,
        )
        assert out.shape == (0,)
        # No stream created: no link state either.
        assert registry.stream_names() == []

    def test_rejects_non_vector_gains(self):
        channel = _make_channel(1)
        with pytest.raises(ValueError):
            channel.burst_rss_dbm(
                "l", 0.0, Pose(Vec3(0.0, 0.0)), Pose(Vec3(1.0, 0.0)),
                np.zeros((2, 2)), 0.0, 0.0,
            )


class TestLinkEngineBurst:
    @pytest.mark.parametrize("codebook", ["narrow", "wide", "omni"])
    @pytest.mark.parametrize("scenario", ["walk", "rotation"])
    def test_measure_burst_paths_identical(self, codebook, scenario):
        def run(measure):
            deployment, mobile = build_cell_edge_deployment(
                11, mobile_codebook=codebook, scenario=scenario
            )
            station = deployment.station("cellB")
            measurements = []
            for k in range(40):
                t = k * 0.02
                pose = mobile.pose_at(t)
                measurements.append(
                    measure(
                        deployment.links,
                        station,
                        mobile.mobile_id,
                        pose,
                        mobile.rx_gain_fn(t, pose),
                        k % len(mobile.codebook),
                        t,
                    )
                )
            return measurements, _stream_states(deployment.rng)

        vectorized, vectorized_streams = run(LinkEngine.measure_burst)
        oracle, oracle_streams = run(oracle_measure_burst)
        assert vectorized == oracle
        # Every stream is left exactly where the per-dwell loop leaves it.
        assert vectorized_streams == oracle_streams

    def test_detection_threshold_override(self):
        deployment, mobile = build_cell_edge_deployment(3)
        station = deployment.station("cellA")
        station.link_budget = LinkBudget(detection_snr_db=1e9)
        pose = mobile.pose_at(0.0)
        gain_fn = mobile.rx_gain_fn(0.0, pose)
        strict = deployment.links.measure_burst(
            station, mobile.mobile_id, pose, gain_fn, 0, 0.0
        )
        assert not strict.detected

    def test_decode_stream_key_unchanged(self):
        # The rename to _decode_rng must not move the RNG stream:
        # existing seeds would silently reproduce different traces.
        deployment, _ = build_cell_edge_deployment(3)
        assert deployment.links._decode_rng is deployment.rng.stream("uplink")


class TestTraceLevelArtifacts:
    """Whole runs are unchanged when the oracle evaluates every burst."""

    def test_fig2a_campaign_artifacts_byte_identical(self, tmp_path, monkeypatch):
        from repro.campaign.runner import run_campaign
        from repro.experiments.fig2a import fig2a_spec

        spec = fig2a_spec(n_trials=2, scenario="walk", codebooks=("narrow",))

        def cell_bytes(out_dir):
            run_campaign(spec, out_dir=out_dir)
            cells = sorted((out_dir / "cells").glob("*.json"))
            assert cells, "campaign produced no artifacts"
            return {p.name: p.read_bytes() for p in cells}

        vectorized = cell_bytes(tmp_path / "vectorized")
        with monkeypatch.context() as patch:
            calls = patch_in_oracle(patch)
            oracle = cell_bytes(tmp_path / "oracle")
        assert calls, "the oracle never evaluated a burst"
        assert oracle == vectorized

    def test_search_trial_identical_across_paths(self, monkeypatch):
        from repro.experiments.fig2a import run_search_trial

        vectorized = run_search_trial("narrow", scenario="walk", seed=5)
        with monkeypatch.context() as patch:
            calls = patch_in_oracle(patch)
            oracle = run_search_trial("narrow", scenario="walk", seed=5)
        assert calls, "the oracle never evaluated a burst"
        assert oracle == vectorized
