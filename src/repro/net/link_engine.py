"""Link engine: binds nodes, beams and the channel into dwell outcomes.

The single place where geometry, codebooks and the statistical channel
meet.  Three operations cover everything the protocols need:

* :meth:`LinkEngine.measure_burst` — the mobile holds one receive beam
  through a cell's SSB burst; the engine evaluates every transmit dwell
  and reports the best detected SSB (or a non-detection).
* :meth:`LinkEngine.uplink_success` / :meth:`LinkEngine.downlink_success`
  — Bernoulli decode of one control message on fixed beams: the
  BeamSurfer (CABM) switch request, RACH msg1 and msg3 on the uplink,
  msg2 and msg4 on the downlink.  Both go through one message path
  using beam reciprocity: the mobile transmits on the antenna weights
  of its current receive beam, the base station listens on its serving
  or detected beam.  A message is one :meth:`Channel.rss_dbm
  <repro.phy.channel.Channel.rss_dbm>` dwell and one decode draw.

Bursts are evaluated in one vectorized pass per link
(:meth:`~repro.phy.channel.Channel.burst_rss_dbm` + batched codebook
gains + the detection rule below).  A coalesced tick with several
mobiles goes through :meth:`LinkEngine.measure_burst_multi`, which
evaluates every (station, mobile) link of the tick as one grid and is
bit-identical, row for row, to calling :meth:`LinkEngine.measure_burst`
per link in the same order.

Detection rule, shared by both paths: a burst's best dwell is the
first ``argmax`` of its RSS, and the burst is detected iff that dwell's
SNR (``rss - noise_floor``) clears the threshold.  This equals masking
the dwells that clear the threshold and taking the first ``argmax``
among them.  Subtracting the noise floor is monotone, so if any dwell
clears, the maximum does, and so does every dwell tied with it.  The
argument needs rows without NaN, which holds: gains are finite or
``-inf`` pads, fades are clamped to at least 1e-12 before ``log10``,
and a zero xy offset between station and mobile raises.
"""

from __future__ import annotations

from math import atan2
from typing import Dict, Optional, Tuple

import numpy as np

from repro.geometry.pose import Pose
from repro.measure.report import RssMeasurement
from repro.net.base_station import BaseStation
from repro.obs import telemetry as _telemetry
from repro.obs.telemetry import wall_clock
from repro.phy.channel import Channel
from repro.sim.rng import RngRegistry


def _link_bearings(station_pose: Pose, mobile_pose: Pose) -> Tuple[float, float]:
    """World azimuths ``(station -> mobile, mobile -> station)`` of a link.

    The floats ``Pose.bearing_to`` yields in each direction, as atan2 of
    the link's offsets without ``Vec3`` temporaries.  Each offset is
    computed in its own direction: negating one would turn a +0.0 into
    -0.0 and flip atan2 across the seam.  The tick-wide burst pass
    inlines the same arithmetic per row.  Raises :class:`ValueError`
    for a zero xy offset.
    """
    sx = station_pose.position.x
    sy = station_pose.position.y
    position = mobile_pose.position
    dx = position.x - sx
    dy = position.y - sy
    if dx == 0.0 and dy == 0.0:
        raise ValueError("azimuth undefined for vector with zero xy projection")
    return atan2(dy, dx), atan2(sy - position.y, sx - position.x)


class LinkEngine:
    """Evaluates dwell/message outcomes over the shared channel.

    Draw-order contract
    -------------------
    Reproducibility across refactors rests on every path consuming RNG
    draws in a fixed, documented order:

    * A message (:meth:`uplink_success`, :meth:`downlink_success`)
      makes one :meth:`Channel.rss_dbm` call on the link's own streams
      -- one shadowing normal, the blockage renewal draws needed to
      pass the message timestamp, two I/Q fading normals -- then one
      uniform decode draw.
    * The decode stream backs *both* :meth:`uplink_success` and
      :meth:`downlink_success` — exactly one uniform draw per decode
      attempt, in call order.  By default all links share one stream
      (registry key ``"uplink"``, kept for seed compatibility with
      existing traces).  With ``per_link_decode=True`` each link draws
      from its own stream (key ``"decode/{link_id}"``, resolved once
      per link) so one user's decode attempts never perturb another's
      — the property that makes a fleet population separable into
      shards with byte-identical per-user results (see
      :mod:`repro.fleet`).
    * Known quirk, kept for byte identity: an uplink message passes the
      *station's* pose as the channel's receive pose, while every burst
      and downlink message passes the mobile's.  The link's motion
      state (``LinkState.traveled_m`` and its last pose) therefore
      jumps from the mobile to the station and back, and each uplink
      adds about twice the link distance of travel -- many shadowing
      decorrelation lengths -- so every uplink re-randomizes the
      serving link's shadowing.  ``tests/test_message_path.py`` pins
      the defect with a strict xfail; fixing it changes artifact bytes.
    * A measured burst of ``n`` dwells consumes, from the link's own
      streams and in this order: one ``standard_normal(n)`` shadowing
      call (its first normal is the innovation; the other ``n - 1``
      are the zero-innovation draws ``n`` scalar samples at the shared
      burst pose would make), the blockage renewal draws needed to
      extend the timeline past the burst timestamp, then one
      ``standard_normal(2n)`` call of interleaved I/Q fading normals.
      Single-link and multi-station burst evaluation consume
      identically: the tick-wide pass makes the same calls link by
      link, in row order.
    """

    def __init__(
        self,
        channel: Channel,
        rng_registry: RngRegistry,
        per_link_decode: bool = False,
    ) -> None:
        self.channel = channel
        self._rng_registry = rng_registry
        self._decode_rng: Optional[np.random.Generator] = (
            None if per_link_decode else rng_registry.stream("uplink")
        )
        #: Per-link decode streams by link id, resolved once per link.
        self._link_decode_rngs: Dict[str, np.random.Generator] = {}
        #: Uplink transmit power of the mobile, dBm.  Handsets run well
        #: below the base station's EIRP.
        self.mobile_tx_power_dbm = 5.0
        # Ambient telemetry: burst evaluation is the wall-clock hot
        # path, so spans are dispatched behind an ``enabled`` check.
        self._telemetry = _telemetry.current()

    @staticmethod
    def link_id(cell_id: str, mobile_id: str) -> str:
        """Canonical per-(cell, mobile) channel-state key.

        Up/downlink share one id: large-scale fading is reciprocal.
        """
        return f"{cell_id}|{mobile_id}"

    # -------------------------------------------------------------- downlink
    def measure_burst(
        self,
        station: BaseStation,
        mobile_id: str,
        mobile_pose: Pose,
        rx_gain_fn,
        rx_beam: int,
        time_s: float,
    ) -> RssMeasurement:
        """Evaluate one SSB burst heard with a fixed receive beam.

        Parameters
        ----------
        rx_gain_fn:
            ``f(rx_beam, world_azimuth) -> dBi`` — the mobile's receive
            gain toward a world-frame azimuth (accounts for device
            heading).

        Returns the burst's best SSB as a measurement: the first
        ``argmax`` dwell, reported iff its SNR clears the threshold
        (the module's detection rule).  tx_beam/rss are ``None`` when
        it does not.  Raises :class:`ValueError` when the mobile has a
        zero xy offset from the station.
        """
        telemetry = self._telemetry
        if not telemetry.enabled:
            return self._measure_burst_impl(
                station, mobile_id, mobile_pose, rx_gain_fn, rx_beam, time_s
            )
        started = wall_clock()
        try:
            return self._measure_burst_impl(
                station, mobile_id, mobile_pose, rx_gain_fn, rx_beam, time_s
            )
        finally:
            telemetry.record_span("phy.measure_burst", started, wall_clock())
            telemetry.incr("phy.bursts_measured")

    def _measure_burst_impl(
        self,
        station: BaseStation,
        mobile_id: str,
        mobile_pose: Pose,
        rx_gain_fn,
        rx_beam: int,
        time_s: float,
    ) -> RssMeasurement:
        budget = station.link_budget
        to_mobile, to_station = _link_bearings(station.pose, mobile_pose)
        rx_gain = rx_gain_fn(rx_beam, to_station)
        beams = station.burst_beams
        tx_gains = station.tx_gains_dbi(to_mobile, station.burst_gain_indices)
        rss = self.channel.burst_rss_dbm(
            self.link_id(station.cell_id, mobile_id),
            time_s,
            station.pose,
            mobile_pose,
            tx_gains,
            rx_gain,
            station.tx_power_dbm,
        )
        best = int(rss.argmax())
        best_rss = float(rss[best])
        snr_db = budget.snr_db(best_rss)
        if snr_db >= budget.detection_snr_db:
            return RssMeasurement(
                time_s, station.cell_id, rx_beam, beams[best], best_rss, snr_db
            )
        return RssMeasurement(time_s, station.cell_id, rx_beam)

    def measure_burst_multi(self, groups, time_s: float):
        """Evaluate several stations' same-tick bursts in one pass.

        ``groups`` is a sequence of ``(station, requests)`` pairs in
        delivery order; ``requests`` is a sequence of ``(mobile_id,
        mobile_pose, rx_gain_fn, rx_beam)`` tuples, one per measured
        mobile, in delivery order.  The whole tick becomes one
        ``(rows, max_dwells)`` grid — one row per (station, user) link,
        station-major / user-minor, short bursts padded with ``-inf``
        transmit gain — evaluated by a single
        :meth:`Channel.burst_rss_rows_dbm` call.  Per-link RNG draws
        happen row by row in that order, from each link's own streams,
        so the measurements — and the stream states left behind — are
        bit-identical to calling :meth:`measure_burst` once per request,
        group by group, in order.

        Each row is detected by the module's detection rule: its
        first ``argmax`` dwell, reported iff its SNR clears the
        threshold; ``-inf`` pads never win over a real dwell.

        Returns one list of :class:`RssMeasurement` per group, each in
        its requests' order.
        """
        telemetry = self._telemetry
        if not telemetry.enabled:
            return self._measure_burst_multi_impl(groups, time_s)
        started = wall_clock()
        try:
            return self._measure_burst_multi_impl(groups, time_s)
        finally:
            telemetry.record_span(
                "phy.measure_burst_multi", started, wall_clock()
            )
            telemetry.incr(
                "phy.bursts_measured", sum(len(r) for _, r in groups)
            )

    def _measure_burst_multi_impl(self, groups, time_s: float):
        metas = []
        row_link_ids = []
        row_tx_poses = []
        row_rx_poses = []
        row_rx_gains = []
        row_tx_powers = []
        row_dwells = []
        group_gains = []
        max_dwells = 0
        link_id = self.link_id
        for station, requests in groups:
            if not requests:
                # Dense-tick common case: most stations on a coalesced
                # tick have no admitted measurements, so skip the beam /
                # budget lookups entirely.
                group_gains.append(None)
                metas.append((station, requests, None, None))
                continue
            beams = station.burst_beams
            budget = station.link_budget
            # Per-user scalar geometry: _link_bearings inlined per row;
            # only the users x dwells work batches.
            tx_pose = station.pose
            sx = tx_pose.position.x
            sy = tx_pose.position.y
            cell_id = station.cell_id
            bearings_to_mobile = []
            for mobile_id, mobile_pose, rx_gain_fn, rx_beam in requests:
                position = mobile_pose.position
                dx = position.x - sx
                dy = position.y - sy
                if dx == 0.0 and dy == 0.0:
                    raise ValueError(
                        "azimuth undefined for vector with zero xy projection"
                    )
                bearings_to_mobile.append(atan2(dy, dx))
                row_rx_gains.append(
                    rx_gain_fn(rx_beam, atan2(sy - position.y, sx - position.x))
                )
                row_link_ids.append(link_id(cell_id, mobile_id))
                row_rx_poses.append(mobile_pose)
            n_users = len(requests)
            row_tx_poses.extend([tx_pose] * n_users)
            row_tx_powers.extend([station.tx_power_dbm] * n_users)
            row_dwells.extend([len(beams)] * n_users)
            group_gains.append(
                station.tx_gains_grid_dbi(
                    bearings_to_mobile, station.burst_gain_indices
                )
            )
            metas.append((station, requests, beams, budget))
            max_dwells = max(max_dwells, len(beams))
        n_rows = len(row_link_ids)
        if n_rows == 0:
            return [[] for _ in groups]
        tx_gains = np.full((n_rows, max_dwells), -np.inf, dtype=float)
        row = 0
        for gains in group_gains:
            if gains is None:
                continue
            n_users, n_beams = gains.shape
            tx_gains[row:row + n_users, :n_beams] = gains
            row += n_users
        rss = self.channel.burst_rss_rows_dbm(
            row_link_ids,
            time_s,
            row_tx_poses,
            row_rx_poses,
            tx_gains,
            np.asarray(row_rx_gains, dtype=float),
            np.asarray(row_tx_powers, dtype=float),
            row_dwells,
        )
        results = []
        row = 0
        for station, requests, beams, budget in metas:
            if not requests:
                results.append([])
                continue
            sub = rss[row:row + len(requests), :len(beams)]
            row += len(requests)
            best = sub.argmax(axis=1)
            best_rss = sub[np.arange(len(requests)), best]
            snr_db = budget.snr_db(best_rss)
            cell_id = station.cell_id
            measurements = []
            for (_, _, _, rx_beam), hit, b, rss_dbm, snr in zip(
                requests,
                (snr_db >= budget.detection_snr_db).tolist(),
                best.tolist(),
                best_rss.tolist(),
                snr_db.tolist(),
            ):
                if hit:
                    measurements.append(
                        RssMeasurement(
                            time_s, cell_id, rx_beam, beams[b], rss_dbm, snr
                        )
                    )
                else:
                    measurements.append(RssMeasurement(time_s, cell_id, rx_beam))
            results.append(measurements)
        return results

    # -------------------------------------------------------------- messages
    def _message_rss(
        self,
        link: str,
        station: BaseStation,
        mobile_pose: Pose,
        rx_gain_fn,
        mobile_beam: int,
        station_beam: int,
        time_s: float,
        uplink: bool,
    ) -> float:
        station_pose = station.pose
        to_mobile, to_station = _link_bearings(station_pose, mobile_pose)
        mobile_gain = rx_gain_fn(mobile_beam, to_station)
        station_gain = station.tx_gain_dbi(station_beam, to_mobile)
        if uplink:
            # The station pose is passed as the receive pose: see the
            # draw-order contract.
            return self.channel.rss_dbm(
                link,
                time_s,
                mobile_pose,
                station_pose,
                mobile_gain,
                station_gain,
                self.mobile_tx_power_dbm,
            )
        return self.channel.rss_dbm(
            link,
            time_s,
            station_pose,
            mobile_pose,
            station_gain,
            mobile_gain,
            station.tx_power_dbm,
        )

    def _decode(
        self,
        station: BaseStation,
        mobile_id: str,
        mobile_pose: Pose,
        rx_gain_fn,
        mobile_beam: int,
        station_beam: int,
        time_s: float,
        uplink: bool,
        margin_db: float,
    ) -> bool:
        """Bernoulli decode of one message: one uniform decode draw."""
        link = self.link_id(station.cell_id, mobile_id)
        rss = self._message_rss(
            link, station, mobile_pose, rx_gain_fn, mobile_beam, station_beam,
            time_s, uplink,
        )
        probability = station.link_budget.packet_success_probability(
            rss + margin_db
        )
        stream = self._decode_rng
        if stream is None:
            stream = self._link_decode_rngs.get(link)
            if stream is None:
                stream = self._rng_registry.stream(f"decode/{link}")
                self._link_decode_rngs[link] = stream
        return bool(stream.random() < probability)

    def downlink_success(
        self,
        station: BaseStation,
        mobile_id: str,
        mobile_pose: Pose,
        rx_gain_fn,
        rx_beam: int,
        tx_beam: int,
        time_s: float,
    ) -> bool:
        """Bernoulli decode of a directed downlink control message."""
        return self._decode(
            station, mobile_id, mobile_pose, rx_gain_fn, rx_beam, tx_beam,
            time_s, False, 0.0,
        )

    def uplink_success(
        self,
        station: BaseStation,
        mobile_id: str,
        mobile_pose: Pose,
        rx_gain_fn,
        mobile_beam: int,
        station_beam: int,
        time_s: float,
        extra_margin_db: float = 0.0,
    ) -> bool:
        """Bernoulli decode of an uplink message at the base station.

        ``extra_margin_db`` models preamble processing gain for RACH
        msg1 (long correlation sequences decode below the data
        threshold).
        """
        return self._decode(
            station, mobile_id, mobile_pose, rx_gain_fn, mobile_beam,
            station_beam, time_s, True, extra_margin_db,
        )
