"""Composite per-link channel: path loss + shadowing + fading + blockage.

The channel answers one question for the layers above: *given transmit
power and the two beam gains at time t, what RSS does a dwell observe?*
All statistical state (shadowing trajectory, blockage timeline, fading
stream) is kept per link and derived from named RNG streams, so any two
runs with the same master seed produce identical RSS traces.

Three evaluation entry points share one determinism contract:

* :meth:`Channel.rss_dbm` — one dwell (directed downlink and uplink
  messages).
* :meth:`Channel.burst_rss_dbm` — every dwell of one SSB burst on one
  link in a single vectorized pass.  Geometry, path loss, shadowing and
  blockage are evaluated once per burst (all dwells share one timestamp
  and pose); each dwell still draws its own small-scale fade.
* :meth:`Channel.burst_rss_rows_dbm` — the bursts of many (station,
  user) links at once, one row per link, for a coalesced tick: one
  tick-wide pass in which only the per-link generator calls run per row.

A burst of ``n`` dwells consumes exactly the RNG draws ``n`` calls of
:meth:`Channel.rss_dbm` would and produces bit-identical RSS values.
It makes one ``standard_normal(n)`` shadowing call (the first normal is
the innovation; the other ``n - 1`` are the scalar loop's
zero-innovation draws), the blockage renewal draws needed to pass the
burst timestamp, and one ``standard_normal(2n)`` call of interleaved
I/Q fading normals.  A rows call makes the same calls link by link in
row order, so each row is bit-identical to the matching
:meth:`Channel.burst_rss_dbm` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3
from repro.phy.blockage import BlockageConfig, BlockageProcess
from repro.phy.fading import (
    NoFading,
    RicianFading,
    rician_amplitudes,
    rician_fades_db,
)
from repro.phy.pathloss import CloseInPathLoss
from repro.phy.shadowing import ShadowingProcess
from repro.sim.rng import RngRegistry


@dataclass(frozen=True)
class ChannelConfig:
    """All channel-model parameters with 60 GHz LoS defaults.

    The defaults are calibrated to published 60 GHz measurement
    campaigns and to the paper's setting (cell edge ~10 m, LoS with
    occasional body blockage); see DESIGN.md for the substitution
    rationale.
    """

    frequency_hz: float = 60.0e9
    pathloss_exponent: float = 2.1
    shadowing_sigma_db: float = 2.5
    shadowing_decorrelation_m: float = 1.5
    rician_k_db: Optional[float] = 10.0
    blockage: BlockageConfig = field(default_factory=BlockageConfig)
    #: Effective lever arm converting heading change to shadowing
    #: decorrelation distance (device rotation re-randomizes the local
    #: multipath about this much per radian).
    rotation_lever_arm_m: float = 0.15

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0.0:
            raise ValueError(f"frequency must be positive, got {self.frequency_hz!r}")
        if self.shadowing_sigma_db < 0.0:
            raise ValueError(
                f"shadowing sigma must be non-negative, got {self.shadowing_sigma_db!r}"
            )


def _distance_m(a: Vec3, b: Vec3) -> float:
    """``a.distance_to(b)`` with the same operation order, computed on
    the float attributes without building a temporary ``Vec3``."""
    dx = a.x - b.x
    dy = a.y - b.y
    dz = a.z - b.z
    return math.sqrt(dx * dx + dy * dy + dz * dz)


class LinkState:
    """Mutable per-link statistical state."""

    def __init__(
        self,
        link_id: str,
        config: ChannelConfig,
        rng_registry: RngRegistry,
    ) -> None:
        self.link_id = link_id
        self.shadowing = ShadowingProcess(
            config.shadowing_sigma_db,
            config.shadowing_decorrelation_m,
            rng_registry.stream(f"shadowing/{link_id}"),
        )
        self.blockage = BlockageProcess(
            config.blockage, rng_registry.stream(f"blockage/{link_id}")
        )
        if config.rician_k_db is None:
            self.fading = NoFading()
        else:
            self.fading = RicianFading(
                config.rician_k_db, rng_registry.stream(f"fading/{link_id}")
            )
        self._traveled_m = 0.0
        self._last_rx_pose: Optional[Pose] = None
        self._rotation_lever_arm = config.rotation_lever_arm_m

    def traveled_m(self, rx_pose: Pose) -> float:
        """Update and return cumulative motion distance for shadowing.

        Translation contributes its Euclidean step; rotation contributes
        ``lever_arm * |delta_heading|`` so device rotation also
        decorrelates the shadowing process (the handset aperture moves
        through the local multipath field).
        """
        last = self._last_rx_pose
        if last is not None:
            step = _distance_m(rx_pose.position, last.position)
            turn = abs(math.remainder(rx_pose.heading - last.heading, math.tau))
            self._traveled_m += step + self._rotation_lever_arm * turn
        self._last_rx_pose = rx_pose
        return self._traveled_m


class Channel:
    """The composite channel shared by every link in a deployment.

    One instance serves all (base-station, mobile) pairs; per-link state
    is created lazily keyed by ``link_id``.
    """

    def __init__(self, config: ChannelConfig, rng_registry: RngRegistry) -> None:
        self.config = config
        self._rng_registry = rng_registry
        self.pathloss = CloseInPathLoss(
            config.frequency_hz, config.pathloss_exponent
        )
        self._links: Dict[str, LinkState] = {}
        # Every link's fading shares the config's K-factor, so the tick
        # pass converts all rows' I/Q draws with one amplitude pair.
        self._rician = (
            None
            if config.rician_k_db is None
            else rician_amplitudes(config.rician_k_db)
        )

    def link_state(self, link_id: str) -> LinkState:
        """Per-link state, created on first use."""
        state = self._links.get(link_id)
        if state is None:
            state = LinkState(link_id, self.config, self._rng_registry)
            self._links[link_id] = state
        return state

    def rss_dbm(
        self,
        link_id: str,
        time_s: float,
        tx_pose: Pose,
        rx_pose: Pose,
        tx_gain_dbi: float,
        rx_gain_dbi: float,
        tx_power_dbm: float,
    ) -> float:
        """Received signal strength for one dwell.

        ``RSS = Ptx + Gtx + Grx - PL(d) - shadowing - blockage + fading``.
        """
        state = self.link_state(link_id)
        distance = _distance_m(tx_pose.position, rx_pose.position)
        loss_db = self.pathloss.path_loss_db(distance)
        shadowing_db = state.shadowing.sample_db(state.traveled_m(rx_pose))
        blockage_db = state.blockage.attenuation_db(time_s)
        fading_db = state.fading.sample_db()
        return (
            tx_power_dbm
            + tx_gain_dbi
            + rx_gain_dbi
            - loss_db
            - shadowing_db
            - blockage_db
            + fading_db
        )

    def burst_rss_dbm(
        self,
        link_id: str,
        time_s: float,
        tx_pose: Pose,
        rx_pose: Pose,
        tx_gains_dbi: np.ndarray,
        rx_gain_dbi: float,
        tx_power_dbm: float,
    ) -> np.ndarray:
        """Vectorized RSS of every dwell in one SSB burst.

        ``tx_gains_dbi`` holds the transmit gain of each dwell's beam
        toward the mobile (one entry per dwell, in sweep order).  The
        large-scale terms — geometry, path loss, shadowing, blockage —
        are computed once for the burst; fading is drawn per dwell in a
        single batched, stream-order-preserving draw.  Returns the
        per-dwell RSS array, bit-identical to a loop of :meth:`rss_dbm`
        over the same gains, and leaves every RNG stream in the exact
        state that loop would.
        """
        tx_gains = np.asarray(tx_gains_dbi, dtype=float)
        if tx_gains.ndim != 1:
            raise ValueError(
                f"tx gains must be one value per dwell, got shape {tx_gains.shape}"
            )
        n_dwells = tx_gains.shape[0]
        if n_dwells == 0:
            # A zero-dwell burst touches no per-link state in the scalar
            # loop either.
            return np.empty(0, dtype=float)
        state = self.link_state(link_id)
        distance = _distance_m(tx_pose.position, rx_pose.position)
        loss_db = self.pathloss.path_loss_db(distance)
        shadowing_db = state.shadowing.sample_repeat_db(
            state.traveled_m(rx_pose), n_dwells
        )
        blockage_db = state.blockage.attenuation_db(time_s)
        fading_db = state.fading.sample_db_array(n_dwells)
        # Same left-to-right operation order as the scalar rss_dbm sum,
        # so each element is bit-identical to its scalar counterpart;
        # accumulated in place in one fresh buffer.
        rss = tx_gains + tx_power_dbm
        rss += rx_gain_dbi
        rss -= loss_db
        rss -= shadowing_db
        rss -= blockage_db
        rss += fading_db
        return rss

    def burst_rss_rows_dbm(
        self,
        link_ids,
        time_s: float,
        tx_poses,
        rx_poses,
        tx_gains_dbi: np.ndarray,
        rx_gains_dbi,
        tx_powers_dbm,
        n_dwells,
    ) -> np.ndarray:
        """Vectorized RSS over heterogeneous (station, user) link rows.

        The multi-link extension of :meth:`burst_rss_dbm`: each row is
        one link of one station's burst — its own transmit pose, power,
        and dwell count — and ``tx_gains_dbi`` is a ``(rows,
        max_dwells)`` grid whose columns beyond a row's ``n_dwells`` are
        padded with ``-inf`` (a padded slot can never detect).

        Every row is validated before any link state is created or any
        stream advanced, so a bad call leaves the channel untouched.
        Then one pass over the rows updates each link's motion and
        shadowing state and makes that link's two draw calls — one
        ``standard_normal(n)`` for shadowing, one for the ``2n`` fading
        normals into a shared ``(rows, 2 * max_dwells)`` buffer — in row
        order (blockage draws stay lazy).  A link named twice is
        therefore advanced twice, in sequence, exactly as two calls
        would.  Path loss, I/Q -> power -> dB and the final sum then run
        once for the whole tick.  Every stream is left in the state a
        loop of :meth:`burst_rss_dbm` calls over the same rows would
        leave, and the real (unpadded) entries of each row are
        bit-identical to that call's result.
        """
        tx_gains = np.asarray(tx_gains_dbi, dtype=float)
        if tx_gains.ndim != 2:
            raise ValueError(
                f"tx gains must be a (rows, dwells) grid, got shape {tx_gains.shape}"
            )
        n_rows, max_dwells = tx_gains.shape
        rx_gains = np.asarray(rx_gains_dbi, dtype=float)
        tx_powers = np.asarray(tx_powers_dbm, dtype=float)
        if not (
            len(link_ids) == len(tx_poses) == len(rx_poses) == len(n_dwells)
            == rx_gains.shape[0] == tx_powers.shape[0] == n_rows
        ):
            raise ValueError(
                f"row inputs disagree: {len(link_ids)} links, "
                f"{len(tx_poses)} tx poses, {len(rx_poses)} rx poses, "
                f"{rx_gains.shape[0]} rx gains, {tx_powers.shape[0]} tx powers, "
                f"{len(n_dwells)} dwell counts for {n_rows} rows"
            )
        if n_rows == 0 or max_dwells == 0:
            return np.empty((n_rows, max_dwells), dtype=float)
        counts = [int(n) for n in n_dwells]
        if min(counts) < 1 or max(counts) > max_dwells:
            r = next(r for r, n in enumerate(counts) if not 1 <= n <= max_dwells)
            raise ValueError(
                f"row {r}: dwell count {counts[r]} outside [1, {max_dwells}]"
            )
        fading = self._rician is not None
        # Zero padding keeps the fades of unused slots finite; their
        # -inf gain still makes the slot -inf.
        draws = np.zeros((n_rows, 2 * max_dwells)) if fading else None
        link_state = self.link_state
        distances = []
        shadowing_db = []
        blockage_db = []
        for r, (link_id, tx_pose, rx_pose, n_g) in enumerate(
            zip(link_ids, tx_poses, rx_poses, counts)
        ):
            state = link_state(link_id)
            distances.append(_distance_m(tx_pose.position, rx_pose.position))
            shadowing_db.append(
                state.shadowing.sample_repeat_db(state.traveled_m(rx_pose), n_g)
            )
            blockage_db.append(state.blockage.attenuation_db(time_s))
            if fading:
                state.fading.draw_into(draws[r, :2 * n_g])
        loss_db = np.fromiter(map(self.pathloss.path_loss_db, distances), float, n_rows)
        fading_db = rician_fades_db(draws, *self._rician) if fading else 0.0
        # Same left-to-right operation order as burst_rss_dbm, with the
        # per-row terms (transmit power included) broadcast down columns,
        # so adding identical floats yields bit-identical elements.
        # -inf gain pads stay -inf through the sum.
        return (
            tx_powers[:, None]
            + tx_gains
            + rx_gains[:, None]
            - loss_db[:, None]
            - np.array(shadowing_db)[:, None]
            - np.array(blockage_db)[:, None]
            + fading_db
        )

    def mean_rss_dbm(
        self,
        tx_pose: Pose,
        rx_pose: Pose,
        tx_gain_dbi: float,
        rx_gain_dbi: float,
        tx_power_dbm: float,
    ) -> float:
        """Deterministic large-scale RSS (no shadowing/fading/blockage).

        Useful for link planning, oracle baselines, and tests.
        """
        distance = _distance_m(tx_pose.position, rx_pose.position)
        return (
            tx_power_dbm
            + tx_gain_dbi
            + rx_gain_dbi
            - self.pathloss.path_loss_db(distance)
        )
