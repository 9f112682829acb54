"""Baseline protocols for the comparison benches.

* :class:`ReactiveHandover` — what omnidirectional cellular does,
  transplanted to mm-wave: maintain the serving link (BeamSurfer) and do
  *nothing* about neighbors until the serving link actually dies; then
  perform the full directional cell search and initial access from
  scratch.  Every handover is hard; the paper's introduction motivates
  Silent Tracker with exactly this cost (up to 1.28 s of search alone).
* :class:`OracleTracker` — genie upper bound: perfect knowledge of the
  best beams at every instant and of the true mean RSS margin.  No
  search cost, no misalignment, no adaptation lag.  The gap between
  Silent Tracker and the oracle is the price of being purely in-band.

Both subclass :class:`~repro.core.arm.ProtocolArm` and keep only their
policy: when to search, when to trigger, which beams to hand random
access.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.arm import ProtocolArm
from repro.core.beamsurfer import BeamSurfer
from repro.core.config import SilentTrackerConfig
from repro.core.events import NeighborState
from repro.core.neighbor_tracker import NeighborTracker
from repro.measure.report import RssMeasurement
from repro.net.deployment import Deployment
from repro.net.handover import HandoverOutcome, HandoverRecord
from repro.net.mobile import Mobile
from repro.registry import register_protocol

#: How far (dB) a neighbour's mean RSS must beat the serving cell's
#: before the genie hands over.
ORACLE_HANDOVER_MARGIN_DB = 3.0


class ReactiveHandover(ProtocolArm):
    """Reactive hard-handover baseline (no neighbor tracking).

    Implements :class:`~repro.net.mobile.BurstListener`.
    """

    watchdog_label = "reactive.watchdog"

    def __init__(
        self,
        deployment: Deployment,
        mobile: Mobile,
        serving_cell: str,
        config: Optional[SilentTrackerConfig] = None,
    ) -> None:
        super().__init__(deployment, mobile, serving_cell, config)
        self.beamsurfer = BeamSurfer(
            mobile.codebook, mobile.connection.rx_beam, self.config.beamsurfer
        )
        #: Blind-search machinery, created only after the link dies.
        self._searcher: Optional[NeighborTracker] = None

    # ----------------------------------------------------- BurstListener API
    def choose_rx_beam(self, cell_id: str, now_s: float) -> Optional[int]:
        serving = self.mobile.connection.serving_cell
        if cell_id == serving:
            return self.beamsurfer.beam_for_burst()
        if self._searcher is not None:
            return self._searcher.beam_for_burst(cell_id)
        return None  # reactive: neighbors are ignored while connected

    def candidate_cells(self, now_s: float) -> Optional[Tuple[str, ...]]:
        """The serving cell plus the blind searcher's cells."""
        cells = () if self._searcher is None else self._searcher.candidate_cells()
        serving = self.mobile.connection.serving_cell
        if cells is None or serving is None:
            return cells
        return (serving,) + cells

    def on_measurement(self, measurement: RssMeasurement) -> None:
        now = self.sim.now
        serving = self.mobile.connection.serving_cell
        if measurement.cell_id == serving:
            self._on_serving_measurement(measurement, now)
            return
        if self._searcher is None:
            return
        self._searcher.on_measurement(measurement, now)
        if (
            self._searcher.state is NeighborState.TRACKING
            and self._rach is None
        ):
            self._initiate_access(now)

    # ------------------------------------------------------------- re-entry
    def _on_context_lost(self, now_s: float) -> None:
        """Full directional cell search with no prior information."""
        self._searcher = NeighborTracker(
            self.mobile.codebook,
            list(self._stations),
            adapt_threshold_db=self.config.adapt_threshold_db,
            loss_threshold_db=self.config.loss_threshold_db,
            loss_miss_limit=self.config.loss_miss_limit,
            ewma_alpha=self.config.ewma_alpha,
        )
        self._searcher.begin_search(now_s)
        self.metrics.incr("reactive.blind_search")

    def _initiate_access(self, now_s: float) -> None:
        target = self._searcher.focused_cell
        if target is None or self._searcher.last_tx_beam is None:
            return
        self._start_access(
            "(lost)",
            target,
            now_s,
            lambda: self._searcher.current_beam if self._searcher else None,
            lambda: self._searcher.last_tx_beam if self._searcher else None,
        )

    def _on_access_failed(self, now_s: float) -> None:
        # Keep searching; the tracked beam (if any) will re-trigger.
        if self._searcher is not None and (
            self._searcher.state is NeighborState.TRACKING
        ):
            self._initiate_access(now_s)

    def _complete_handover(self, record: HandoverRecord, now_s: float) -> None:
        """Hard handover completes: fresh context, full penalty."""
        searcher = self._searcher
        rx_beam = (
            searcher.current_beam
            if searcher and searcher.current_beam is not None
            else 0
        )
        tx_beam = searcher.last_tx_beam if searcher else None
        self.beamsurfer.rebind(
            rx_beam, searcher.smoothed_rss_dbm if searcher else None
        )
        self._switch_context(record, now_s, HandoverOutcome.HARD, rx_beam, tx_beam)
        self._searcher = None


class OracleTracker(ProtocolArm):
    """Genie-aided upper bound: perfect beams, perfect trigger.

    Implements :class:`~repro.net.mobile.BurstListener`.  Every burst is
    measured on the geometrically optimal receive beam; the handover
    trigger compares true mean RSS (no noise, no staleness); random
    access always uses the instantaneously optimal beams.  The genie
    runs no watchdog: its serving link never needs one.  It hands over
    once a neighbour's mean RSS beats the serving cell's by more than
    :data:`ORACLE_HANDOVER_MARGIN_DB`.
    """

    # ----------------------------------------------------- BurstListener API
    def choose_rx_beam(self, cell_id: str, now_s: float) -> Optional[int]:
        return self.mobile.best_rx_beam_towards(self._stations[cell_id], now_s)

    def candidate_cells(self, now_s: float) -> None:
        """Every cell: the genie takes every burst."""
        return None

    def on_measurement(self, measurement: RssMeasurement) -> None:
        now = self.sim.now
        connection = self.mobile.connection
        if measurement.cell_id == connection.serving_cell and measurement.detected:
            connection.touch(now)
            self._last_good_service_s = now
        if self._rach is None and connection.serving_cell is not None:
            self._evaluate_trigger(now)

    def _mean_rss(self, station, now_s: float) -> float:
        pose = self.mobile.pose_at(now_s)
        bearing_to_mobile = station.pose.bearing_to(pose.position)
        tx_beam = station.best_tx_beam_towards(bearing_to_mobile)
        rx_beam = self.mobile.best_rx_beam_towards(station, now_s)
        rx_gain = self.mobile.rx_gain_fn(now_s, pose)(
            rx_beam, pose.bearing_to(station.pose.position)
        )
        return self.links.channel.mean_rss_dbm(
            station.pose,
            pose,
            station.tx_gain_dbi(tx_beam, bearing_to_mobile),
            rx_gain,
            station.tx_power_dbm,
        )

    def _evaluate_trigger(self, now_s: float) -> None:
        serving_cell = self.mobile.connection.serving_cell
        serving_rss = self._mean_rss(self._stations[serving_cell], now_s)
        neighbors = self._neighbor_cells()
        if not neighbors:
            return
        # Sweep every neighbor once, then pick the max; ties resolve to
        # the first neighbor, as the former strict-improvement scan did.
        neighbor_rss = [self._mean_rss(self._stations[c], now_s) for c in neighbors]
        best = max(range(len(neighbors)), key=neighbor_rss.__getitem__)
        best_cell, best_rss = neighbors[best], neighbor_rss[best]
        if best_rss <= serving_rss + ORACLE_HANDOVER_MARGIN_DB:
            return
        station = self._stations[best_cell]
        self._start_access(
            serving_cell,
            best_cell,
            now_s,
            lambda: self.mobile.best_rx_beam_towards(station, self.sim.now),
            lambda: self._best_tx_beam(station, self.sim.now),
        )

    def _complete_handover(self, record: HandoverRecord, now_s: float) -> None:
        station = self._stations[record.target_cell]
        tx_beam = self._best_tx_beam(station, now_s)
        rx_beam = self.mobile.best_rx_beam_towards(station, now_s)
        self._switch_context(record, now_s, HandoverOutcome.SOFT, rx_beam, tx_beam)


# ------------------------------------------------------------ protocol arms
@register_protocol("silent-tracker")
def _build_silent_tracker(
    deployment: Deployment,
    mobile: Mobile,
    serving_cell: str,
    config: Optional[SilentTrackerConfig] = None,
):
    """The paper's protocol: in-band silent neighbor tracking."""
    from repro.core.silent_tracker import SilentTracker

    return SilentTracker(deployment, mobile, serving_cell, config)


@register_protocol("reactive")
def _build_reactive(
    deployment: Deployment,
    mobile: Mobile,
    serving_cell: str,
    config: Optional[SilentTrackerConfig] = None,
):
    """Reactive hard handover: full blind search after the link dies."""
    return ReactiveHandover(deployment, mobile, serving_cell, config)


@register_protocol("oracle")
def _build_oracle(
    deployment: Deployment,
    mobile: Mobile,
    serving_cell: str,
    config: Optional[SilentTrackerConfig] = None,
):
    """Genie upper bound: perfect beams and a perfect trigger."""
    return OracleTracker(deployment, mobile, serving_cell)
