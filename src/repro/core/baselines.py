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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.beamsurfer import BeamSurfer
from repro.core.config import SilentTrackerConfig
from repro.core.events import NeighborState
from repro.core.neighbor_tracker import NeighborTracker
from repro.measure.report import RssMeasurement
from repro.net.deployment import Deployment
from repro.net.handover import HandoverLog, HandoverOutcome
from repro.net.mobile import Mobile
from repro.net.random_access import RachResult, RandomAccessProcedure
from repro.registry import make_protocol, register_protocol
from repro.sim.engine import PeriodicTask


class ReactiveHandover:
    """Reactive hard-handover baseline (no neighbor tracking).

    Implements :class:`~repro.net.mobile.BurstListener`.
    """

    def __init__(
        self,
        deployment: Deployment,
        mobile: Mobile,
        serving_cell: str,
        config: Optional[SilentTrackerConfig] = None,
    ) -> None:
        self.deployment = deployment
        self.mobile = mobile
        self.config = config or SilentTrackerConfig()
        self.sim = deployment.sim
        self.links = deployment.links
        self.trace = deployment.trace
        self.metrics = deployment.metrics
        self._stations: Dict[str, object] = {
            s.cell_id: s for s in deployment.stations
        }
        if serving_cell not in self._stations:
            raise ValueError(f"unknown serving cell {serving_cell!r}")
        self.handover_log = HandoverLog()

        station = self._stations[serving_cell]
        now = self.sim.now
        initial_tx = station.best_tx_beam_towards(
            station.pose.bearing_to(mobile.pose_at(now).position)
        )
        initial_rx = mobile.best_rx_beam_towards(station, now)
        station.attach(mobile.mobile_id, initial_tx)
        mobile.connection.establish(serving_cell, initial_rx, now)
        self.beamsurfer = BeamSurfer(
            mobile.codebook, initial_rx, self.config.beamsurfer
        )
        self._last_good_service_s = now
        #: Blind-search machinery, created only after the link dies.
        self._searcher: Optional[NeighborTracker] = None
        self._rach: Optional[RandomAccessProcedure] = None
        self._rach_target: Optional[str] = None
        self._pending_record = None
        self._context_lost_s: Optional[float] = None
        self._watchdog: Optional[PeriodicTask] = None
        self._started = False
        mobile.attach_listener(self)

    # ----------------------------------------------------------------- wiring
    def start(self) -> None:
        if self._started:
            raise RuntimeError("baseline already started")
        self._started = True
        self._watchdog = PeriodicTask(
            self.sim,
            self.config.monitor_period_s,
            self._watchdog_tick,
            start_delay=self.config.monitor_period_s,
            label="reactive.watchdog",
        )

    def stop(self) -> None:
        if self._watchdog is not None:
            self._watchdog.stop()
            self._watchdog = None

    def _serving_station(self):
        cell = self.mobile.connection.serving_cell
        return self._stations[cell] if cell is not None else None

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

    def _on_serving_measurement(self, measurement: RssMeasurement, now_s: float) -> None:
        station = self._serving_station()
        if station is None:
            return
        if (
            measurement.detected
            and measurement.snr_db is not None
            and measurement.snr_db >= station.link_budget.decode_snr_db
        ):
            self.mobile.connection.touch(now_s)
            self._last_good_service_s = now_s
        self.beamsurfer.on_serving_measurement(measurement, now_s)
        if self.beamsurfer.cabm_request_pending:
            self._attempt_cabm_request(now_s)

    def _attempt_cabm_request(self, now_s: float) -> None:
        station = self._serving_station()
        if station is None or not station.is_attached(self.mobile.mobile_id):
            return
        station_beam = station.serving_tx_beam(self.mobile.mobile_id)
        pose = self.mobile.pose_at(now_s)
        delivered = self.links.uplink_success(
            station,
            self.mobile.mobile_id,
            pose,
            self.mobile.rx_gain_fn(now_s, pose),
            self.beamsurfer.beam,
            station_beam,
            now_s,
        )
        if delivered:
            bearing = station.pose.bearing_to(pose.position)
            station.refine_tx_beam(self.mobile.mobile_id, bearing)

    # ------------------------------------------------------------- re-entry
    def _watchdog_tick(self) -> None:
        connection = self.mobile.connection
        now = self.sim.now
        if connection.serving_cell is None:
            return
        silence = connection.silence_s(now)
        if silence > self.config.context_loss_timeout_s:
            self.trace.emit(
                now, "connection.lost", self.mobile.mobile_id, silence_s=silence
            )
            self.metrics.incr("connection.context_lost")
            station = self._serving_station()
            if station is not None:
                station.detach(self.mobile.mobile_id)
            connection.drop()
            self._context_lost_s = now
            self._begin_blind_search(now)
        elif silence > self.config.rlf_timeout_s and connection.connected:
            connection.declare_rlf()
            self.metrics.incr("connection.rlf")

    def _begin_blind_search(self, now_s: float) -> None:
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
        self._rach_target = target
        self._pending_record = self.handover_log.open_record(
            self.mobile.mobile_id, "(lost)", target, now_s
        )
        self._rach = RandomAccessProcedure(
            self.sim,
            self.links,
            self._stations[target],
            self.mobile,
            self.deployment.config.rach,
            lambda: self._searcher.current_beam if self._searcher else None,
            lambda: self._searcher.last_tx_beam if self._searcher else None,
            self._on_rach_complete,
            trace=self.trace,
        )
        self._rach.start()

    def _on_rach_complete(self, result: RachResult) -> None:
        now = self.sim.now
        target = self._rach_target
        record = self._pending_record
        self._rach = None
        self._rach_target = None
        if record is not None:
            record.rach_attempts = result.attempts
        if not result.succeeded:
            if record is not None:
                record.outcome = HandoverOutcome.FAILED
            self._pending_record = None
            # Keep searching; the tracked beam (if any) will re-trigger.
            if self._searcher is not None and (
                self._searcher.state is NeighborState.TRACKING
            ):
                self._initiate_access(now)
            return
        # Hard handover completes: fresh context, full penalty.
        rx_beam = (
            self._searcher.current_beam
            if self._searcher and self._searcher.current_beam is not None
            else 0
        )
        tx_beam = self._searcher.last_tx_beam if self._searcher else None
        station = self._stations[target]
        station.attach(self.mobile.mobile_id, tx_beam)
        self.mobile.connection.establish(target, rx_beam, now)
        self.beamsurfer.rebind(
            rx_beam, self._searcher.smoothed_rss_dbm if self._searcher else None
        )
        interruption = (
            max(0.0, now - self._last_good_service_s)
            + self.config.hard_reentry_penalty_s
        )
        self._last_good_service_s = now
        if record is not None:
            record.complete_s = now
            record.outcome = HandoverOutcome.HARD
            record.interruption_s = interruption
        self.metrics.incr("handover.hard")
        self.metrics.record("handover.interruption_s", now, interruption)
        self.trace.emit(
            now,
            "handover.complete",
            self.mobile.mobile_id,
            target=target,
            outcome="hard",
            interruption_s=interruption,
        )
        self._searcher = None
        self._context_lost_s = None


class OracleTracker:
    """Genie-aided upper bound: perfect beams, perfect trigger.

    Implements :class:`~repro.net.mobile.BurstListener`.  Every burst is
    measured on the geometrically optimal receive beam; the handover
    trigger compares true mean RSS (no noise, no staleness); random
    access always uses the instantaneously optimal beams.
    """

    def __init__(
        self,
        deployment: Deployment,
        mobile: Mobile,
        serving_cell: str,
        handover_margin_db: float = 3.0,
    ) -> None:
        self.deployment = deployment
        self.mobile = mobile
        self.sim = deployment.sim
        self.links = deployment.links
        self.metrics = deployment.metrics
        self._stations: Dict[str, object] = {
            s.cell_id: s for s in deployment.stations
        }
        self.handover_margin_db = handover_margin_db
        self.handover_log = HandoverLog()
        station = self._stations[serving_cell]
        now = self.sim.now
        station.attach(
            mobile.mobile_id,
            station.best_tx_beam_towards(
                station.pose.bearing_to(mobile.pose_at(now).position)
            ),
        )
        mobile.connection.establish(
            serving_cell, mobile.best_rx_beam_towards(station, now), now
        )
        self._rach: Optional[RandomAccessProcedure] = None
        self._rach_target: Optional[str] = None
        self._pending_record = None
        self._last_good_service_s = now
        mobile.attach_listener(self)

    def start(self) -> None:
        """Interface parity with the real protocols (no watchdog needed)."""

    def stop(self) -> None:
        """Interface parity with the real protocols."""

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
        neighbors = [c for c in self._stations if c != serving_cell]
        if not neighbors:
            return
        # Sweep every neighbor once, then pick the max; ties resolve to
        # the first neighbor, as the former strict-improvement scan did.
        neighbor_rss = [self._mean_rss(self._stations[c], now_s) for c in neighbors]
        best = max(range(len(neighbors)), key=neighbor_rss.__getitem__)
        best_cell, best_rss = neighbors[best], neighbor_rss[best]
        if best_rss <= serving_rss + self.handover_margin_db:
            return
        self._rach_target = best_cell
        self._pending_record = self.handover_log.open_record(
            self.mobile.mobile_id, serving_cell, best_cell, now_s
        )
        station = self._stations[best_cell]
        self._rach = RandomAccessProcedure(
            self.sim,
            self.links,
            station,
            self.mobile,
            self.deployment.config.rach,
            lambda: self.mobile.best_rx_beam_towards(station, self.sim.now),
            lambda: station.best_tx_beam_towards(
                station.pose.bearing_to(self.mobile.pose_at(self.sim.now).position)
            ),
            self._on_rach_complete,
        )
        self._rach.start()

    def _on_rach_complete(self, result: RachResult) -> None:
        now = self.sim.now
        target = self._rach_target
        record = self._pending_record
        self._rach = None
        self._rach_target = None
        if record is not None:
            record.rach_attempts = result.attempts
        if not result.succeeded:
            if record is not None:
                record.outcome = HandoverOutcome.FAILED
            self._pending_record = None
            return
        old = self.mobile.connection.serving_cell
        if old is not None:
            self._stations[old].detach(self.mobile.mobile_id)
        station = self._stations[target]
        tx_beam = station.best_tx_beam_towards(
            station.pose.bearing_to(self.mobile.pose_at(now).position)
        )
        station.attach(self.mobile.mobile_id, tx_beam)
        self.mobile.connection.establish(
            target, self.mobile.best_rx_beam_towards(station, now), now
        )
        interruption = max(0.0, now - self._last_good_service_s)
        self._last_good_service_s = now
        if record is not None:
            record.complete_s = now
            record.outcome = HandoverOutcome.SOFT
            record.interruption_s = interruption
        self.metrics.incr("handover.soft")
        self._pending_record = None


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


def make_baseline(
    name: str,
    deployment: Deployment,
    mobile: Mobile,
    serving_cell: str,
    config: Optional[SilentTrackerConfig] = None,
):
    """Build any registered protocol arm (not just the paper's three).

    Thin wrapper over :func:`repro.registry.make_protocol`; unknown
    names raise with the full list of registered arms.
    """
    return make_protocol(name, deployment, mobile, serving_cell, config)
