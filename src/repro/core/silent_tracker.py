"""Silent Tracker: in-band beam management for soft handover (Fig. 2b).

The protocol composes three concerns, all driven purely by in-band RSS
at the mobile:

1. **Serving-link maintenance** via :class:`~repro.core.beamsurfer.BeamSurfer`
   (EO / S-RBA / CABM states, edges A, F, G).
2. **Silent neighbor tracking** via
   :class:`~repro.core.neighbor_tracker.NeighborTracker`
   (N-A/R / N-RBA states, edges B, C, D, H) — performed *without any
   assistance from the neighbor cell*, which does not yet know the
   mobile exists.
3. **The handover itself** (edge E): when the smoothed neighbor RSS
   exceeds the serving RSS by the margin T (or the serving link dies
   while a neighbor beam is tracked), the mobile initiates random
   access to the neighbor *on the silently tracked beam* and keeps both
   beams adapted until msg4 lands.  If the old context is still alive at
   completion, the switch is a soft handover; if it was lost first, the
   mobile pays the full idle re-entry (hard handover).

The class implements :class:`~repro.net.mobile.BurstListener`: the
mobile asks it for a receive beam at every SSB burst and returns the
dwell outcome, which is the protocol's only window on the world.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.beamsurfer import BeamSurfer, ServingState
from repro.core.config import SilentTrackerConfig
from repro.core.events import Fig2bEdge, NeighborState, TrackerPhase
from repro.core.neighbor_tracker import NeighborTracker
from repro.measure.filters import HysteresisTrigger
from repro.measure.report import RssMeasurement
from repro.net.deployment import Deployment
from repro.net.handover import HandoverLog, HandoverOutcome
from repro.net.mobile import Mobile
from repro.net.random_access import RachResult, RandomAccessProcedure
from repro.sim.engine import PeriodicTask


@dataclass
class HandoverTimeline:
    """Timestamps of one handover episode, for the Fig. 2c metric.

    ``search_start_s`` is edge B (neighbor search initiated); the
    paper's Fig. 2c CDF measures the time from there to random-access
    completion — the span over which the tracker had to keep the
    neighbor beam aligned.
    """

    search_start_s: float
    found_s: Optional[float] = None
    trigger_s: Optional[float] = None
    complete_s: Optional[float] = None
    target_cell: Optional[str] = None
    outcome: Optional[HandoverOutcome] = None
    rach_attempts: int = 0
    beam_switches_while_tracking: int = 0
    reacquisitions: int = 0

    @property
    def completion_time_s(self) -> Optional[float]:
        """Edge B to msg4, the Fig. 2c quantity."""
        if self.complete_s is None:
            return None
        return self.complete_s - self.search_start_s

    @property
    def tracking_time_s(self) -> Optional[float]:
        """Edge C to msg4: how long alignment had to be maintained."""
        if self.complete_s is None or self.found_s is None:
            return None
        return self.complete_s - self.found_s


class SilentTracker:
    """The full protocol bound to one mobile in a deployment."""

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
        if len(self._stations) < 2:
            raise ValueError("Silent Tracker needs at least one neighbor cell")

        self.phase = TrackerPhase.OPERATING
        self.handover_log = HandoverLog()
        self.timelines: List[HandoverTimeline] = []
        self._active_timeline: Optional[HandoverTimeline] = None

        # ---- serving side -------------------------------------------------
        station = self._stations[serving_cell]
        now = self.sim.now
        initial_tx = station.best_tx_beam_towards(
            station.pose.bearing_to(mobile.pose_at(now).position)
        )
        initial_rx = mobile.best_rx_beam_towards(station, now)
        station.attach(mobile.mobile_id, initial_tx)
        mobile.connection.establish(serving_cell, initial_rx, now)
        self.beamsurfer = BeamSurfer(
            mobile.codebook,
            initial_rx,
            self.config.beamsurfer,
            on_transition=self._on_serving_transition,
        )
        self._last_good_service_s = now

        # ---- neighbor side ------------------------------------------------
        self.tracker = NeighborTracker(
            mobile.codebook,
            self._neighbor_cells(),
            adapt_threshold_db=self.config.adapt_threshold_db,
            loss_threshold_db=self.config.loss_threshold_db,
            loss_miss_limit=self.config.loss_miss_limit,
            ewma_alpha=self.config.ewma_alpha,
            on_transition=self._on_neighbor_transition,
        )
        self._ho_trigger = HysteresisTrigger(
            self.config.handover_margin_db,
            self.config.handover_margin_db - self.config.handover_hysteresis_db,
        )
        #: When the margin condition first asserted (for time-to-trigger).
        self._margin_asserted_since: Optional[float] = None

        # ---- handover machinery -------------------------------------------
        self._rach: Optional[RandomAccessProcedure] = None
        self._rach_target: Optional[str] = None
        self._ho_last_mobile_beam: Optional[int] = None
        self._ho_last_station_beam: Optional[int] = None
        self._pending_record = None
        self._watchdog: Optional[PeriodicTask] = None
        self._started = False

        mobile.attach_listener(self)

    # ----------------------------------------------------------------- wiring
    def _neighbor_cells(self) -> List[str]:
        serving = self.mobile.connection.serving_cell
        return [cid for cid in self._stations if cid != serving]

    def _serving_station(self):
        cell = self.mobile.connection.serving_cell
        return self._stations[cell] if cell is not None else None

    def start(self) -> None:
        """Arm the watchdog and evaluate the initial search policy."""
        if self._started:
            raise RuntimeError("tracker already started")
        self._started = True
        self._watchdog = PeriodicTask(
            self.sim,
            self.config.monitor_period_s,
            self._watchdog_tick,
            start_delay=self.config.monitor_period_s,
            label="tracker.watchdog",
        )
        self._maybe_begin_search()

    def stop(self) -> None:
        """Stop background activity (end of a trial)."""
        if self._watchdog is not None:
            self._watchdog.stop()
            self._watchdog = None

    # ------------------------------------------------------------ trace hooks
    def _emit(self, category: str, **data) -> None:
        self.trace.emit(self.sim.now, category, self.mobile.mobile_id, **data)

    def _on_serving_transition(self, old, new, edge: str, now_s: float) -> None:
        self.metrics.incr(f"fsm.serving.{edge}")
        self._emit(
            "fsm.serving", old=old.value, new=new.value, edge=edge
        )

    def _on_neighbor_transition(
        self, old, new, edge: Fig2bEdge, now_s: float
    ) -> None:
        self.metrics.incr(f"fsm.neighbor.{edge.value}")
        self._emit("fsm.neighbor", old=old.value, new=new.value, edge=edge.value)
        timeline = self._active_timeline
        if timeline is None:
            return
        if edge is Fig2bEdge.C and timeline.found_s is None:
            timeline.found_s = now_s
        elif edge is Fig2bEdge.H:
            timeline.beam_switches_while_tracking += 1
        elif edge is Fig2bEdge.D:
            timeline.reacquisitions += 1

    # ----------------------------------------------------- BurstListener API
    def choose_rx_beam(self, cell_id: str, now_s: float) -> Optional[int]:
        """Beam selection for an SSB burst of ``cell_id`` (one RF chain)."""
        serving = self.mobile.connection.serving_cell
        if cell_id == serving:
            return self.beamsurfer.beam_for_burst()
        return self.tracker.beam_for_burst(cell_id)

    def candidate_cells(self, now_s: float) -> Optional[Tuple[str, ...]]:
        """The serving cell plus the neighbour tracker's cells."""
        cells = self.tracker.candidate_cells()
        serving = self.mobile.connection.serving_cell
        if cells is None or serving is None:
            return cells
        return (serving,) + cells

    def on_measurement(self, measurement: RssMeasurement) -> None:
        """Dispatch a dwell outcome to the owning sub-machine."""
        now = self.sim.now
        serving = self.mobile.connection.serving_cell
        if measurement.cell_id == serving:
            self._on_serving_measurement(measurement, now)
        else:
            self.tracker.on_measurement(measurement, now)
        self._evaluate_handover_trigger(now)
        self._maybe_begin_search()

    # ------------------------------------------------------------ serving path
    def _on_serving_measurement(self, measurement: RssMeasurement, now_s: float) -> None:
        station = self._serving_station()
        if station is None:
            return
        budget = station.link_budget
        if (
            measurement.detected
            and measurement.snr_db is not None
            and measurement.snr_db >= budget.decode_snr_db
        ):
            self.mobile.connection.touch(now_s)
            self._last_good_service_s = now_s
        self.beamsurfer.on_serving_measurement(measurement, now_s)
        if self.beamsurfer.cabm_request_pending:
            self._attempt_cabm_request(now_s)

    def _attempt_cabm_request(self, now_s: float) -> None:
        """Send the BeamSurfer transmit-beam switch request on the uplink.

        At the cell edge this is the message that starts failing — the
        'assistance delayed or lost' condition of edge G.
        """
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
        self.metrics.incr(
            "cabm.delivered" if delivered else "cabm.lost"
        )
        self._emit("cabm.request", delivered=delivered)
        if delivered:
            bearing = station.pose.bearing_to(pose.position)
            new_beam = station.refine_tx_beam(self.mobile.mobile_id, bearing)
            self._emit("cabm.refined", tx_beam=new_beam)

    # ----------------------------------------------------------- search policy
    def _search_wanted(self) -> bool:
        if self.phase is TrackerPhase.REENTRY:
            return True
        if self.config.search_policy == "always":
            return True
        station = self._serving_station()
        if station is None:
            return True
        rss = self.beamsurfer.smoothed_rss_dbm
        if rss is None:
            return False
        return (
            station.link_budget.snr_db(rss) < self.config.edge_snr_threshold_db
        )

    def _maybe_begin_search(self) -> None:
        if self.tracker.state is not NeighborState.IDLE:
            return
        if not self._search_wanted():
            return
        self.tracker.begin_search(self.sim.now)
        if self._active_timeline is None:
            self._active_timeline = HandoverTimeline(search_start_s=self.sim.now)
            self.timelines.append(self._active_timeline)

    # -------------------------------------------------------- handover trigger
    def _evaluate_handover_trigger(self, now_s: float) -> None:
        if self._rach is not None:
            return  # already mid-handover
        neighbor_rss = self.tracker.smoothed_rss_dbm
        if neighbor_rss is None:
            return
        if self.phase is TrackerPhase.REENTRY:
            # Any found cell is the target: there is nothing to compare
            # against, the context is already gone.
            self._initiate_handover(now_s)
            return
        serving_rss = self.beamsurfer.smoothed_rss_dbm
        connection = self.mobile.connection
        serving_dead = not connection.connected
        if serving_dead:
            # Edge E, forced: adaptation (ii) is no longer possible and
            # the serving link is disrupted.
            self._initiate_handover(now_s)
            return
        if serving_rss is None:
            return
        margin = neighbor_rss - serving_rss
        if not self._ho_trigger.update(margin):
            self._margin_asserted_since = None
            return
        # NR-style time-to-trigger: the margin must hold continuously
        # before edge E fires (0 = the paper's minimal protocol).
        if self._margin_asserted_since is None:
            self._margin_asserted_since = now_s
        if now_s - self._margin_asserted_since >= self.config.time_to_trigger_s:
            self._initiate_handover(now_s)

    def _initiate_handover(self, now_s: float) -> None:
        """Edge E: begin random access toward the tracked cell."""
        target = self.tracker.focused_cell
        if target is None or self.tracker.last_tx_beam is None:
            return
        source = self.mobile.connection.serving_cell or "(lost)"
        self.metrics.incr("fsm.neighbor.E")
        self._emit("handover.trigger", source=source, target=target)
        timeline = self._active_timeline
        if timeline is not None:
            timeline.trigger_s = now_s
            timeline.target_cell = target
        self._pending_record = self.handover_log.open_record(
            self.mobile.mobile_id, source, target, now_s
        )
        if self.phase is TrackerPhase.OPERATING:
            self.phase = TrackerPhase.HANDOVER
        self._rach_target = target
        self._ho_last_mobile_beam = None
        self._ho_last_station_beam = None
        self._rach = RandomAccessProcedure(
            self.sim,
            self.links,
            self._stations[target],
            self.mobile,
            self.deployment.config.rach,
            self._provide_mobile_beam,
            self._provide_station_beam,
            self._on_rach_complete,
            trace=self.trace,
        )
        self._rach.start()

    def _provide_mobile_beam(self) -> Optional[int]:
        beam = self.tracker.current_beam
        if beam is not None:
            self._ho_last_mobile_beam = beam
        return beam

    def _provide_station_beam(self) -> Optional[int]:
        beam = self.tracker.last_tx_beam
        if beam is not None:
            self._ho_last_station_beam = beam
        return beam

    def _on_rach_complete(self, result: RachResult) -> None:
        now = self.sim.now
        record = self._pending_record
        target = self._rach_target
        self._rach = None
        self._rach_target = None
        if record is not None:
            record.rach_attempts = result.attempts
        if not result.succeeded:
            self._emit("handover.failed", target=target, attempts=result.attempts)
            if record is not None:
                record.outcome = HandoverOutcome.FAILED
            self._pending_record = None
            self._ho_trigger.reset()
            self._margin_asserted_since = None
            if self.phase is TrackerPhase.HANDOVER:
                self.phase = TrackerPhase.OPERATING
            # The tracked beam (if still held) remains; a later trigger
            # may retry.  If the context is gone we stay in re-entry and
            # the next acquisition retries immediately.
            return
        self._complete_handover(target, record, now)

    def _complete_handover(self, target: str, record, now_s: float) -> None:
        """Context switch onto the target cell after msg4."""
        connection = self.mobile.connection
        context_alive = connection.serving_cell is not None
        outcome = (
            HandoverOutcome.SOFT
            if context_alive and self.phase is not TrackerPhase.REENTRY
            else HandoverOutcome.HARD
        )
        interruption = max(0.0, now_s - self._last_good_service_s)
        if outcome is HandoverOutcome.HARD:
            # Idle re-entry also pays the context-rebuild penalty.
            interruption += self.config.hard_reentry_penalty_s
        old_station = self._serving_station()
        if old_station is not None:
            old_station.detach(self.mobile.mobile_id)
        rx_beam = (
            self.tracker.current_beam
            if self.tracker.current_beam is not None
            else self._ho_last_mobile_beam
        )
        tx_beam = (
            self.tracker.last_tx_beam
            if self.tracker.last_tx_beam is not None
            else self._ho_last_station_beam
        )
        station = self._stations[target]
        station.attach(self.mobile.mobile_id, tx_beam)
        connection.establish(target, rx_beam, now_s)
        self.beamsurfer.rebind(rx_beam, self.tracker.smoothed_rss_dbm)
        self._last_good_service_s = now_s
        if record is not None:
            record.complete_s = now_s
            record.outcome = outcome
            record.interruption_s = interruption
        timeline = self._active_timeline
        if timeline is not None:
            timeline.complete_s = now_s
            timeline.outcome = outcome
        self._active_timeline = None
        self._pending_record = None
        self.metrics.incr(f"handover.{outcome.value}")
        self.metrics.record("handover.interruption_s", now_s, interruption)
        self._emit(
            "handover.complete",
            target=target,
            outcome=outcome.value,
            interruption_s=interruption,
        )
        self.phase = TrackerPhase.OPERATING
        self._ho_trigger.reset()
        self._margin_asserted_since = None
        self.tracker.go_idle(now_s)
        self.tracker.retarget(self._neighbor_cells())
        self._maybe_begin_search()

    # --------------------------------------------------------------- watchdog
    def _watchdog_tick(self) -> None:
        connection = self.mobile.connection
        now = self.sim.now
        if connection.serving_cell is None:
            return
        silence = connection.silence_s(now)
        if silence > self.config.context_loss_timeout_s:
            self._emit("connection.lost", silence_s=silence)
            self.metrics.incr("connection.context_lost")
            station = self._serving_station()
            if station is not None:
                station.detach(self.mobile.mobile_id)
            connection.drop()
            self.phase = TrackerPhase.REENTRY
            # Every cell is now a candidate, including the one just lost.
            self.tracker.retarget(list(self._stations))
            if self.tracker.state is NeighborState.IDLE:
                self._maybe_begin_search()
            elif self.tracker.state is NeighborState.TRACKING:
                # Already tracking someone: go straight for it.
                self._evaluate_handover_trigger(now)
        elif silence > self.config.rlf_timeout_s:
            if connection.connected:
                self._emit("connection.rlf", silence_s=silence)
                self.metrics.incr("connection.rlf")
                connection.declare_rlf()
            self._evaluate_handover_trigger(now)

    # ------------------------------------------------------------- inspection
    def fig2b_state(self) -> str:
        """The paper's single-machine view of the composite state."""
        if self.tracker.state is NeighborState.SEARCHING:
            return "N-A/R"
        if self.tracker.state is NeighborState.TRACKING:
            if self.beamsurfer.state is ServingState.EDGE_OPERATION:
                return "N-RBA"
            # Serving-side adaptation takes narrative priority in the
            # figure when both are active.
        return {
            ServingState.EDGE_OPERATION: "EO",
            ServingState.MOBILE_ADAPTATION: "S-RBA",
            ServingState.CELL_ASSISTED: "CABM",
        }[self.beamsurfer.state]
