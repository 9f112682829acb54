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
dwell outcome, which is the protocol's only window on the world.  The
mechanism it shares with the baselines -- serving upkeep, the watchdog,
random access and the context switch -- lives in
:class:`~repro.core.arm.ProtocolArm`; this class adds the policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.arm import ProtocolArm
from repro.core.beamsurfer import BeamSurfer
from repro.core.config import SilentTrackerConfig
from repro.core.events import Fig2bEdge, NeighborState, TrackerPhase
from repro.core.neighbor_tracker import NeighborTracker
from repro.measure.filters import HysteresisTrigger
from repro.measure.report import RssMeasurement
from repro.net.deployment import Deployment
from repro.net.handover import HandoverOutcome, HandoverRecord
from repro.net.mobile import Mobile


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


class SilentTracker(ProtocolArm):
    """The full protocol bound to one mobile in a deployment."""

    watchdog_label = "tracker.watchdog"

    def __init__(
        self,
        deployment: Deployment,
        mobile: Mobile,
        serving_cell: str,
        config: Optional[SilentTrackerConfig] = None,
    ) -> None:
        if len(deployment.stations) < 2:
            raise ValueError("Silent Tracker needs at least one neighbor cell")
        super().__init__(deployment, mobile, serving_cell, config)
        self.phase = TrackerPhase.OPERATING
        self.timelines: List[HandoverTimeline] = []
        self._active_timeline: Optional[HandoverTimeline] = None

        # ---- serving side -------------------------------------------------
        self.beamsurfer = BeamSurfer(
            mobile.codebook,
            mobile.connection.rx_beam,
            self.config.beamsurfer,
            on_transition=self._on_serving_transition,
        )

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
        self._ho_last_mobile_beam: Optional[int] = None
        self._ho_last_station_beam: Optional[int] = None

    def start(self) -> None:
        """Arm the watchdog and evaluate the initial search policy."""
        super().start()
        self._maybe_begin_search()

    def stop(self) -> None:
        """End the arm for good; also unhooks the sub-machines.

        Their transition hooks are bound methods of this arm.
        """
        super().stop()
        self.beamsurfer._on_transition = None
        self.tracker._on_transition = None

    # ------------------------------------------------------------ trace hooks
    def _on_serving_transition(self, old, new, edge: str, now_s: float) -> None:
        self._record(
            f"fsm.serving.{edge}",
            "fsm.serving",
            old=old.value,
            new=new.value,
            edge=edge,
        )

    def _on_neighbor_transition(
        self, old, new, edge: Fig2bEdge, now_s: float
    ) -> None:
        self._record(
            f"fsm.neighbor.{edge.value}",
            "fsm.neighbor",
            old=old.value,
            new=new.value,
            edge=edge.value,
        )
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
        self._record(
            "fsm.neighbor.E", "handover.trigger", source=source, target=target
        )
        timeline = self._active_timeline
        if timeline is not None:
            timeline.trigger_s = now_s
            timeline.target_cell = target
        if self.phase is TrackerPhase.OPERATING:
            self.phase = TrackerPhase.HANDOVER
        self._ho_last_mobile_beam = None
        self._ho_last_station_beam = None
        self._start_access(
            source,
            target,
            now_s,
            self._provide_mobile_beam,
            self._provide_station_beam,
        )

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

    def _on_access_failed(self, now_s: float) -> None:
        # The tracked beam (if still held) remains; a later trigger may
        # retry.  If the context is gone we stay in re-entry and the next
        # acquisition retries immediately.
        self._ho_trigger.reset()
        self._margin_asserted_since = None
        if self.phase is TrackerPhase.HANDOVER:
            self.phase = TrackerPhase.OPERATING

    def _complete_handover(self, record: HandoverRecord, now_s: float) -> None:
        """Context switch onto the tracked cell after msg4.

        Soft if the old context survived to msg4; after a context loss
        the mobile pays the idle re-entry (hard handover).
        """
        context_alive = self.mobile.connection.serving_cell is not None
        outcome = (
            HandoverOutcome.SOFT
            if context_alive and self.phase is not TrackerPhase.REENTRY
            else HandoverOutcome.HARD
        )
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
        self.beamsurfer.rebind(rx_beam, self.tracker.smoothed_rss_dbm)
        self._switch_context(record, now_s, outcome, rx_beam, tx_beam)
        timeline = self._active_timeline
        if timeline is not None:
            timeline.complete_s = now_s
            timeline.outcome = outcome
        self._active_timeline = None
        self.phase = TrackerPhase.OPERATING
        self._ho_trigger.reset()
        self._margin_asserted_since = None
        self.tracker.go_idle(now_s)
        self.tracker.retarget(self._neighbor_cells())
        self._maybe_begin_search()

    # --------------------------------------------------------------- watchdog
    def _on_context_lost(self, now_s: float) -> None:
        self.phase = TrackerPhase.REENTRY
        # Every cell is now a candidate, including the one just lost.
        self.tracker.retarget(list(self._stations))
        if self.tracker.state is NeighborState.IDLE:
            self._maybe_begin_search()
        elif self.tracker.state is NeighborState.TRACKING:
            # Already tracking someone: go straight for it.
            self._evaluate_handover_trigger(now_s)

    def _on_serving_silent(self, now_s: float) -> None:
        self._evaluate_handover_trigger(now_s)
