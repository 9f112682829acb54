"""The handover mechanism every protocol arm shares.

The paper splits a soft handover into four steps: directional neighbor
search, beam tracking, the cell access request and the context switch.
The arms of the comparison -- Silent Tracker, the reactive baseline and
the genie oracle -- differ only in *policy*: when to search, when to
trigger, which beams to hand random access.  :class:`ProtocolArm` owns
the *mechanism* once:

* attachment to the serving cell at construction;
* serving-link upkeep: decodable bursts keep the context alive,
  BeamSurfer adapts the serving beam, and its cell-assisted (CABM)
  transmit-beam request goes out on the uplink;
* the watchdog: radio-link failure after ``rlf_timeout_s`` of silence,
  context loss after ``context_loss_timeout_s``.  Every arm's watchdog
  rides the deployment's watchdog grid (:attr:`Deployment.watchdogs
  <repro.net.deployment.Deployment.watchdogs>`), so the arms of a fleet
  started together share one heap event per ``monitor_period_s``; a
  lone arm's single-member grid fires exactly as a ``PeriodicTask``
  would;
* random access to a target cell, with a :class:`HandoverRecord`
  opened at the trigger and closed at msg4;
* the context switch onto the target cell.

Subclasses keep their policy in a handful of hooks:
:meth:`_complete_handover` (which beams and outcome to switch with),
:meth:`_on_access_failed`, :meth:`_on_context_lost` and
:meth:`_on_serving_silent`.  Every counted protocol event goes through
:meth:`ProtocolArm._record`, so the counter and its trace record cannot
drift apart.
"""

from __future__ import annotations

from math import atan2
from typing import Callable, List, Mapping, Optional

from repro.core.config import SilentTrackerConfig
from repro.measure.report import RssMeasurement
from repro.net.deployment import Deployment
from repro.net.handover import HandoverLog, HandoverOutcome, HandoverRecord
from repro.net.mobile import Mobile
from repro.net.random_access import RachResult, RandomAccessProcedure
from repro.sim.engine import BurstMember

BeamProvider = Callable[[], Optional[int]]


class ProtocolArm:
    """One beam-management protocol bound to one mobile in a deployment.

    Implements the bookkeeping half of
    :class:`~repro.net.mobile.BurstListener`; subclasses add
    ``choose_rx_beam``, ``candidate_cells`` and ``on_measurement``.  An
    arm that routes serving bursts through
    :meth:`_on_serving_measurement` sets ``self.beamsurfer``.
    """

    #: Label of the watchdog task; ``None`` runs no watchdog.
    watchdog_label: Optional[str] = None

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
        #: A view, not a copy: a dense fleet builds one arm per mobile.
        self._stations: Mapping[str, object] = deployment.station_map
        if serving_cell not in self._stations:
            raise ValueError(f"unknown serving cell {serving_cell!r}")
        self.handover_log = HandoverLog()

        station = self._stations[serving_cell]
        now = self.sim.now
        initial_tx = self._best_tx_beam(station, now)
        initial_rx = mobile.best_rx_beam_towards(station, now)
        station.attach(mobile.mobile_id, initial_tx)
        mobile.connection.establish(serving_cell, initial_rx, now)
        self._last_good_service_s = now

        self._rach: Optional[RandomAccessProcedure] = None
        self._pending_record: Optional[HandoverRecord] = None
        self._watchdog: Optional[BurstMember] = None
        self._started = False
        mobile.attach_listener(self)

    # ----------------------------------------------------------------- wiring
    def _serving_station(self):
        cell = self.mobile.connection.serving_cell
        return self._stations[cell] if cell is not None else None

    def _best_tx_beam(self, station, now_s: float) -> int:
        """The beam of ``station`` that points best at the mobile now."""
        return station.best_tx_beam_towards(
            station.pose.bearing_to(self.mobile.pose_at(now_s).position)
        )

    def _neighbor_cells(self) -> List[str]:
        serving = self.mobile.connection.serving_cell
        return [cid for cid in self._stations if cid != serving]

    def _emit(self, category: str, **data) -> None:
        self.trace.emit(self.sim.now, category, self.mobile.mobile_id, **data)

    def _record(self, counter: str, category: str, **data) -> None:
        """Count ``counter`` and, when the trace is on, emit ``category``."""
        self.metrics.incr(counter)
        if self.trace.enabled:
            self._emit(category, **data)

    def start(self) -> None:
        """Arm the watchdog (arms without one have nothing to start)."""
        if self.watchdog_label is None:
            return
        if self._started:
            raise RuntimeError(f"{type(self).__name__} already started")
        self._started = True
        self._watchdog = self.deployment.watchdogs.add(
            self.config.monitor_period_s,
            self._watchdog_tick,
            start_delay=self.config.monitor_period_s,
            label=self.watchdog_label,
        )

    def stop(self) -> None:
        """End the arm for good (end of a trial).  Idempotent.

        Stops the watchdog, aborts an in-flight random access (its
        handover record stays open and ``_on_rach_complete`` never
        runs) and detaches the arm from its mobile.  After that nothing
        the deployment holds points back at the arm, so a stopped fleet
        holds no reference cycle and goes as soon as it is dropped.
        The handover log, the mobile's connection and its burst counters
        stay readable.  A stopped arm cannot be restarted.
        """
        if self._watchdog is not None:
            self._watchdog.stop()
            self._watchdog = None
        if self._rach is not None:
            self._rach.abort()
            self._rach = None
        if self.mobile.listener is self:
            self.mobile.attach_listener(None)

    # ------------------------------------------------------------ serving path
    def _on_serving_measurement(
        self, measurement: RssMeasurement, now_s: float
    ) -> None:
        """A decodable burst keeps the context alive; BeamSurfer adapts."""
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
            self._attempt_cabm_request(station, now_s)

    def _attempt_cabm_request(self, station, now_s: float) -> None:
        """Send the BeamSurfer transmit-beam switch request on the uplink.

        At the cell edge this is the message that starts failing — the
        'assistance delayed or lost' condition of edge G.  The request
        reacts to the serving burst just delivered, so it reuses the
        pose and receive-gain function that burst was measured with.
        """
        mobile = self.mobile
        mobile_id = mobile.mobile_id
        if not station.is_attached(mobile_id):
            return
        pose, rx_gain_fn = mobile.geometry_at(now_s)
        delivered = self.links.uplink_success(
            station,
            mobile_id,
            pose,
            rx_gain_fn,
            self.beamsurfer.beam,
            station.serving_tx_beam(mobile_id),
            now_s,
        )
        self._record(
            "cabm.delivered" if delivered else "cabm.lost",
            "cabm.request",
            delivered=delivered,
        )
        if delivered:
            # The station-side bearing, as the message path computes it.
            origin = station.pose.position
            position = pose.position
            new_beam = station.refine_tx_beam(
                mobile_id, atan2(position.y - origin.y, position.x - origin.x)
            )
            if self.trace.enabled:
                self._emit("cabm.refined", tx_beam=new_beam)

    # --------------------------------------------------------------- watchdog
    def _watchdog_tick(self) -> None:
        connection = self.mobile.connection
        if connection.serving_cell is None:
            return
        now = self.sim.now
        silence = connection.silence_s(now)
        if silence > self.config.context_loss_timeout_s:
            self._drop_context(silence)
            self._on_context_lost(now)
        elif silence > self.config.rlf_timeout_s:
            if connection.connected:
                self._record(
                    "connection.rlf", "connection.rlf", silence_s=silence
                )
                connection.declare_rlf()
            self._on_serving_silent(now)

    def _drop_context(self, silence_s: float) -> None:
        """The serving cell gave up on the mobile: release its context."""
        self._record(
            "connection.context_lost", "connection.lost", silence_s=silence_s
        )
        station = self._serving_station()
        if station is not None:
            station.detach(self.mobile.mobile_id)
        self.mobile.connection.drop()

    def _on_context_lost(self, now_s: float) -> None:
        """Policy hook: the serving context was just dropped."""

    def _on_serving_silent(self, now_s: float) -> None:
        """Policy hook: the serving link is past the RLF timeout."""

    # ---------------------------------------------------------- random access
    def _start_access(
        self,
        source: str,
        target: str,
        now_s: float,
        mobile_beam: BeamProvider,
        station_beam: BeamProvider,
    ) -> None:
        """Open the handover record and begin random access to ``target``."""
        self._pending_record = self.handover_log.open_record(
            self.mobile.mobile_id, source, target, now_s
        )
        self._rach = RandomAccessProcedure(
            self.sim,
            self.links,
            self._stations[target],
            self.mobile,
            self.deployment.config.rach,
            mobile_beam,
            station_beam,
            self._on_rach_complete,
            trace=self.trace,
        )
        self._rach.start()

    def _on_rach_complete(self, result: RachResult) -> None:
        now = self.sim.now
        record = self._pending_record
        self._rach = None
        self._pending_record = None
        record.rach_attempts = result.attempts
        if not result.succeeded:
            self._emit(
                "handover.failed",
                target=record.target_cell,
                attempts=result.attempts,
            )
            record.outcome = HandoverOutcome.FAILED
            self._on_access_failed(now)
            return
        self._complete_handover(record, now)

    def _complete_handover(self, record: HandoverRecord, now_s: float) -> None:
        """Policy hook: msg4 landed; pick beams and call :meth:`_switch_context`."""
        raise NotImplementedError

    def _on_access_failed(self, now_s: float) -> None:
        """Policy hook: random access gave up (the record is closed FAILED)."""

    # --------------------------------------------------------- context switch
    def _switch_context(
        self,
        record: HandoverRecord,
        now_s: float,
        outcome: HandoverOutcome,
        rx_beam: Optional[int],
        tx_beam: Optional[int],
    ) -> None:
        """Move the mobile's context onto ``record``'s target cell.

        The interruption runs from the last serving burst that counted
        as service to msg4; a hard handover also pays the idle re-entry
        penalty.
        """
        interruption = max(0.0, now_s - self._last_good_service_s)
        if outcome is HandoverOutcome.HARD:
            interruption += self.config.hard_reentry_penalty_s
        old_station = self._serving_station()
        if old_station is not None:
            old_station.detach(self.mobile.mobile_id)
        target = record.target_cell
        self._stations[target].attach(self.mobile.mobile_id, tx_beam)
        self.mobile.connection.establish(target, rx_beam, now_s)
        self._last_good_service_s = now_s
        record.complete_s = now_s
        record.outcome = outcome
        record.interruption_s = interruption
        self._record(
            f"handover.{outcome.value}",
            "handover.complete",
            target=target,
            outcome=outcome.value,
            interruption_s=interruption,
        )
