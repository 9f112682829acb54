"""Mobile node: one RF chain, a body-frame receive codebook, a protocol.

The mobile is deliberately thin: all beam-management intelligence lives
in the attached :class:`BurstListener` (Silent Tracker or a baseline).
The mobile contributes exactly the physical constraints the paper's
hardware imposes:

* **One RF chain** — it can hold one receive beam at a time; bursts of
  different cells that overlap in time conflict, and the loser is
  skipped (counted, so experiments can report the measurement-budget
  pressure).
* **Body-frame beams** — receive gain toward a world azimuth depends on
  the device heading at that instant, which is how rotation stresses
  tracking without any translation.
"""

from __future__ import annotations

from typing import Callable, Collection, Optional, Protocol, Tuple

from repro.geometry.pose import Pose
from repro.measure.report import RssMeasurement
from repro.mobility.base import Trajectory
from repro.net.base_station import BaseStation
from repro.net.connection import ConnectionContext
from repro.phy.codebook import Codebook


class BurstListener(Protocol):
    """What a beam-management protocol must implement to drive a mobile.

    ``candidate_cells`` is optional: a listener without it is asked
    about every cell, exactly as if it returned ``None``.
    """

    def choose_rx_beam(self, cell_id: str, now_s: float) -> Optional[int]:
        """Receive beam to hold for this cell's burst, or None to skip."""
        ...

    def on_measurement(self, measurement: RssMeasurement) -> None:
        """Deliver the outcome of a burst dwell previously requested."""
        ...

    def candidate_cells(self, now_s: float) -> Optional[Collection[str]]:
        """Cells whose burst this listener could take at ``now_s``.

        A **superset** rule: for every cell outside the answer,
        ``choose_rx_beam`` returns ``None`` and leaves the listener's
        state unchanged.  ``None`` means every cell.  Duplicates and
        cells that are not on the tick are harmless.

        When several mobiles share a tick of several stations, the
        deployment calls this **once per SSB tick**, at the tick's start
        and only while the RF chain is free, and trusts the answer for
        all ``choose_rx_beam`` calls of that tick.  No
        ``on_measurement`` runs in between: a tick's measurements are
        delivered after its arbitration.  Since the answer is rebuilt
        every tick, return ``None`` rather than list nearly every cell.
        """
        ...


class Mobile:
    """A mm-wave handset with a steerable receive codebook."""

    def __init__(
        self,
        mobile_id: str,
        trajectory: Trajectory,
        codebook: Codebook,
    ) -> None:
        if not mobile_id:
            raise ValueError("mobile_id must be non-empty")
        self.mobile_id = mobile_id
        self.trajectory = trajectory
        self.codebook = codebook
        self.connection = ConnectionContext()
        self._listener: Optional[BurstListener] = None
        #: The listener's bound ``candidate_cells``, resolved once at
        #: attach time; ``None`` when the listener does not define it.
        self._candidate_cells: Optional[
            Callable[[float], Optional[Collection[str]]]
        ] = None
        self._busy_until_s = -1.0
        #: Bursts skipped because the single RF chain was occupied.
        self.bursts_skipped_busy = 0
        #: Bursts skipped because the listener declined a beam.
        self.bursts_declined = 0
        #: Bursts actually measured.
        self.bursts_measured = 0
        #: The last instant :meth:`geometry_at` evaluated, with its pose
        #: and receive-gain function.
        self._geometry_s: Optional[float] = None
        self._geometry: Optional[Tuple[Pose, Callable[[int, float], float]]] = None

    # -------------------------------------------------------------- wiring
    def attach_listener(self, listener: Optional[BurstListener]) -> None:
        """Install the beam-management protocol driving this mobile.

        ``None`` detaches the current one; bursts are then skipped
        silently.  A protocol arm detaches itself in its ``stop()``, so
        a finished mobile no longer points back at the arm that points
        at it.
        """
        self._listener = listener
        self._candidate_cells = getattr(listener, "candidate_cells", None)

    @property
    def listener(self) -> Optional[BurstListener]:
        return self._listener

    # ------------------------------------------------------------ geometry
    def pose_at(self, time_s: float) -> Pose:
        """Current pose from the mobility model."""
        return self.trajectory.pose_at(time_s)

    def rx_gain_fn(
        self, time_s: float, pose: Optional[Pose] = None
    ) -> Callable[[int, float], float]:
        """Receive-gain function bound to the pose at ``time_s``.

        Returns ``f(rx_beam, world_azimuth) -> dBi``; the device heading
        at ``time_s`` is baked in so the link engine needs no knowledge
        of body frames.  Callers that already computed the pose for
        ``time_s`` can pass it to skip the trajectory lookup (the burst
        delivery hot path does).
        """
        if pose is None:
            pose = self.pose_at(time_s)
        # The codebook, not ``self``: the mobile caches this closure in
        # ``_geometry``, and capturing ``self`` would make that a cycle.
        codebook = self.codebook

        def gain(rx_beam: int, world_azimuth: float) -> float:
            return codebook.gain_dbi(rx_beam, pose.world_to_body(world_azimuth))

        return gain

    def geometry_at(
        self, time_s: float, pose: Optional[Pose] = None
    ) -> Tuple[Pose, Callable[[int, float], float]]:
        """``(pose, rx_gain_fn)`` at ``time_s``, evaluated once per instant.

        The burst delivery paths pass the pose they sampled; a message
        sent at the same instant -- the CABM request that reacts to a
        serving burst, or a random-access message -- then reuses both
        instead of sampling the trajectory and building the gain
        function again.  Trajectories are pure functions of time, so
        the reuse changes no value.
        """
        if pose is None:
            if time_s == self._geometry_s:
                return self._geometry
            pose = self.pose_at(time_s)
        geometry = (pose, self.rx_gain_fn(time_s, pose))
        self._geometry_s = time_s
        self._geometry = geometry
        return geometry

    def best_rx_beam_towards(self, station: BaseStation, time_s: float) -> int:
        """Genie helper: codebook beam best pointed at a station *now*.

        Used by oracle baselines and tests, never by the in-band
        protocols (which must discover beams from measurements alone).
        """
        pose = self.pose_at(time_s)
        body_azimuth = pose.body_bearing_to(station.pose.position)
        return self.codebook.best_beam_towards(body_azimuth).index

    # ---------------------------------------------------------------- radio
    def radio_busy(self, now_s: float) -> bool:
        """Whether the RF chain is still occupied by an earlier dwell."""
        return now_s < self._busy_until_s

    def occupy_radio(self, now_s: float, duration_s: float) -> None:
        """Mark the RF chain busy for ``duration_s`` starting at ``now_s``."""
        if duration_s < 0.0:
            raise ValueError(f"duration must be non-negative, got {duration_s!r}")
        self._busy_until_s = max(self._busy_until_s, now_s + duration_s)

    def begin_burst(self, station: BaseStation, now_s: float) -> Optional[int]:
        """RF-chain arbitration prologue of one SSB burst.

        Applies the single-RF-chain check, asks the listener for a
        receive beam, and occupies the radio for the burst.  Returns
        the receive beam index when the burst will be measured, ``None``
        when it is skipped (busy or declined) — in which case all
        skip accounting has already happened.

        Pair with :meth:`complete_burst` once the burst is measured.
        The check sequence here (no listener -> silent skip, busy ->
        count, decline -> count, else occupy) is the arbitration
        contract.  ``Deployment._deliver_tick_batch`` applies it to a
        whole coalesced station group at once: it hoists the busy check
        (constant over the group's shared timestamp), asks the listener
        only about the cells in its ``candidate_cells`` answer, and
        settles the decline and busy counts from the position where
        the mobile's tick stopped.  The counters, the non-``None``
        ``choose_rx_beam`` calls and the occupied radio must stay
        exactly what calling this method once per station would give.
        """
        if self._listener is None:
            return None
        if self.radio_busy(now_s):
            self.bursts_skipped_busy += 1
            return None
        rx_beam = self._listener.choose_rx_beam(station.cell_id, now_s)
        if rx_beam is None:
            self.bursts_declined += 1
            return None
        self.occupy_radio(now_s, station.schedule.burst_duration_s())
        return rx_beam

    def complete_burst(self, measurement: RssMeasurement) -> RssMeasurement:
        """Account for a measured burst and feed it to the listener."""
        self.bursts_measured += 1
        self._listener.on_measurement(measurement)
        return measurement

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Mobile({self.mobile_id}, {len(self.codebook)} beams)"
