"""Base-station node.

A base station:

* occupies a fixed pose with a sector transmit codebook;
* sweeps its codebook every SSB period (the burst events are delivered
  to mobiles by the :class:`~repro.net.deployment.Deployment` wiring);
* maintains one serving transmit beam per connected mobile and performs
  *cell-assisted beam management* (the CABM state of Fig. 2b): on a
  mobile's request it refines its transmit beam by one adjacent hop —
  the outcome of the NR P-2 style refinement sweep the request triggers;
* detects RACH preambles and answers them (delegated to
  :class:`~repro.net.random_access.RandomAccessProcedure`).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.geometry.angles import angular_distance
from repro.geometry.pose import Pose
from repro.phy.codebook import Codebook
from repro.phy.frame import FrameConfig, SsbSchedule
from repro.phy.link import LinkBudget


class BaseStation:
    """A fixed mm-wave cell site.

    Parameters
    ----------
    cell_id:
        Unique identifier (e.g. ``"cellA"``).
    pose:
        Site location and sector boresight heading.
    codebook:
        Transmit codebook (body frame).
    tx_power_dbm:
        Per-beam transmit power.
    frame:
        SSB timing configuration.
    ssb_phase_s:
        This cell's burst phase within the SSB period.  Neighboring
        cells are not burst-aligned; staggering also lets a one-RF-chain
        mobile measure several cells in one period.
    """

    def __init__(
        self,
        cell_id: str,
        pose: Pose,
        codebook: Codebook,
        tx_power_dbm: float = 10.0,
        frame: Optional[FrameConfig] = None,
        ssb_phase_s: float = 0.0,
        link_budget: Optional[LinkBudget] = None,
    ) -> None:
        if not cell_id:
            raise ValueError("cell_id must be non-empty")
        self.cell_id = cell_id
        self.pose = pose
        self.codebook = codebook
        self.tx_power_dbm = tx_power_dbm
        self.frame = frame or FrameConfig()
        self.schedule = SsbSchedule(self.frame, len(codebook), ssb_phase_s)
        #: Transmit-beam sweep order of every burst.
        self.burst_beams: Tuple[int, ...] = tuple(self.schedule.beams_in_burst())
        #: The ``beam_indices`` the burst paths pass to the batch gain
        #: calls: ``None`` when the sweep is the whole codebook in index
        #: order, as a schedule built here always is.
        self.burst_gain_indices: Optional[Tuple[int, ...]] = (
            None
            if self.burst_beams == tuple(range(len(codebook)))
            else self.burst_beams
        )
        self.link_budget = link_budget or LinkBudget()
        #: Serving transmit beam per connected mobile id.
        self._serving_tx_beam: Dict[str, int] = {}

    # ------------------------------------------------------------ geometry
    def tx_gain_dbi(self, beam_index: int, target_world_azimuth: float) -> float:
        """Gain of ``beam_index`` toward a world-frame azimuth."""
        body_azimuth = self.pose.world_to_body(target_world_azimuth)
        return self.codebook.gain_dbi(beam_index, body_azimuth)

    def tx_gains_dbi(
        self, target_world_azimuth: float, beam_indices=None
    ):
        """Gains of every codebook beam (or of ``beam_indices``) toward
        one world-frame azimuth, as a float64 array.

        The batch counterpart of :meth:`tx_gain_dbi`: the frame
        conversion happens once and the codebook evaluates all beams in
        one array op.  Element ``k`` is bit-identical to
        ``tx_gain_dbi(k, ...)`` — the vectorized burst path relies on
        this.  The burst path passes :attr:`burst_gain_indices`, which
        is ``None`` whenever the burst sweeps the whole codebook in
        index order, so the call skips index validation and gathering.
        """
        body_azimuth = self.pose.world_to_body(target_world_azimuth)
        return self.codebook.gains_dbi(body_azimuth, beam_indices)

    def tx_gains_grid_dbi(self, target_world_azimuths, beam_indices=None):
        """Per-beam gains toward many world-frame azimuths: a ``(U, B)``
        float64 grid, one row per target azimuth.

        The cross-user counterpart of :meth:`tx_gains_dbi`: the frame
        conversion stays scalar per target (bit-identical to the
        single-link path) while the codebook evaluates the whole
        users x beams grid in one array op per pattern.  Row ``u`` is
        bit-identical to ``tx_gains_dbi(target_world_azimuths[u], ...)``;
        ``beam_indices`` follows the same ``None`` rule.
        """
        body_azimuths = [
            self.pose.world_to_body(azimuth) for azimuth in target_world_azimuths
        ]
        return self.codebook.gains_grid_dbi(body_azimuths, beam_indices)

    def best_tx_beam_towards(self, target_world_azimuth: float) -> int:
        """Codebook beam whose boresight is closest to the target azimuth."""
        body_azimuth = self.pose.world_to_body(target_world_azimuth)
        return self.codebook.best_beam_towards(body_azimuth).index

    # ----------------------------------------------------------- connections
    def attach(self, mobile_id: str, tx_beam: int) -> None:
        """Register a connected mobile on a serving transmit beam."""
        self.codebook._check_index(tx_beam)
        self._serving_tx_beam[mobile_id] = tx_beam

    def detach(self, mobile_id: str) -> None:
        """Remove a mobile's serving context (no-op when absent)."""
        self._serving_tx_beam.pop(mobile_id, None)

    def is_attached(self, mobile_id: str) -> bool:
        return mobile_id in self._serving_tx_beam

    def serving_tx_beam(self, mobile_id: str) -> int:
        """Current serving transmit beam for ``mobile_id``."""
        try:
            return self._serving_tx_beam[mobile_id]
        except KeyError:
            raise KeyError(
                f"mobile {mobile_id!r} is not attached to {self.cell_id}"
            ) from None

    def refine_tx_beam(self, mobile_id: str, mobile_world_azimuth: float) -> int:
        """Cell-assisted transmit-beam refinement (one adjacent hop).

        Models the P-2 refinement sweep triggered by a BeamSurfer
        request: among the current beam and its two directional
        neighbors, select the one best pointed at the mobile's actual
        bearing (``mobile_world_azimuth``, the station-side bearing of
        the link), and make it the serving beam.  The move is limited
        to one hop per request — a sweep only covers the adjacent
        beams.  Ties go to the first of current, left, right.

        Returns the (possibly unchanged) serving beam index.
        """
        current = self.serving_tx_beam(mobile_id)
        body_azimuth = self.pose.world_to_body(mobile_world_azimuth)
        codebook = self.codebook
        best = current
        best_distance = angular_distance(codebook[current].boresight_rad, body_azimuth)
        for index in codebook.adjacent_indices(current):
            distance = angular_distance(codebook[index].boresight_rad, body_azimuth)
            if distance < best_distance:
                best = index
                best_distance = distance
        self._serving_tx_beam[mobile_id] = best
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BaseStation({self.cell_id} @ ({self.pose.position.x:.1f}, "
            f"{self.pose.position.y:.1f}), {len(self.codebook)} beams)"
        )
