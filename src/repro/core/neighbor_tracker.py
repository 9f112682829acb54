"""Neighbor-side sub-machine: acquisition (N-A/R) and tracking (N-RBA).

The tracker owns everything Fig. 2b says about the neighbor cell:

* **N-A/R** — walk the receive codebook, one beam per neighbor SSB
  burst, until a dwell detects a cell beam (edge C).  Re-acquisition
  after a loss searches in a *spiral* around the last known beam, since
  under continuous motion the beam rarely jumps far.
* **N-RBA** — hold the found beam; when its smoothed RSS drops 3 dB
  below the selection level (edge H), probe the two directionally
  adjacent beams and commit to the best.  A 10 dB drop or a run of
  missed dwells declares the beam lost (edge D) and returns to N-A/R.

The tracker is *silent*: nothing here transmits; every decision uses
only in-band RSS at the mobile.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.events import Fig2bEdge, NeighborState
from repro.measure.filters import DropDetector
from repro.measure.report import RssMeasurement
from repro.phy.codebook import Codebook


def spiral_order(center: int, n_beams: int) -> List[int]:
    """Beam visiting order expanding outward from ``center``.

    ``[c, c+1, c-1, c+2, c-2, ...]`` modulo the ring size, without
    duplicates — the re-acquisition order after a tracked beam is lost.
    """
    if n_beams < 1:
        raise ValueError(f"need >= 1 beam, got {n_beams!r}")
    if not 0 <= center < n_beams:
        raise IndexError(f"center {center} out of range for {n_beams} beams")
    order = [center]
    for step in range(1, n_beams // 2 + 1):
        order.append((center + step) % n_beams)
        order.append((center - step) % n_beams)
    # Deduplicate while preserving order (even ring sizes visit the
    # antipode twice).
    seen = set()
    unique: List[int] = []
    for beam in order:
        if beam not in seen:
            seen.add(beam)
            unique.append(beam)
    return unique


class NeighborTracker:
    """Acquire and silently track one neighbor cell's beam.

    Parameters
    ----------
    codebook:
        The mobile's receive codebook.
    neighbor_cells:
        Cell ids this tracker may search (every non-serving cell).
    adapt_threshold_db / loss_threshold_db / loss_miss_limit / ewma_alpha:
        See :class:`~repro.core.config.SilentTrackerConfig`.
    on_transition:
        ``f(old_state, new_state, edge: Fig2bEdge, now_s)`` trace hook.
    """

    def __init__(
        self,
        codebook: Codebook,
        neighbor_cells: List[str],
        adapt_threshold_db: float = 3.0,
        loss_threshold_db: float = 10.0,
        loss_miss_limit: int = 3,
        ewma_alpha: float = 0.6,
        on_transition: Optional[Callable] = None,
    ) -> None:
        if not neighbor_cells:
            raise ValueError("tracker needs at least one neighbor cell")
        self.codebook = codebook
        self.adapt_threshold_db = adapt_threshold_db
        self.loss_threshold_db = loss_threshold_db
        self.loss_miss_limit = loss_miss_limit
        self.ewma_alpha = ewma_alpha
        self._on_transition = on_transition
        self._state = NeighborState.IDLE
        self._cells = list(neighbor_cells)
        # Search bookkeeping: one beam order per search, and a cursor
        # into it for every cell the search sweeps (empty: nothing to
        # sweep).
        self._sweep_order: List[int] = []
        self._sweep_cursor: Dict[str, int] = {}
        # Tracking bookkeeping.
        self._focused_cell: Optional[str] = None
        self._beam: Optional[int] = None
        self._tx_beam: Optional[int] = None
        self._detector = DropDetector(adapt_threshold_db, ewma_alpha)
        self._miss_streak = 0
        # H-probe bookkeeping.
        self._probe_candidates: List[int] = []
        self._probe_results: Dict[int, float] = {}
        self._probe_current: Optional[int] = None
        # Statistics (read by the Fig. 2a experiment).
        self.search_dwells = 0
        self.search_dwells_at_found = None  # type: Optional[int]
        self.acquisitions = 0
        self.reacquisitions = 0
        self.adjacent_switches = 0
        self.losses = 0

    # -------------------------------------------------------------- accessors
    @property
    def state(self) -> NeighborState:
        return self._state

    @property
    def focused_cell(self) -> Optional[str]:
        """The cell being tracked (None unless TRACKING)."""
        return self._focused_cell

    @property
    def current_beam(self) -> Optional[int]:
        """Committed receive beam toward the tracked cell, or None."""
        return self._beam if self._state is NeighborState.TRACKING else None

    @property
    def last_tx_beam(self) -> Optional[int]:
        """Last detected transmit beam of the tracked cell."""
        return self._tx_beam if self._state is NeighborState.TRACKING else None

    @property
    def smoothed_rss_dbm(self) -> Optional[float]:
        """Smoothed tracked-beam RSS (None unless TRACKING)."""
        if self._state is not NeighborState.TRACKING:
            return None
        return self._detector.smoothed_dbm

    def _transition(
        self, new_state: NeighborState, edge: Fig2bEdge, now_s: float
    ) -> None:
        if new_state is self._state:
            return
        old = self._state
        self._state = new_state
        if self._on_transition is not None:
            self._on_transition(old, new_state, edge, now_s)

    # --------------------------------------------------------------- control
    def begin_search(self, now_s: float) -> None:
        """Enter N-A/R (edge B from EO, or D-triggered re-acquisition).

        Each cell is swept linearly from beam 0.  (Re-acquisition after
        a loss sweeps in a spiral instead; see :meth:`declare_lost`.)
        """
        if self._state is NeighborState.TRACKING:
            raise RuntimeError("begin_search while tracking; call declare_lost first")
        self._start_sweep(self.codebook.sweep_order())
        was_idle = self._state is NeighborState.IDLE
        self._transition(
            NeighborState.SEARCHING, Fig2bEdge.B if was_idle else Fig2bEdge.D, now_s
        )

    def go_idle(self, now_s: float) -> None:
        """Stop all neighbor activity (left the cell edge / after handover)."""
        self._focused_cell = None
        self._beam = None
        self._tx_beam = None
        self._probe_current = None
        self._probe_candidates = []
        self._probe_results = {}
        self._miss_streak = 0
        # Direct state write: going idle is administrative, not a
        # Fig. 2b edge.
        self._state = NeighborState.IDLE

    def retarget(self, neighbor_cells: List[str]) -> None:
        """Replace the searchable cell set (after a serving-cell switch)."""
        if not neighbor_cells:
            raise ValueError("tracker needs at least one neighbor cell")
        self._cells = list(neighbor_cells)
        self._sweep_order = []
        self._sweep_cursor = {}

    def _start_sweep(self, order: List[int]) -> None:
        """Sweep every searchable cell along ``order``, from its start.

        The cells share the one order; only their cursors are per cell.
        """
        self._sweep_order = order
        self._sweep_cursor = dict.fromkeys(self._cells, 0)

    # ------------------------------------------------------------ burst beam
    def beam_for_burst(self, cell_id: str) -> Optional[int]:
        """Receive beam to hold for ``cell_id``'s burst, or None to skip."""
        if self._state is NeighborState.SEARCHING:
            cursor = self._sweep_cursor.get(cell_id)
            if cursor is None:
                return None
            order = self._sweep_order
            return order[cursor % len(order)]
        if self._state is NeighborState.TRACKING and cell_id == self._focused_cell:
            if self._probe_current is not None:
                return self._probe_current
            return self._beam
        return None

    def candidate_cells(self) -> Optional[Tuple[str, ...]]:
        """Cells :meth:`beam_for_burst` may return a beam for; ``None``
        means any.

        A search with a sweep set answers ``None``: that set is every
        cell, or every cell but the serving one, so listing it would
        cost more than the calls it saves.  A search whose sweep set is
        empty takes nothing.
        """
        if self._state is NeighborState.SEARCHING:
            return None if self._sweep_cursor else ()
        if self._state is NeighborState.TRACKING:
            return (self._focused_cell,)
        return ()

    # ---------------------------------------------------------- measurements
    def on_measurement(self, measurement: RssMeasurement, now_s: float) -> None:
        """Feed the result of a neighbor-cell dwell."""
        if self._state is NeighborState.SEARCHING:
            self._on_search_measurement(measurement, now_s)
        elif (
            self._state is NeighborState.TRACKING
            and measurement.cell_id == self._focused_cell
        ):
            if self._probe_current is not None:
                self._on_probe_measurement(measurement, now_s)
            else:
                self._on_tracking_measurement(measurement, now_s)

    def _on_search_measurement(self, measurement: RssMeasurement, now_s: float) -> None:
        self.search_dwells += 1
        if measurement.detected:
            self._focus(measurement, now_s)
            return
        cursor = self._sweep_cursor.get(measurement.cell_id)
        if cursor is not None:
            self._sweep_cursor[measurement.cell_id] = cursor + 1

    def _focus(self, measurement: RssMeasurement, now_s: float) -> None:
        """Edge C: a neighbor cell beam was found."""
        self._focused_cell = measurement.cell_id
        self._beam = measurement.rx_beam
        self._tx_beam = measurement.tx_beam
        self._detector = DropDetector(self.adapt_threshold_db, self.ewma_alpha)
        self._detector.rearm(measurement.rss_dbm)
        self._miss_streak = 0
        if self.acquisitions == 0:
            self.search_dwells_at_found = self.search_dwells
        self.acquisitions += 1
        self._transition(NeighborState.TRACKING, Fig2bEdge.C, now_s)

    def _on_tracking_measurement(
        self, measurement: RssMeasurement, now_s: float
    ) -> None:
        if not measurement.detected:
            self._miss_streak += 1
            if self._miss_streak >= self.loss_miss_limit:
                self.declare_lost(now_s)
            return
        self._miss_streak = 0
        self._tx_beam = measurement.tx_beam
        self._detector.update(measurement.rss_dbm)
        drop = self._detector.drop_db()
        if drop > self.loss_threshold_db:
            # Edge D: the beam collapsed outright.
            self.declare_lost(now_s)
            return
        if drop > self.adapt_threshold_db:
            # Edge H: adapt to a directionally adjacent beam.
            self._begin_probe()

    def declare_lost(self, now_s: float) -> None:
        """Edge D: tracked beam lost; re-acquire around its last index."""
        if self._state is not NeighborState.TRACKING:
            return
        last_beam = self._beam
        self.losses += 1
        self.reacquisitions += 1
        self._focused_cell = None
        self._beam = None
        self._tx_beam = None
        self._probe_current = None
        self._probe_candidates = []
        self._probe_results = {}
        # Leave TRACKING before begin_search (which asserts otherwise).
        self._state = NeighborState.SEARCHING
        self._start_sweep(spiral_order(last_beam, len(self.codebook)))
        if self._on_transition is not None:
            self._on_transition(
                NeighborState.TRACKING, NeighborState.SEARCHING, Fig2bEdge.D, now_s
            )

    # -------------------------------------------------------------- H probes
    def _begin_probe(self) -> None:
        candidates = self.codebook.adjacent_indices(self._beam)
        if not candidates:
            # Omni codebook: no adjacent beam exists; nothing to adapt.
            return
        self._probe_candidates = candidates
        self._probe_results = {}
        self._probe_current = candidates[0]

    def _on_probe_measurement(self, measurement: RssMeasurement, now_s: float) -> None:
        candidate = self._probe_current
        if measurement.detected:
            self._probe_results[candidate] = measurement.rss_dbm
        index = self._probe_candidates.index(candidate) + 1
        if index < len(self._probe_candidates):
            self._probe_current = self._probe_candidates[index]
            return
        self._conclude_probe(now_s)

    def _conclude_probe(self, now_s: float) -> None:
        self._probe_current = None
        current_level = self._detector.smoothed_dbm
        best_beam = self._beam
        best_rss = current_level if current_level is not None else -1e9
        for beam, rss in self._probe_results.items():
            if rss > best_rss:
                best_rss = rss
                best_beam = beam
        if best_beam != self._beam:
            self._beam = best_beam
            self.adjacent_switches += 1
            self._detector.rearm(best_rss)
            if self._on_transition is not None:
                # Edge H is a self-loop on N-RBA; report it for the audit
                # trail even though the state does not change.
                self._on_transition(
                    NeighborState.TRACKING,
                    NeighborState.TRACKING,
                    Fig2bEdge.H,
                    now_s,
                )
        elif not self._probe_results:
            # Neither adjacent beam even detected the cell while the
            # committed beam is degraded: treat as one miss toward loss.
            self._miss_streak += 1
            if self._miss_streak >= self.loss_miss_limit:
                self.declare_lost(now_s)
