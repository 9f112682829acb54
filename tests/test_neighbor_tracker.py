"""Unit tests for the neighbor tracker (N-A/R, N-RBA, edges B/C/D/H)."""

import tracemalloc

import pytest

from repro.core.events import Fig2bEdge, NeighborState
from repro.core.neighbor_tracker import NeighborTracker, spiral_order
from repro.measure.report import RssMeasurement
from repro.phy.codebook import Codebook


def detection(time_s, rx_beam, rss, cell="cellB", tx_beam=1):
    return RssMeasurement(time_s, cell, rx_beam, tx_beam=tx_beam,
                          rss_dbm=rss, snr_db=rss + 70.0)


def miss(time_s, rx_beam, cell="cellB"):
    return RssMeasurement(time_s, cell, rx_beam)


def make_tracker(cells=("cellB",), transitions=None, **kwargs):
    hook = None
    if transitions is not None:
        hook = lambda old, new, edge, t: transitions.append(edge)
    kwargs.setdefault("ewma_alpha", 1.0)
    return NeighborTracker(Codebook.uniform_azimuth(20.0), list(cells),
                           on_transition=hook, **kwargs)


class TestSpiralOrder:
    def test_starts_at_center(self):
        assert spiral_order(5, 18)[0] == 5

    def test_expands_alternating(self):
        assert spiral_order(5, 18)[:5] == [5, 6, 4, 7, 3]

    def test_covers_all_unique(self):
        order = spiral_order(3, 18)
        assert sorted(order) == list(range(18))

    def test_even_ring_no_duplicates(self):
        order = spiral_order(0, 6)
        assert sorted(order) == list(range(6))

    def test_single_beam(self):
        assert spiral_order(0, 1) == [0]

    def test_validates(self):
        with pytest.raises(IndexError):
            spiral_order(5, 3)
        with pytest.raises(ValueError):
            spiral_order(0, 0)


class TestSearch:
    def test_idle_until_begun(self):
        tracker = make_tracker()
        assert tracker.state is NeighborState.IDLE
        assert tracker.beam_for_burst("cellB") is None

    def test_edge_b_starts_search(self):
        transitions = []
        tracker = make_tracker(transitions=transitions)
        tracker.begin_search(0.0)
        assert tracker.state is NeighborState.SEARCHING
        assert transitions == [Fig2bEdge.B]

    def test_sweep_advances_on_miss(self):
        tracker = make_tracker()
        tracker.begin_search(0.0)
        first = tracker.beam_for_burst("cellB")
        tracker.on_measurement(miss(0.02, first), 0.02)
        second = tracker.beam_for_burst("cellB")
        assert second != first
        assert tracker.search_dwells == 1

    def test_edge_c_on_detection(self):
        transitions = []
        tracker = make_tracker(transitions=transitions)
        tracker.begin_search(0.0)
        beam = tracker.beam_for_burst("cellB")
        tracker.on_measurement(detection(0.02, beam, -60.0), 0.02)
        assert tracker.state is NeighborState.TRACKING
        assert tracker.current_beam == beam
        assert tracker.focused_cell == "cellB"
        assert tracker.last_tx_beam == 1
        assert transitions[-1] is Fig2bEdge.C
        assert tracker.search_dwells_at_found == 1

    def test_search_only_configured_cells(self):
        tracker = make_tracker(cells=("cellB",))
        tracker.begin_search(0.0)
        assert tracker.beam_for_burst("cellC") is None

    def test_multi_cell_search(self):
        tracker = make_tracker(cells=("cellB", "cellC"))
        tracker.begin_search(0.0)
        assert tracker.beam_for_burst("cellB") is not None
        assert tracker.beam_for_burst("cellC") is not None

    def test_begin_search_while_tracking_rejected(self):
        tracker = make_tracker()
        tracker.begin_search(0.0)
        beam = tracker.beam_for_burst("cellB")
        tracker.on_measurement(detection(0.02, beam, -60.0), 0.02)
        with pytest.raises(RuntimeError):
            tracker.begin_search(0.1)


def make_tracking(transitions=None, **kwargs):
    """Tracker already locked onto beam 9 at -60 dBm."""
    tracker = make_tracker(transitions=transitions, **kwargs)
    tracker.begin_search(0.0)
    # Force the sweep to offer beam 9 by feeding misses until it shows.
    for k in range(30):
        beam = tracker.beam_for_burst("cellB")
        if beam == 9:
            tracker.on_measurement(detection(0.02 * k, 9, -60.0), 0.02 * k)
            break
        tracker.on_measurement(miss(0.02 * k, beam), 0.02 * k)
    assert tracker.state is NeighborState.TRACKING
    return tracker


class TestTracking:
    def test_steady_rss_keeps_beam(self):
        tracker = make_tracking()
        for k in range(10):
            tracker.on_measurement(detection(1.0 + 0.02 * k, 9, -60.5), 1.0)
        assert tracker.current_beam == 9
        assert tracker.adjacent_switches == 0

    def test_edge_h_adjacent_switch(self):
        transitions = []
        tracker = make_tracking(transitions=transitions)
        # Drop past 3 dB: probe begins.
        tracker.on_measurement(detection(1.00, 9, -64.0), 1.00)
        probe = tracker.beam_for_burst("cellB")
        assert probe in (8, 10)
        tracker.on_measurement(
            detection(1.02, probe, -59.0 if probe == 10 else -70.0), 1.02
        )
        probe2 = tracker.beam_for_burst("cellB")
        tracker.on_measurement(
            detection(1.04, probe2, -59.0 if probe2 == 10 else -70.0), 1.04
        )
        assert tracker.current_beam == 10
        assert tracker.adjacent_switches == 1
        assert Fig2bEdge.H in transitions
        assert tracker.state is NeighborState.TRACKING

    def test_edge_d_on_deep_drop(self):
        transitions = []
        tracker = make_tracking(transitions=transitions)
        tracker.on_measurement(detection(1.0, 9, -72.0), 1.0)  # 12 dB drop
        assert tracker.state is NeighborState.SEARCHING
        assert transitions[-1] is Fig2bEdge.D
        assert tracker.losses == 1
        assert tracker.current_beam is None

    def test_edge_d_on_miss_streak(self):
        tracker = make_tracking(loss_miss_limit=3)
        for k in range(3):
            tracker.on_measurement(miss(1.0 + 0.02 * k, 9), 1.0 + 0.02 * k)
        assert tracker.state is NeighborState.SEARCHING

    def test_reacquisition_spirals_around_last_beam(self):
        tracker = make_tracking()
        tracker.on_measurement(detection(1.0, 9, -72.0), 1.0)
        # First re-acquisition dwell is the lost beam itself, then
        # its ring neighbors.
        offered = [tracker.beam_for_burst("cellB")]
        tracker.on_measurement(miss(1.02, offered[0]), 1.02)
        offered.append(tracker.beam_for_burst("cellB"))
        assert offered == [9, 10]

    def test_probe_failure_counts_toward_loss(self):
        tracker = make_tracking(loss_miss_limit=2)
        tracker.on_measurement(detection(1.0, 9, -64.0), 1.0)  # probe starts
        # Both probes miss entirely, twice -> loss.
        for k in range(4):
            probe = tracker.beam_for_burst("cellB")
            tracker.on_measurement(miss(1.02 + 0.02 * k, probe), 1.02 + 0.02 * k)
            if tracker.state is NeighborState.SEARCHING:
                break
        assert tracker.state is NeighborState.SEARCHING

    def test_smoothed_rss_only_while_tracking(self):
        tracker = make_tracker()
        assert tracker.smoothed_rss_dbm is None
        tracker.begin_search(0.0)
        assert tracker.smoothed_rss_dbm is None


class TestControl:
    def test_go_idle(self):
        tracker = make_tracking()
        tracker.go_idle(2.0)
        assert tracker.state is NeighborState.IDLE
        assert tracker.current_beam is None

    def test_retarget(self):
        tracker = make_tracker(cells=("cellB",))
        tracker.retarget(["cellC"])
        tracker.begin_search(0.0)
        assert tracker.beam_for_burst("cellC") is not None
        assert tracker.beam_for_burst("cellB") is None

    def test_retarget_empty_rejected(self):
        with pytest.raises(ValueError):
            make_tracker().retarget([])

    def test_needs_neighbor_cells(self):
        with pytest.raises(ValueError):
            NeighborTracker(Codebook.uniform_azimuth(20.0), [])

    def test_omni_tracker_cannot_adapt(self):
        tracker = NeighborTracker(Codebook.omni(), ["cellB"], ewma_alpha=1.0)
        tracker.begin_search(0.0)
        tracker.on_measurement(detection(0.0, 0, -60.0), 0.0)
        assert tracker.state is NeighborState.TRACKING
        tracker.on_measurement(detection(0.02, 0, -64.0), 0.02)
        # No adjacent beams: stays on its only beam, no probe offered.
        assert tracker.beam_for_burst("cellB") == 0
        assert tracker.adjacent_switches == 0


class TestSweepState:
    """One beam order and one cursor map per search, whatever the
    number of cells it sweeps."""

    CELLS = [f"c{k}" for k in range(255)]

    def _tracker(self, cells):
        return NeighborTracker(Codebook.uniform_azimuth(360.0 / 64), cells,
                               ewma_alpha=1.0)

    def test_begin_search_footprint(self):
        tracker = self._tracker(self.CELLS)
        assert len(tracker.codebook) == 64
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            tracker.begin_search(0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A list of 64 beams per cell alone would be ~145 KiB.
        assert peak - before <= 16 * 1024
        assert all(tracker.beam_for_burst(cell) is not None for cell in self.CELLS)

    def test_cursors_advance_per_cell(self):
        tracker = make_tracker(cells=("cellB", "cellC"))
        tracker.begin_search(0.0)
        order = tracker.codebook.sweep_order()
        for k in range(3):
            beam = tracker.beam_for_burst("cellB")
            assert beam == order[k]
            tracker.on_measurement(miss(0.02 * k, beam, cell="cellB"), 0.02 * k)
        # cellC's sweep has not moved; cellB's resumes where it stopped.
        assert tracker.beam_for_burst("cellC") == order[0]
        tracker.on_measurement(miss(0.1, order[0], cell="cellC"), 0.1)
        assert tracker.beam_for_burst("cellC") == order[1]
        assert tracker.beam_for_burst("cellB") == order[3]
        # A dwell on a cell outside the sweep moves no cursor.
        tracker.on_measurement(miss(0.12, 0, cell="cellZ"), 0.12)
        assert tracker.beam_for_burst("cellB") == order[3]
        assert tracker.beam_for_burst("cellZ") is None

    def test_declare_lost_sweeps_in_spiral_order(self):
        tracker = make_tracking()
        tracker.retarget(["cellB", "cellC"])
        tracker.declare_lost(1.0)
        assert tracker.state is NeighborState.SEARCHING
        expected = spiral_order(9, len(tracker.codebook))
        for cell in ("cellC", "cellB"):
            offered = []
            for k in range(len(expected) + 2):
                beam = tracker.beam_for_burst(cell)
                offered.append(beam)
                tracker.on_measurement(miss(1.0 + 0.02 * k, beam, cell), 1.0)
            # The whole spiral, then it wraps around.
            assert offered == expected + expected[:2]

    def test_retarget_mid_search_leaves_nothing_to_sweep(self):
        tracker = make_tracker(cells=("cellB", "cellC"))
        tracker.begin_search(0.0)
        tracker.retarget(["cellC", "cellD"])
        assert tracker.state is NeighborState.SEARCHING
        assert tracker.candidate_cells() == ()
        for cell in ("cellB", "cellC", "cellD"):
            assert tracker.beam_for_burst(cell) is None
        # A new search sweeps the new cell set.
        tracker.go_idle(0.1)
        tracker.begin_search(0.2)
        assert tracker.candidate_cells() is None
        assert tracker.beam_for_burst("cellB") is None
        assert tracker.beam_for_burst("cellD") is not None
