"""Unit tests for protocol measurement filters."""

import pytest

from repro.measure.filters import DropDetector, HysteresisTrigger


class TestDropDetector:
    def test_requires_rearm(self):
        detector = DropDetector(3.0)
        with pytest.raises(RuntimeError):
            detector.update(-60.0)
        with pytest.raises(RuntimeError):
            detector.drop_db()

    def test_no_drop_below_threshold(self):
        detector = DropDetector(3.0, alpha=1.0)
        detector.rearm(-60.0)
        assert not detector.update(-62.0)

    def test_drop_detected(self):
        detector = DropDetector(3.0, alpha=1.0)
        detector.rearm(-60.0)
        assert detector.update(-64.0)

    def test_exact_threshold_not_a_drop(self):
        detector = DropDetector(3.0, alpha=1.0)
        detector.rearm(-60.0)
        assert not detector.update(-63.0)

    def test_smoothing_delays_detection(self):
        detector = DropDetector(3.0, alpha=0.3)
        detector.rearm(-60.0)
        # A single outlier is absorbed by the filter.
        assert not detector.update(-70.0)
        # Persistent degradation eventually crosses.
        crossed = False
        for _ in range(10):
            crossed = detector.update(-70.0)
        assert crossed

    def test_reference_ratchets_up(self):
        detector = DropDetector(3.0, alpha=1.0)
        detector.rearm(-60.0)
        detector.update(-55.0)  # beam improved
        assert detector.reference_dbm == pytest.approx(-55.0)
        # Falling back to the original selection level is now a drop.
        assert detector.update(-59.0)

    def test_drop_db_value(self):
        detector = DropDetector(3.0, alpha=1.0)
        detector.rearm(-60.0)
        detector.update(-65.0)
        assert detector.drop_db() == pytest.approx(5.0)

    def test_rearm_resets_filter(self):
        detector = DropDetector(3.0, alpha=1.0)
        detector.rearm(-60.0)
        detector.update(-70.0)
        detector.rearm(-58.0)
        assert detector.reference_dbm == -58.0
        assert not detector.update(-59.0)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            DropDetector(0.0)


class TestHysteresisTrigger:
    def test_asserts_above_enter(self):
        trigger = HysteresisTrigger(3.0, 1.5)
        assert not trigger.update(2.9)
        assert trigger.update(3.1)

    def test_stays_asserted_between_thresholds(self):
        trigger = HysteresisTrigger(3.0, 1.5)
        trigger.update(4.0)
        assert trigger.update(2.0)  # between exit and enter: holds

    def test_clears_below_exit(self):
        trigger = HysteresisTrigger(3.0, 1.5)
        trigger.update(4.0)
        assert not trigger.update(1.0)

    def test_no_oscillation_at_enter_threshold(self):
        trigger = HysteresisTrigger(3.0, 1.5)
        states = [trigger.update(m) for m in (3.1, 2.9, 3.1, 2.9)]
        assert states == [True, True, True, True]

    def test_reset(self):
        trigger = HysteresisTrigger(3.0, 1.5)
        trigger.update(5.0)
        trigger.reset()
        # Between the thresholds a still-asserted trigger would hold.
        assert not trigger.update(2.0)

    def test_equal_thresholds_allowed(self):
        trigger = HysteresisTrigger(3.0, 3.0)
        assert trigger.update(3.1)
        assert not trigger.update(2.9)

    def test_rejects_inverted_thresholds(self):
        with pytest.raises(ValueError):
            HysteresisTrigger(1.0, 2.0)
