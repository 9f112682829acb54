"""Protocol-facing measurement filters.

The Fig. 2b transition guards compare *smoothed* RSS against reference
levels: "switch when RSS drops by 3 dB" means 3 dB below the level the
current beam delivered when it was selected, not 3 dB below the previous
raw sample (which would trigger on every deep fade).  These helpers give
that semantics a single, tested home.
"""

from __future__ import annotations

from typing import Optional

from repro.util.numerics import Ewma


class DropDetector:
    """Detects a drop of ``threshold_db`` below a reference RSS level.

    The reference is (re)set when a beam is selected; subsequent samples
    are EWMA-smoothed and compared against ``reference - threshold``.
    The detector also tracks *rises*: if the smoothed level climbs above
    the reference, the reference follows it up (a beam performing better
    than at selection time should not be considered degraded after
    falling back to its selection level).
    """

    def __init__(self, threshold_db: float, alpha: float = 0.5) -> None:
        if threshold_db <= 0.0:
            raise ValueError(f"threshold must be positive, got {threshold_db!r}")
        self.threshold_db = threshold_db
        self._filter = Ewma(alpha)
        self._reference_dbm: Optional[float] = None

    @property
    def reference_dbm(self) -> Optional[float]:
        """Current reference level, or ``None`` before :meth:`rearm`."""
        return self._reference_dbm

    @property
    def smoothed_dbm(self) -> Optional[float]:
        """Current smoothed RSS, or ``None`` before any sample."""
        return self._filter.value

    def rearm(self, reference_dbm: float) -> None:
        """Set the reference level (called at beam selection)."""
        self._reference_dbm = reference_dbm
        self._filter.reset()
        self._filter.update(reference_dbm)

    def update(self, rss_dbm: float) -> bool:
        """Feed a sample; returns True when the drop threshold is crossed.

        Raises if the detector has never been armed — comparing against
        a nonexistent reference is a protocol bug, not a soft condition.
        """
        if self._reference_dbm is None:
            raise RuntimeError("DropDetector.update before rearm()")
        smoothed = self._filter.update(rss_dbm)
        if smoothed > self._reference_dbm:
            self._reference_dbm = smoothed
        return smoothed < self._reference_dbm - self.threshold_db

    def drop_db(self) -> float:
        """Current drop below the reference (negative when above)."""
        if self._reference_dbm is None or self._filter.value is None:
            raise RuntimeError("DropDetector.drop_db before rearm()")
        return self._reference_dbm - self._filter.value


class HysteresisTrigger:
    """Two-threshold comparator: asserts above ``enter``, clears below ``exit``.

    Used for the handover trigger (edge E): ``RSS_N > RSS_S + T`` must
    hold with hysteresis so the mobile does not oscillate between cells
    when the two RSS levels are comparable at the cell boundary.
    """

    def __init__(self, enter_db: float, exit_db: float) -> None:
        if exit_db > enter_db:
            raise ValueError(
                f"exit threshold {exit_db!r} must not exceed enter {enter_db!r}"
            )
        self.enter_db = enter_db
        self.exit_db = exit_db
        self._asserted = False

    def update(self, margin_db: float) -> bool:
        """Feed the current margin; returns the (possibly new) state."""
        if self._asserted:
            if margin_db < self.exit_db:
                self._asserted = False
        else:
            if margin_db > self.enter_db:
                self._asserted = True
        return self._asserted

    def reset(self) -> None:
        self._asserted = False
