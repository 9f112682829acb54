"""Measurement report records."""

from __future__ import annotations

from typing import NamedTuple, Optional


class RssMeasurement(NamedTuple):
    """One RSS dwell result.

    Tuple-backed (a ``NamedTuple``): a dense tick builds one per
    admitted link, so a record costs one tuple allocation.  Fields are
    read-only and equal records hash equal, so one empty record may be
    shared by every pruned link of a tick that holds the same beam.

    Attributes
    ----------
    time_s:
        When the dwell occurred.
    cell_id:
        Which cell's synchronization signal was measured.
    tx_beam:
        The transmitting beam index observed (the best SSB within the
        burst), or ``None`` when nothing was detected.
    rx_beam:
        The receive beam the mobile held for the burst.
    rss_dbm:
        Received signal strength of the best detected SSB; ``None`` when
        below the detection threshold (the dwell saw noise only).
    snr_db:
        SNR corresponding to ``rss_dbm``.
    """

    time_s: float
    cell_id: str
    rx_beam: int
    tx_beam: Optional[int] = None
    rss_dbm: Optional[float] = None
    snr_db: Optional[float] = None

    @property
    def detected(self) -> bool:
        """Whether the dwell detected any SSB at all."""
        return self.rss_dbm is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.detected:
            return (
                f"RssMeasurement({self.time_s:.3f}s {self.cell_id} "
                f"rx#{self.rx_beam}: no detection)"
            )
        return (
            f"RssMeasurement({self.time_s:.3f}s {self.cell_id} "
            f"rx#{self.rx_beam} tx#{self.tx_beam}: {self.rss_dbm:.1f} dBm)"
        )
