"""Link budget: RSS to SNR, detection probability, packet success.

The protocol's observable is RSS; whether a dwell actually *detects* the
synchronization signal (and whether an uplink preamble/control message
gets through) depends on SNR against the receiver noise floor.  This
module converts between the two and supplies the success models the
random-access procedure and the serving-cell uplink use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.units import thermal_noise_dbm


@dataclass(frozen=True)
class LinkBudget:
    """Receiver-side link parameters.

    Defaults follow the NI 60 GHz SDR class of hardware: ~1.76 GHz
    channel (802.11ad channelization, also used by the testbed's OFDM
    PHY), ~8 dB noise figure.
    """

    bandwidth_hz: float = 1.76e9
    noise_figure_db: float = 8.0
    #: Minimum SNR at which the sync-signal correlator reliably detects
    #: an SSB dwell.  Below this the search dwell reports "nothing".
    detection_snr_db: float = 5.0
    #: SNR at which control/data packets decode with ~50% probability;
    #: the logistic success curve is centered here.
    decode_snr_db: float = 5.0
    #: Slope (dB per logistic unit) of the packet-success curve.  Small
    #: values make a sharp cliff, matching strong coding.
    decode_slope_db: float = 1.0

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0.0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth_hz!r}")
        if self.decode_slope_db <= 0.0:
            raise ValueError(f"slope must be positive, got {self.decode_slope_db!r}")
        # Cached non-field attribute (the dataclass is frozen): the
        # noise floor is consulted per dwell on the measurement hot
        # path, and the log10 behind it never changes.
        object.__setattr__(
            self,
            "_noise_floor_dbm",
            thermal_noise_dbm(self.bandwidth_hz, self.noise_figure_db),
        )

    @property
    def noise_floor_dbm(self) -> float:
        """Total integrated noise power at the detector input."""
        return self._noise_floor_dbm

    def snr_db(self, rss_dbm: float) -> float:
        """SNR of a received signal at ``rss_dbm``."""
        return rss_dbm - self.noise_floor_dbm

    def packet_success_probability(self, rss_dbm: float) -> float:
        """Probability a control packet at ``rss_dbm`` decodes.

        Logistic in SNR around :attr:`decode_snr_db`; saturates to 0/1
        beyond ~ +/-6 sigma to keep RNG consumption deterministic in the
        regimes that matter.
        """
        x = (self.snr_db(rss_dbm) - self.decode_snr_db) / self.decode_slope_db
        if x > 36.0:
            return 1.0
        if x < -36.0:
            return 0.0
        return 1.0 / (1.0 + math.exp(-x))


#: A reasonable default shared by base stations and mobiles.
DEFAULT_LINK_BUDGET = LinkBudget()
