"""5G-NR-like discrete timing grid: SSB bursts and RACH occasions.

mm-wave initial access is paced by the synchronization-signal-block
(SSB) schedule: every ``ssb_period`` (20 ms default) the base station
transmits a burst in which it sweeps its transmit codebook, one SSB
dwell per beam.  A mobile holds **one receive beam per burst** (the
standard NR UE assumption) and must span its receive codebook across
bursts — this is why directional search is slow (up to 64 bursts *
20 ms = 1.28 s quoted in the paper's introduction) and why search under
mobility is failure-prone: the geometry changes while the scan walks
the codebook.

Random access occasions (RACH) recur on their own period; msg2 (random
access response) and msg4 (contention resolution) have windows and
processing delays that set the floor of handover completion time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class FrameConfig:
    """SSB sweep timing.

    Attributes
    ----------
    ssb_period_s:
        Burst repetition period (NR default 20 ms).
    ssb_dwell_s:
        Duration of one SSB dwell within the burst (one beam).
    max_ssb_per_burst:
        Cap on beams swept per burst (64 at FR2).
    """

    ssb_period_s: float = 0.020
    ssb_dwell_s: float = 125e-6
    max_ssb_per_burst: int = 64

    def __post_init__(self) -> None:
        if self.ssb_period_s <= 0.0:
            raise ValueError(f"ssb period must be positive, got {self.ssb_period_s!r}")
        if self.ssb_dwell_s <= 0.0:
            raise ValueError(f"ssb dwell must be positive, got {self.ssb_dwell_s!r}")
        if self.max_ssb_per_burst < 1:
            raise ValueError(
                f"max ssb per burst must be >= 1, got {self.max_ssb_per_burst!r}"
            )

    def burst_duration_s(self, n_beams: int) -> float:
        """Time span of one burst sweeping ``n_beams`` beams."""
        return self.ssb_dwell_s * min(n_beams, self.max_ssb_per_burst)


@dataclass(frozen=True)
class RachConfig:
    """Random-access timing.

    The four-step RACH: preamble (msg1) on a RACH occasion, random
    access response (msg2) within a response window, scheduled uplink
    msg3, contention resolution (msg4).
    """

    occasion_period_s: float = 0.020
    #: Offset of the RACH occasion within its period (keeps RACH dwells
    #: from colliding with the SSB burst at the period start).
    occasion_offset_s: float = 0.010
    response_window_s: float = 0.010
    #: Base-station processing delay before msg2 is sent.
    response_delay_s: float = 0.003
    msg3_delay_s: float = 0.002
    msg4_delay_s: float = 0.003
    max_attempts: int = 8
    #: Backoff applied between failed attempts, in occasions.
    backoff_occasions: int = 1

    def __post_init__(self) -> None:
        if self.occasion_period_s <= 0.0:
            raise ValueError(
                f"occasion period must be positive, got {self.occasion_period_s!r}"
            )
        if not 0.0 <= self.occasion_offset_s < self.occasion_period_s:
            raise ValueError(
                "occasion offset must lie within the period, got "
                f"{self.occasion_offset_s!r}"
            )
        if self.response_delay_s > self.response_window_s:
            raise ValueError("response delay cannot exceed the response window")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts!r}")

    def next_occasion(self, now_s: float) -> float:
        """First RACH occasion at or after ``now_s``."""
        k = math.ceil((now_s - self.occasion_offset_s) / self.occasion_period_s - 1e-12)
        return max(0, k) * self.occasion_period_s + self.occasion_offset_s


class SsbSchedule:
    """Concrete SSB timing for one base station sweeping ``n_beams``."""

    def __init__(self, config: FrameConfig, n_beams: int, phase_s: float = 0.0) -> None:
        if n_beams < 1:
            raise ValueError(f"need >= 1 beam, got {n_beams!r}")
        if n_beams > config.max_ssb_per_burst:
            raise ValueError(
                f"{n_beams} beams exceeds max {config.max_ssb_per_burst} per burst"
            )
        if not 0.0 <= phase_s < config.ssb_period_s:
            raise ValueError(
                f"phase must be within one period, got {phase_s!r}"
            )
        self.config = config
        self.n_beams = n_beams
        #: Relative start offset of this cell's bursts; neighboring cells
        #: are not burst-synchronized in general, which is part of why
        #: the mobile cannot predict the neighbor's schedule.
        self.phase_s = phase_s

    def burst_start(self, burst_index: int) -> float:
        """Start time of burst ``burst_index`` (0-based)."""
        if burst_index < 0:
            raise ValueError(f"burst index must be >= 0, got {burst_index!r}")
        return self.phase_s + burst_index * self.config.ssb_period_s

    def next_burst_start(self, now_s: float) -> float:
        """Start time of the first burst at or after ``now_s``."""
        index = math.ceil((now_s - self.phase_s) / self.config.ssb_period_s - 1e-12)
        return self.burst_start(max(0, index))

    def beams_in_burst(self) -> List[int]:
        """Transmit-beam sweep order within every burst."""
        return list(range(self.n_beams))

    def burst_duration_s(self) -> float:
        """Span of one full burst."""
        return self.config.burst_duration_s(self.n_beams)
