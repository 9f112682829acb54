"""Human-body blockage as a per-link renewal process.

At 60 GHz a human body crossing the LoS attenuates the link by 15-30 dB
for a few hundred milliseconds — the dominant cause of the sudden >10 dB
drops that drive Silent Tracker's beam-loss edge (D in Fig. 2b).

Model: alternating clear/blocked intervals.  Clear-interval lengths are
exponential (Poisson blocker arrivals); blocked-interval lengths are
log-normal (measured pedestrian crossing-time fits); attenuation depth
per event is normal around a configurable mean.  Events are materialized
lazily as the query time advances, so unmeasured epochs cost nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np


@dataclass(frozen=True)
class BlockageEvent:
    """One blockage interval on a link."""

    start_s: float
    end_s: float
    attenuation_db: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class BlockageConfig:
    """Parameters of the blockage process.

    Attributes
    ----------
    rate_per_s:
        Mean blocker arrival rate (events per second of clear time).
        0 disables blockage.
    mean_duration_s:
        Mean blocked duration.  Pedestrian crossings: 0.2-0.6 s.
    duration_sigma:
        Log-domain sigma of the log-normal duration.
    mean_attenuation_db / attenuation_sigma_db:
        Depth of the blockage shadow.
    """

    rate_per_s: float = 0.2
    mean_duration_s: float = 0.35
    duration_sigma: float = 0.4
    mean_attenuation_db: float = 20.0
    attenuation_sigma_db: float = 4.0

    def __post_init__(self) -> None:
        if self.rate_per_s < 0.0:
            raise ValueError(f"rate must be non-negative, got {self.rate_per_s!r}")
        if self.mean_duration_s <= 0.0:
            raise ValueError(
                f"mean duration must be positive, got {self.mean_duration_s!r}"
            )
        if self.mean_attenuation_db < 0.0:
            raise ValueError(
                f"attenuation must be non-negative, got {self.mean_attenuation_db!r}"
            )


class BlockageProcess:
    """Lazy per-link blockage timeline.

    Queries must use non-decreasing times (the simulator only moves
    forward); this allows events before the horizon to be finalized and
    old events to be pruned.
    """

    def __init__(self, config: BlockageConfig, rng: np.random.Generator) -> None:
        self.config = config
        self._rng = rng
        self._events: List[BlockageEvent] = []
        self._horizon_s = 0.0
        self._last_query_s = -math.inf
        # Mean of ln(duration) such that E[duration] = mean_duration_s for
        # a log-normal with the configured sigma.
        self._log_duration_mu = (
            math.log(config.mean_duration_s) - 0.5 * config.duration_sigma**2
        )

    def _extend_to(self, time_s: float) -> None:
        """Materialize events up to ``time_s``."""
        if self.config.rate_per_s <= 0.0:
            self._horizon_s = time_s
            return
        while self._horizon_s <= time_s:
            clear_gap = float(self._rng.exponential(1.0 / self.config.rate_per_s))
            start = self._horizon_s + clear_gap
            duration = float(
                self._rng.lognormal(self._log_duration_mu, self.config.duration_sigma)
            )
            attenuation = max(
                0.0,
                float(
                    self._rng.normal(
                        self.config.mean_attenuation_db,
                        self.config.attenuation_sigma_db,
                    )
                ),
            )
            self._events.append(BlockageEvent(start, start + duration, attenuation))
            self._horizon_s = start + duration

    def attenuation_db(self, time_s: float) -> float:
        """Total blockage attenuation on the link at ``time_s``.

        Overlap cannot occur (the renewal construction serializes
        events), so at most one event contributes.
        """
        if time_s < self._last_query_s - 1e-9:
            raise ValueError(
                f"blockage queries must be time-ordered "
                f"({time_s!r} < {self._last_query_s!r})"
            )
        if time_s > self._last_query_s:
            self._last_query_s = time_s
        if self._horizon_s <= time_s:
            self._extend_to(time_s)
        # Prune events that ended long before the query point.
        events = self._events
        while len(events) > 8 and events[0].end_s < time_s - 10.0:
            events.pop(0)
        for event in events:
            if event.start_s <= time_s < event.end_s:
                return event.attenuation_db
        return 0.0
