"""Spatial cell index: prune provably-undetectable links in dense grids.

In a dense corridor every SSB burst is offered to every mobile, but at
mm-wave path-loss exponents a station a few hundred meters away cannot
put a single dwell above the detection threshold no matter how the
random channel terms land.  This module turns that link-budget fact
into a *provable* guard radius and a uniform spatial hash over station
positions, so burst delivery can skip the channel evaluation for
(station, mobile) pairs that are out of range for the whole run.

The pruning is conservative by construction:

* the transmit side is bounded by the loudest station's EIRP
  (``tx_power_dbm`` + its codebook's peak gain);
* the receive side by the largest peak gain of any mobile codebook;
* shadowing and small-scale fading are bounded at
  :data:`TAIL_SIGMA` = 12 standard normal deviations (a
  per-draw violation probability of ~4e-33, i.e. never over any
  simulable run);
* blockage only ever attenuates, so it is bounded by zero;
* the path-loss inverse (:meth:`PathLossModel.max_distance_for_loss`)
  is itself conservative, and models without an inverse disable
  pruning entirely (``guard_radius_m`` returns ``None``).

A pair excluded by the index therefore cannot produce an above-floor
measurement, and skipping its channel evaluation leaves every RNG
stream and artifact byte-identical (excluded links never materialize
per-link streams at all — stream creation is keyed by link id, not
creation order).
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.geometry.vectors import Vec3
from repro.phy.channel import Channel

#: Tail bound, in standard normal deviations, applied to the
#: shadowing and fading draws when deriving the guard radius.  The
#: two-sided exceedance probability of a single draw is ~3.6e-33; a
#: run of a billion dwells stays under 1e-23.
TAIL_SIGMA = 12.0


def fading_gain_bound_db(rician_k_db: Optional[float], tail_sigma: float) -> float:
    """Upper bound on the Rician envelope-power gain, in dB.

    Mirrors :class:`repro.phy.fading.RicianFading`'s parameterization:
    with both I/Q normals bounded at ``tail_sigma``, the envelope power
    cannot exceed ``(a + s*t)^2 + (s*t)^2``.  ``None`` (fading
    disabled) bounds at 0 dB exactly.
    """
    if rician_k_db is None:
        return 0.0
    k = 10.0 ** (rician_k_db / 10.0)
    los = math.sqrt(k / (k + 1.0))
    sigma = math.sqrt(1.0 / (2.0 * (k + 1.0)))
    in_phase = los + sigma * tail_sigma
    quadrature = sigma * tail_sigma
    power = in_phase * in_phase + quadrature * quadrature
    return 10.0 * math.log10(max(power, 1.0))


def guard_radius_m(
    channel: Channel,
    stations: Iterable,
    mobiles: Iterable,
) -> Optional[float]:
    """Distance beyond which no (station, mobile) dwell can detect.

    One global radius over the whole population: the loudest possible
    transmit side, the most sensitive receive side, and a
    :data:`TAIL_SIGMA`-bounded allowance for every random
    channel term.  Returns ``None`` when pruning cannot be proven safe:
    no stations or mobiles, or a path-loss model without a conservative
    inverse.

    The bound assumes detection is decided against each station's own
    ``link_budget.detection_snr_db``, as every burst path does.
    """
    stations = list(stations)
    mobiles = list(mobiles)
    if not stations or not mobiles:
        return None
    max_eirp_dbm = max(
        station.tx_power_dbm + station.codebook.max_gain_dbi
        for station in stations
    )
    max_rx_gain_dbi = max(mobile.codebook.max_gain_dbi for mobile in mobiles)
    min_required_dbm = min(
        station.link_budget.noise_floor_dbm + station.link_budget.detection_snr_db
        for station in stations
    )
    margin_db = (
        TAIL_SIGMA * channel.config.shadowing_sigma_db
        + fading_gain_bound_db(channel.config.rician_k_db, TAIL_SIGMA)
    )
    loss_needed_db = max_eirp_dbm + max_rx_gain_dbi + margin_db - min_required_dbm
    if loss_needed_db <= 0.0:
        # The budget cannot close even at zero loss; one radius of 0
        # would prune everything, which is exactly right.
        return 0.0
    return channel.pathloss.max_distance_for_loss(loss_needed_db)


class CellIndex:
    """Uniform spatial hash over base-station positions.

    Buckets stations into an xy grid of ``bucket_m``-sized squares;
    :meth:`within` gathers the buckets overlapping a query disc and
    filters by exact 3-D distance, so results are independent of the
    bucket size (which only affects query cost).
    """

    def __init__(self, stations: Iterable, bucket_m: float) -> None:
        if bucket_m <= 0.0:
            raise ValueError(f"bucket size must be positive, got {bucket_m!r}")
        self._bucket_m = bucket_m
        self._buckets: Dict[Tuple[int, int], List[Tuple[str, Vec3]]] = {}
        self._count = 0
        for station in stations:
            position = station.pose.position
            key = self._key(position)
            self._buckets.setdefault(key, []).append(
                (station.cell_id, position)
            )
            self._count += 1

    def __len__(self) -> int:
        return self._count

    def _key(self, position: Vec3) -> Tuple[int, int]:
        return (
            math.floor(position.x / self._bucket_m),
            math.floor(position.y / self._bucket_m),
        )

    def within(self, center: Vec3, radius_m: float) -> FrozenSet[str]:
        """Cell ids of stations within ``radius_m`` of ``center`` (3-D)."""
        if radius_m < 0.0:
            raise ValueError(f"radius must be non-negative, got {radius_m!r}")
        size = self._bucket_m
        x_lo = math.floor((center.x - radius_m) / size)
        x_hi = math.floor((center.x + radius_m) / size)
        y_lo = math.floor((center.y - radius_m) / size)
        y_hi = math.floor((center.y + radius_m) / size)
        buckets = self._buckets
        hits: List[str] = []
        for ix in range(x_lo, x_hi + 1):
            for iy in range(y_lo, y_hi + 1):
                members = buckets.get((ix, iy))
                if not members:
                    continue
                for cell_id, position in members:
                    if center.distance_to(position) <= radius_m:
                        hits.append(cell_id)
        return frozenset(hits)
