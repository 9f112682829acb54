"""Beam codebooks: indexed sets of steerable beams with adjacency.

Silent Tracker's receive-beam adaptation is defined entirely in terms of
codebook structure: "switch to one of the *directionally adjacent*
receive beams when RSS drops by 3 dB".  The codebook therefore exposes
adjacency explicitly, and the protocol layer never touches raw angles.

Beam boresights are in the owning node's **body frame** — a mobile
rotating at 120 °/s sweeps all of its beams' world-frame directions at
that rate, which is exactly the dynamic the rotation scenario stresses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.angles import wrap_to_pi, wrap_to_pi_array
from repro.phy.antenna import (
    AntennaPattern,
    GaussianBeamPattern,
    OmniPattern,
)


@dataclass(frozen=True)
class Beam:
    """One codebook entry.

    Attributes
    ----------
    index:
        Position in the codebook; stable identifier used by protocols.
    boresight_rad:
        Body-frame azimuth of the beam peak.
    pattern:
        The gain pattern steered to this boresight.
    """

    index: int
    boresight_rad: float
    pattern: AntennaPattern

    def gain_dbi(self, body_azimuth_rad: float) -> float:
        """Gain toward a body-frame azimuth."""
        return self.pattern.gain_dbi(body_azimuth_rad - self.boresight_rad)

    @property
    def beamwidth_rad(self) -> float:
        return self.pattern.beamwidth_rad

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Beam(#{self.index} @ {math.degrees(self.boresight_rad):.1f}deg, "
            f"bw={math.degrees(self.pattern.beamwidth_rad):.0f}deg)"
        )


class Codebook:
    """An ordered ring of beams covering the azimuth plane.

    Beams are stored sorted by boresight so that ``index +/- 1 (mod N)``
    is the *directionally adjacent* beam the protocol switches to.
    """

    def __init__(self, beams: Sequence[Beam], name: str = "codebook") -> None:
        if not beams:
            raise ValueError("codebook must contain at least one beam")
        expected = list(range(len(beams)))
        if [b.index for b in beams] != expected:
            raise ValueError("beam indices must be 0..N-1 in order")
        boresights = [b.boresight_rad for b in beams]
        if len(beams) > 1:
            wrapped = [wrap_to_pi(a) for a in boresights]
            # A ring is legal when it ascends with at most one wrap
            # point across the ±π seam (e.g. ..., 170°, -170°, ...):
            # rotate so the smallest wrapped boresight comes first, then
            # require ascending order.
            pivot = wrapped.index(min(wrapped))
            rotated = wrapped[pivot:] + wrapped[:pivot]
            if sorted(rotated) != rotated:
                raise ValueError(
                    "beams must be sorted by wrapped boresight "
                    "(a single ±pi wrap point is allowed)"
                )
        self._beams: Tuple[Beam, ...] = tuple(beams)
        self.name = name
        # Batch-path caches.  Beams are immutable, so these stay valid
        # for the codebook's lifetime; the boresight array is marked
        # read-only because it is handed out via :attr:`boresights_rad`.
        self._boresights = np.array(boresights, dtype=float)
        self._boresights.flags.writeable = False
        groups: dict = {}
        for position, beam in enumerate(self._beams):
            groups.setdefault(id(beam.pattern), (beam.pattern, []))[1].append(
                position
            )
        self._pattern_groups: List[Tuple[AntennaPattern, np.ndarray]] = [
            (pattern, np.array(positions, dtype=np.intp))
            for pattern, positions in groups.values()
        ]

    # ------------------------------------------------------------- container
    def __len__(self) -> int:
        return len(self._beams)

    def __iter__(self) -> Iterator[Beam]:
        return iter(self._beams)

    def __getitem__(self, index: int) -> Beam:
        return self._beams[index]

    @property
    def boresights_rad(self) -> np.ndarray:
        """Beam boresights as a read-only float64 array (index order)."""
        return self._boresights

    @property
    def max_gain_dbi(self) -> float:
        """Largest gain any beam can produce in any direction.

        The antenna-side term of the spatial cell index's guard-radius
        budget: no (beam, azimuth) evaluation of this codebook exceeds
        it.  Beams and patterns are immutable, so the peak over the
        distinct patterns is computed once.
        """
        return max(
            pattern.peak_gain_dbi for pattern, _ in self._pattern_groups
        )

    # ------------------------------------------------------------- topology
    def neighbors(self, index: int) -> Tuple[int, int]:
        """Indices of the two directionally adjacent beams (CW, CCW).

        For a single-beam codebook both neighbors are the beam itself.
        """
        n = len(self._beams)
        self._check_index(index)
        return ((index - 1) % n, (index + 1) % n)

    def adjacent_indices(self, index: int) -> List[int]:
        """Distinct adjacent beam indices (1 or 2 entries)."""
        left, right = self.neighbors(index)
        if left == right == index:
            return []
        if left == right:
            return [left]
        return [left, right]

    # ------------------------------------------------------------- selection
    def best_beam_towards(self, body_azimuth_rad: float) -> Beam:
        """Beam whose boresight is closest to the given body-frame azimuth.

        Vectorized over the ring; ties resolve to the lowest beam index
        (the same beam the former scalar ``min`` scan selected).
        """
        distances = np.abs(wrap_to_pi_array(self._boresights - body_azimuth_rad))
        return self._beams[int(np.argmin(distances))]

    def gain_dbi(self, index: int, body_azimuth_rad: float) -> float:
        """Gain of beam ``index`` toward a body-frame azimuth."""
        self._check_index(index)
        return self._beams[index].gain_dbi(body_azimuth_rad)

    def gains_dbi(
        self, body_azimuth_rad: float, indices: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Gains of every beam (or of ``indices``) toward one azimuth.

        The batch counterpart of :meth:`gain_dbi`: one array op per
        distinct pattern object instead of one Python call per beam.
        Each element is bit-identical to the scalar ``gain_dbi`` of the
        same beam — the burst evaluation path depends on this.

        Pass ``indices=None`` whenever the wanted beams are the whole
        codebook in index order (a base station's full SSB sweep): it
        skips the bounds check and the gather that explicit indices
        cost on every call.
        """
        if indices is None:
            offsets = body_azimuth_rad - self._boresights
            if len(self._pattern_groups) == 1:
                return self._pattern_groups[0][0].gain_dbi_array(offsets)
            gains = np.empty(len(self._beams), dtype=float)
            for pattern, positions in self._pattern_groups:
                gains[positions] = pattern.gain_dbi_array(offsets[positions])
            return gains
        selected = np.asarray(indices, dtype=np.intp)
        if selected.size and (
            selected.min() < 0 or selected.max() >= len(self._beams)
        ):
            raise IndexError(
                f"beam indices out of range for {len(self._beams)}-beam codebook"
            )
        # Evaluate only the selected beams (a schedule may sweep a
        # subset of the codebook).
        offsets = body_azimuth_rad - self._boresights[selected]
        if len(self._pattern_groups) == 1:
            return self._pattern_groups[0][0].gain_dbi_array(offsets)
        gains = np.empty(selected.shape, dtype=float)
        for pattern, positions in self._pattern_groups:
            mask = np.isin(selected, positions)
            if mask.any():
                gains[mask] = pattern.gain_dbi_array(offsets[mask])
        return gains

    def gains_grid_dbi(
        self,
        body_azimuths_rad: Sequence[float],
        indices: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Gains of every beam (or of ``indices``) toward many azimuths.

        The cross-user counterpart of :meth:`gains_dbi`: one ``(U, B)``
        offsets matrix and one array op per distinct pattern object
        cover a whole population's burst.  Row ``u`` is bit-identical to
        ``gains_dbi(body_azimuths_rad[u], indices)`` — the fleet batched
        burst path relies on this.
        """
        azimuths = np.asarray(body_azimuths_rad, dtype=float)
        if azimuths.ndim != 1:
            raise ValueError(
                f"need one azimuth per user, got shape {azimuths.shape}"
            )
        if indices is None:
            selected = np.arange(len(self._beams), dtype=np.intp)
        else:
            selected = np.asarray(indices, dtype=np.intp)
            if selected.size and (
                selected.min() < 0 or selected.max() >= len(self._beams)
            ):
                raise IndexError(
                    f"beam indices out of range for {len(self._beams)}-beam codebook"
                )
        offsets = azimuths[:, None] - self._boresights[selected][None, :]
        if len(self._pattern_groups) == 1:
            return self._pattern_groups[0][0].gain_dbi_array(offsets)
        gains = np.empty(offsets.shape, dtype=float)
        for pattern, positions in self._pattern_groups:
            mask = np.isin(selected, positions)
            if mask.any():
                gains[:, mask] = pattern.gain_dbi_array(offsets[:, mask])
        return gains

    def sweep_order(self, start: int = 0) -> List[int]:
        """Exhaustive-search visiting order starting from ``start``.

        A plain ring walk; base stations sweep SSB beams in this order and
        mobiles walk their receive codebook the same way during initial
        search.
        """
        self._check_index(start)
        n = len(self._beams)
        return [(start + k) % n for k in range(n)]

    def _check_index(self, index: int) -> None:
        if not 0 <= index < len(self._beams):
            raise IndexError(
                f"beam index {index} out of range for {len(self._beams)}-beam codebook"
            )

    # ----------------------------------------------------------- constructors
    @staticmethod
    def uniform_azimuth(
        beamwidth_deg: float,
        coverage_deg: float = 360.0,
        center_deg: float = 0.0,
        peak_gain_dbi: Optional[float] = None,
        name: Optional[str] = None,
    ) -> "Codebook":
        """Uniform codebook of Gaussian beams covering an azimuth sector.

        Beam spacing equals the beamwidth, so adjacent beams cross over at
        their -3 dB points — the design the 3 dB adaptation rule exploits:
        when RSS has dropped 3 dB due to pointing error, the crossover to
        an adjacent beam has been reached.

        Parameters
        ----------
        beamwidth_deg:
            Half-power beamwidth of every beam.
        coverage_deg:
            Total azimuth sector to cover (360 for a mobile, often less
            for a wall-mounted base station).
        center_deg:
            Center of the coverage sector in the body frame.
        """
        if beamwidth_deg <= 0.0 or beamwidth_deg > 360.0:
            raise ValueError(f"beamwidth_deg must be in (0, 360], got {beamwidth_deg!r}")
        if coverage_deg <= 0.0 or coverage_deg > 360.0:
            raise ValueError(f"coverage_deg must be in (0, 360], got {coverage_deg!r}")
        n_beams = max(1, int(round(coverage_deg / beamwidth_deg)))
        beamwidth_rad = math.radians(beamwidth_deg)
        pattern = GaussianBeamPattern(beamwidth_rad, peak_gain_dbi)
        full_circle = coverage_deg >= 360.0 - 1e-9
        if full_circle:
            # Evenly spaced around the ring.
            step = 2.0 * math.pi / n_beams
            start = math.radians(center_deg) - math.pi + 0.5 * step
        else:
            step = math.radians(coverage_deg) / n_beams
            start = math.radians(center_deg) - math.radians(coverage_deg) / 2.0 + 0.5 * step
        boresights = sorted(wrap_to_pi(start + k * step) for k in range(n_beams))
        beams = [
            Beam(i, boresight, pattern) for i, boresight in enumerate(boresights)
        ]
        label = name or f"uniform-{beamwidth_deg:g}deg"
        return Codebook(beams, name=label)

    @staticmethod
    def omni(gain_dbi: float = 0.0) -> "Codebook":
        """The degenerate omni 'codebook': one isotropic beam.

        This models the paper's omnidirectional/single-antenna baseline.
        """
        return Codebook([Beam(0, 0.0, OmniPattern(gain_dbi))], name="omni")


class HierarchicalCodebook:
    """Two-tier (wide -> narrow) codebook for accelerated initial search.

    The paper's initial search uses narrow beams directly; hierarchical
    search is a standard alternative the ablation benches compare
    against: scan a coarse tier first, then refine only the winning
    sector's children.
    """

    def __init__(self, coarse: Codebook, fine: Codebook) -> None:
        if len(fine) < len(coarse):
            raise ValueError("fine tier must have at least as many beams as coarse")
        self._coarse = coarse
        self._fine = fine
        # Coarse parent index of every fine beam: one array op over the
        # full fine x coarse distance matrix instead of a nested Python
        # scan; ties resolve to the lowest coarse index exactly as
        # :meth:`Codebook.best_beam_towards` does.  Computed eagerly —
        # the tiers are read-only, so it can never go stale.
        offsets = coarse.boresights_rad[None, :] - fine.boresights_rad[:, None]
        self._parents = np.argmin(np.abs(wrap_to_pi_array(offsets)), axis=1)

    @property
    def coarse(self) -> Codebook:
        return self._coarse

    @property
    def fine(self) -> Codebook:
        return self._fine

    def children(self, coarse_index: int) -> List[int]:
        """Fine-tier beams whose boresights fall inside a coarse beam.

        A fine beam belongs to the coarse beam whose boresight it is
        closest to, so every fine beam has exactly one parent and the
        children sets partition the fine tier.
        """
        self._coarse._check_index(coarse_index)
        return [int(i) for i in np.flatnonzero(self._parents == coarse_index)]
