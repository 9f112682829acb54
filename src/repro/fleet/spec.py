"""Fleet specifications: declarative multi-UE populations.

A fleet is a *population*, not a grid: ``N`` users sampled from weighted
:class:`UserProfile` arms (mobility scenario, receive codebook, protocol,
spawn region, start-time jitter), all resolved through the
:mod:`repro.registry` registries, sharing one street-grid deployment and
one simulated clock.

Determinism story, mirroring the campaign machinery:

* A :class:`FleetSpec` has a content hash (:attr:`FleetSpec.fleet_hash`)
  that is a pure function of what the fleet computes — profiles, user
  count, seed, duration — never of its display name.
* Population synthesis (:func:`synthesize_users`) is *per-user keyed*:
  user ``k``'s assignments (profile choice, spawn x, start offset) come
  from a generator seeded by ``derive_seed(fleet_hash, "user/k/
  population")``, and the user's mobility seed is
  ``derive_seed(fleet_hash, "user/k")`` — the same SHA-256 scheme the
  RNG registry uses (:func:`repro.sim.rng.derive_seed`).  User ``k`` is
  therefore a pure function of ``(fleet_hash, k)``: the same user in
  every process, on every worker, in every shard — and a shard can
  synthesize just its own users in O(shard) work.
* Sharding (:func:`partition_fleet`) assigns user ``k`` to shard
  ``seed_k % n_shards`` using that content-hash-derived mobility seed,
  so the assignment is order-independent and every
  :class:`FleetShard` gets its own content hash
  (:attr:`FleetShard.shard_hash`) for resume/memoization.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.campaign.spec import SpecError, canonical_json, content_hash
from repro.sim.rng import derive_seed

PathLike = Union[str, Path]

#: Default spawn region: the street span covered by the 3-cell grid's
#: cell-edge dynamics (A/B boundary at x=10, B/C at x=30).
DEFAULT_SPAWN_X = (4.0, 36.0)


@dataclass(frozen=True)
class UserProfile:
    """One weighted arm of a fleet population.

    Attributes
    ----------
    name:
        Profile label (recorded per user in results).
    weight:
        Relative sampling weight (any positive number).
    scenario / codebook / protocol:
        Registered scenario, mobile codebook and protocol names; every
        axis is validated against :mod:`repro.registry` at construction.
    spawn_x:
        ``(lo, hi)`` street interval users of this profile spawn in,
        uniformly.
    start_jitter_s:
        Users begin their trajectory a uniform ``[0, start_jitter_s]``
        after the run starts (they hold the spawn pose until then),
        de-synchronizing the population.
    overrides:
        Protocol config overrides (the campaign override dict format).
    """

    name: str
    weight: float = 1.0
    scenario: str = "walk"
    codebook: str = "narrow"
    protocol: str = "silent-tracker"
    spawn_x: Tuple[float, float] = DEFAULT_SPAWN_X
    start_jitter_s: float = 0.0
    overrides: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        from repro.registry import CODEBOOKS, PROTOCOLS, SCENARIOS, UnknownNameError

        if not self.name:
            raise SpecError("profile name must be non-empty")
        if not self.weight > 0.0:
            raise SpecError(
                f"profile {self.name!r}: weight must be positive, got {self.weight!r}"
            )
        object.__setattr__(self, "spawn_x", tuple(self.spawn_x))
        if len(self.spawn_x) != 2 or not self.spawn_x[0] <= self.spawn_x[1]:
            raise SpecError(
                f"profile {self.name!r}: spawn_x must be (lo, hi) with lo <= hi, "
                f"got {self.spawn_x!r}"
            )
        if self.start_jitter_s < 0.0:
            raise SpecError(
                f"profile {self.name!r}: start jitter must be non-negative, "
                f"got {self.start_jitter_s!r}"
            )
        try:
            SCENARIOS.get(self.scenario)
            CODEBOOKS.get(self.codebook)
            PROTOCOLS.get(self.protocol)
        except UnknownNameError as error:
            raise SpecError(f"profile {self.name!r}: {error}") from None
        canonical_json(dict(self.overrides))  # must be JSON-serialisable

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "weight": self.weight,
            "scenario": self.scenario,
            "codebook": self.codebook,
            "protocol": self.protocol,
            "spawn_x": list(self.spawn_x),
            "start_jitter_s": self.start_jitter_s,
            "overrides": dict(self.overrides),
        }

    @classmethod
    def from_dict(cls, record: Mapping) -> "UserProfile":
        return cls(
            name=str(record["name"]),
            weight=float(record.get("weight", 1.0)),
            scenario=str(record.get("scenario", "walk")),
            codebook=str(record.get("codebook", "narrow")),
            protocol=str(record.get("protocol", "silent-tracker")),
            spawn_x=tuple(record.get("spawn_x", DEFAULT_SPAWN_X)),
            start_jitter_s=float(record.get("start_jitter_s", 0.0)),
            overrides=dict(record.get("overrides") or {}),
        )


@dataclass(frozen=True)
class FleetSpec:
    """Declarative description of one population-scale run.

    Attributes
    ----------
    name:
        Display name (not part of :attr:`fleet_hash`).
    n_users:
        Population size.
    profiles:
        Weighted :class:`UserProfile` arms users are sampled from.
    seed:
        Master seed: seeds the deployment RNG registry and, through the
        spec content hash, the population synthesis.
    duration_s:
        Simulated run length.
    n_cells:
        Base stations on the street grid (2..3) or corridor (any >= 2).
    bs_beamwidth_deg:
        Station codebook beamwidth override (paper default when None).
    topology:
        ``"street"`` (the paper's 3-cell grid, default) or
        ``"corridor"`` (:func:`~repro.experiments.scenarios.
        build_corridor_deployment` — dense linear deployments).
    cell_pitch_m / phase_slots / pathloss_exponent:
        Corridor geometry knobs; ignored for the street topology (and,
        like it, excluded from :attr:`fleet_hash` so every pre-corridor
        spec keeps its hash).
    """

    name: str
    n_users: int
    profiles: Tuple[UserProfile, ...]
    seed: int = 0
    duration_s: float = 6.0
    n_cells: int = 3
    bs_beamwidth_deg: Optional[float] = None
    topology: str = "street"
    cell_pitch_m: float = 50.0
    phase_slots: int = 8
    pathloss_exponent: float = 3.2

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("fleet name must be non-empty")
        if self.n_users < 1:
            raise SpecError(f"need >= 1 user, got {self.n_users!r}")
        if self.topology not in ("street", "corridor"):
            raise SpecError(
                f"unknown topology {self.topology!r} "
                f"(expected 'street' or 'corridor')"
            )
        if self.topology == "corridor":
            if self.n_cells < 2:
                raise SpecError(
                    f"corridor needs >= 2 cells, got {self.n_cells!r}"
                )
            if self.cell_pitch_m <= 0.0:
                raise SpecError(
                    f"cell_pitch_m must be positive, got {self.cell_pitch_m!r}"
                )
            if self.phase_slots < 1:
                raise SpecError(
                    f"phase_slots must be >= 1, got {self.phase_slots!r}"
                )
        object.__setattr__(self, "profiles", tuple(self.profiles))
        if not self.profiles:
            raise SpecError("need >= 1 user profile")
        names = [profile.name for profile in self.profiles]
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate profile names in {names!r}")
        if self.seed < 0:
            raise SpecError(f"seed must be non-negative, got {self.seed!r}")
        if not (math.isfinite(self.duration_s) and self.duration_s > 0.0):
            raise SpecError(
                f"duration_s must be finite and positive, "
                f"got {self.duration_s!r}"
            )

    # ----------------------------------------------------------- identity
    def identity(self) -> dict:
        """Everything the run depends on (display name excluded).

        Topology fields appear only for non-street topologies: the
        street default contributes nothing new, and omitting it keeps
        every pre-corridor spec's content hash (and on-disk shard
        artifacts) valid.
        """
        record = {
            "n_users": self.n_users,
            "profiles": [profile.to_dict() for profile in self.profiles],
            "seed": self.seed,
            "duration_s": self.duration_s,
            "n_cells": self.n_cells,
            "bs_beamwidth_deg": self.bs_beamwidth_deg,
        }
        if self.topology != "street":
            record["topology"] = self.topology
            record["cell_pitch_m"] = self.cell_pitch_m
            record["phase_slots"] = self.phase_slots
            record["pathloss_exponent"] = self.pathloss_exponent
        return record

    @property
    def fleet_hash(self) -> str:
        """Content hash of the spec — the campaign cell-ID scheme."""
        return content_hash(self.identity())

    # ------------------------------------------------------ serialization
    def to_dict(self) -> dict:
        record = self.identity()
        record["name"] = self.name
        return record

    @classmethod
    def from_dict(cls, record: Mapping) -> "FleetSpec":
        try:
            return cls(
                name=str(record.get("name", "fleet")),
                n_users=int(record["n_users"]),
                profiles=tuple(
                    UserProfile.from_dict(p) for p in record["profiles"]
                ),
                seed=int(record.get("seed", 0)),
                duration_s=float(record.get("duration_s", 6.0)),
                n_cells=int(record.get("n_cells", 3)),
                bs_beamwidth_deg=(
                    None
                    if record.get("bs_beamwidth_deg") is None
                    else float(record["bs_beamwidth_deg"])
                ),
                topology=str(record.get("topology", "street")),
                cell_pitch_m=float(record.get("cell_pitch_m", 50.0)),
                phase_slots=int(record.get("phase_slots", 8)),
                pathloss_exponent=float(record.get("pathloss_exponent", 3.2)),
            )
        except KeyError as error:
            raise SpecError(f"fleet spec missing field: {error}") from error


def load_spec(path: PathLike) -> FleetSpec:
    """Read a :class:`FleetSpec` from a JSON file."""
    try:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise SpecError(f"{path}: malformed JSON: {error}") from error
    return FleetSpec.from_dict(record)


# ------------------------------------------------------------- synthesis
@dataclass(frozen=True)
class UserSpec:
    """One synthesized user: a fully resolved population member."""

    index: int
    user_id: str
    profile: str
    scenario: str
    codebook: str
    protocol: str
    start_x: float
    start_offset_s: float
    serving_cell: str
    seed: int
    overrides: Mapping = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "user_id": self.user_id,
            "profile": self.profile,
            "scenario": self.scenario,
            "codebook": self.codebook,
            "protocol": self.protocol,
            "start_x": self.start_x,
            "start_offset_s": self.start_offset_s,
            "serving_cell": self.serving_cell,
            "seed": self.seed,
            "overrides": dict(self.overrides),
        }


def nearest_cell(start_x: float, n_cells: int) -> str:
    """The street-grid cell closest to a spawn position.

    Users attach to their geometrically best cell at spawn — the state a
    converged idle-mode reselection would have left them in.
    """
    from repro.experiments.scenarios import STATION_POSITIONS

    cells = list(STATION_POSITIONS)[:n_cells]
    return min(cells, key=lambda c: abs(STATION_POSITIONS[c].x - start_x))


def nearest_cell_for(spec: "FleetSpec", start_x: float) -> str:
    """Topology-aware spawn attachment (see :func:`nearest_cell`).

    Corridor cells sit at ``i * cell_pitch_m``, so the nearest is pure
    arithmetic — no O(n_cells) scan for thousand-cell corridors.
    """
    if spec.topology == "corridor":
        index = int(round(start_x / spec.cell_pitch_m))
        index = min(max(index, 0), spec.n_cells - 1)
        return f"cell{index:04d}"
    return nearest_cell(start_x, spec.n_cells)


def user_seed(fleet_hash: str, index: int) -> int:
    """User ``index``'s mobility seed — and its shard-assignment key."""
    return derive_seed(fleet_hash, f"user/{index}")


def synthesize_users(
    spec: FleetSpec, indices: Optional[Sequence[int]] = None
) -> List[UserSpec]:
    """Sample the population of ``spec`` (or a subset), deterministically.

    Synthesis is per-user keyed: user ``k`` draws its profile choice
    (weighted), spawn position (uniform in the profile's region) and
    start offset (uniform in the profile's jitter) from a generator
    seeded by ``derive_seed(fleet_hash, "user/k/population")`` — always
    three draws, so the stream layout never depends on profile
    configuration.  The user's mobility seed is the separate
    ``derive_seed(fleet_hash, "user/k")`` key (:func:`user_seed`).

    Because user ``k`` depends only on ``(fleet_hash, k)``, passing
    ``indices`` synthesizes exactly that subset in O(subset) work — the
    property shard workers rely on.  Indices must be in range and are
    returned in the given order.
    """
    fleet_hash = spec.fleet_hash
    weights = np.array([profile.weight for profile in spec.profiles], dtype=float)
    cumulative = np.cumsum(weights / weights.sum())
    if indices is None:
        indices = range(spec.n_users)
    users: List[UserSpec] = []
    for index in indices:
        if not 0 <= index < spec.n_users:
            raise SpecError(
                f"user index {index!r} out of range for {spec.n_users} users"
            )
        rng = np.random.default_rng(
            derive_seed(fleet_hash, f"user/{index}/population")
        )
        pick, x_frac, jitter_frac = rng.random(3)
        arm = min(
            int(np.searchsorted(cumulative, pick, side="right")),
            len(spec.profiles) - 1,
        )
        profile = spec.profiles[arm]
        lo, hi = profile.spawn_x
        start_x = float(lo + (hi - lo) * x_frac)
        offset = (
            float(profile.start_jitter_s * jitter_frac)
            if profile.start_jitter_s > 0.0
            else 0.0
        )
        users.append(
            UserSpec(
                index=index,
                user_id=f"ue{index:05d}",
                profile=profile.name,
                scenario=profile.scenario,
                codebook=profile.codebook,
                protocol=profile.protocol,
                start_x=start_x,
                start_offset_s=offset,
                serving_cell=nearest_cell_for(spec, start_x),
                seed=user_seed(fleet_hash, index),
                overrides=dict(profile.overrides),
            )
        )
    return users


# -------------------------------------------------------------- sharding
@dataclass(frozen=True)
class FleetShard:
    """One partition of a fleet population.

    Users are assigned by their content-hash-derived mobility seed
    (``user_seed(fleet_hash, k) % n_shards``), so membership is a pure
    function of the fleet spec and the shard arithmetic — independent of
    enumeration order, worker count, or which other shards exist.  The
    shard's own content hash names its artifact for resume/memoization,
    exactly like campaign cell IDs.
    """

    spec: FleetSpec
    shard_index: int
    n_shards: int

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise SpecError(
                f"n_shards must be >= 1, got {self.n_shards!r}"
            )
        if self.n_shards > self.spec.n_users:
            raise SpecError(
                f"cannot split {self.spec.n_users} users into "
                f"{self.n_shards} shards"
            )
        if not 0 <= self.shard_index < self.n_shards:
            raise SpecError(
                f"shard_index must be in [0, {self.n_shards}), "
                f"got {self.shard_index!r}"
            )

    # ----------------------------------------------------------- identity
    def identity(self) -> dict:
        return {
            "fleet": self.spec.identity(),
            "shard_index": self.shard_index,
            "n_shards": self.n_shards,
        }

    @property
    def shard_hash(self) -> str:
        """Content hash naming this shard's artifact."""
        return content_hash(self.identity())

    # ---------------------------------------------------------- membership
    def user_indices(self) -> List[int]:
        """This shard's user indices, ascending."""
        fleet_hash = self.spec.fleet_hash
        return [
            index
            for index in range(self.spec.n_users)
            if user_seed(fleet_hash, index) % self.n_shards == self.shard_index
        ]

    def synthesize(self) -> List[UserSpec]:
        """Synthesize just this shard's users (O(shard) work)."""
        return synthesize_users(self.spec, self.user_indices())

    # ------------------------------------------------------ serialization
    def to_dict(self) -> dict:
        return {
            "fleet": self.spec.to_dict(),
            "shard_index": self.shard_index,
            "n_shards": self.n_shards,
        }

    @classmethod
    def from_dict(cls, record: Mapping) -> "FleetShard":
        try:
            return cls(
                spec=FleetSpec.from_dict(record["fleet"]),
                shard_index=int(record["shard_index"]),
                n_shards=int(record["n_shards"]),
            )
        except KeyError as error:
            raise SpecError(f"fleet shard missing field: {error}") from error


def partition_fleet(spec: FleetSpec, n_shards: int) -> Tuple[FleetShard, ...]:
    """Split a fleet into ``n_shards`` seed-assigned shards.

    Every user lands in exactly one shard; shard membership never
    depends on how many workers execute them.  Raises
    :class:`~repro.campaign.spec.SpecError` for ``n_shards < 1`` or
    ``n_shards > spec.n_users``.
    """
    if n_shards < 1:
        raise SpecError(f"n_shards must be >= 1, got {n_shards!r}")
    return tuple(
        FleetShard(spec=spec, shard_index=index, n_shards=n_shards)
        for index in range(n_shards)
    )
