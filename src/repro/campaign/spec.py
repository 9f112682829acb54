"""Campaign specifications: declarative experiment grids.

A campaign is the cross product of four axes::

    scenario x protocol x config-override x seed

Each point of the grid is a :class:`CampaignCell` with a stable,
content-hashed ``cell_id``.  The ID is a pure function of *what the cell
computes* (experiment kind, coordinates, overrides, params) — not of the
campaign name, worker count, or execution order — so artifacts written
by one campaign are recognised and skipped by any later campaign that
contains the same cell, and an interrupted run resumes exactly where it
stopped.

The ``protocols`` axis is interpreted per experiment kind: each kind
registered in :data:`repro.registry.EXPERIMENTS` declares the meaning
(``protocol_axis``) and the valid values (``protocol_names()``) of its
axis — codebook kinds for ``search``/``tracking``/``pingpong``,
protocol arms for ``comparison``, receive-beam policies for
``workload``, search strategies for ``hierarchical``.  Spec
construction validates every axis value against the registries, so a
typo'd arm fails here, listing the valid choices, instead of deep
inside a worker process mid-campaign; ``repro list`` prints the live
sets.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

#: Hex digits of SHA-256 kept for a cell ID: collision-safe for any
#: realistic grid (64-bit space) yet short enough for filenames/logs.
CELL_ID_HEX_DIGITS = 16

PathLike = Union[str, Path]


class SpecError(ValueError):
    """Raised for malformed campaign specifications."""


def canonical_json(value) -> str:
    """Deterministic JSON encoding used for hashing and artifacts.

    Sorted keys, no whitespace: the same logical value always encodes to
    the same bytes, which is what makes cell IDs stable and artifacts
    byte-identical across worker counts.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def content_hash(value) -> str:
    """Stable short hash of a JSON-serialisable value."""
    digest = hashlib.sha256(canonical_json(value).encode("utf-8"))
    return digest.hexdigest()[:CELL_ID_HEX_DIGITS]


@dataclass(frozen=True)
class CampaignCell:
    """One grid point: a single simulation run.

    ``seed`` is derived from the spec's ``base_seed`` and the cell's
    seed index when the spec expands — it is part of the cell content,
    so a worker process needs nothing beyond the cell itself to
    reproduce the run bit-for-bit.
    """

    experiment: str
    scenario: str
    protocol: str
    override_label: str
    overrides: Mapping
    seed_index: int
    seed: int
    params: Mapping

    @property
    def cell_id(self) -> str:
        """Content hash identifying this cell across campaigns."""
        return content_hash(self.identity())

    def identity(self) -> dict:
        """The dict the cell ID hashes: everything the run depends on."""
        return {
            "experiment": self.experiment,
            "scenario": self.scenario,
            "protocol": self.protocol,
            "override_label": self.override_label,
            "overrides": dict(self.overrides),
            "seed": self.seed,
            "params": dict(self.params),
        }

    def to_dict(self) -> dict:
        record = self.identity()
        record["seed_index"] = self.seed_index
        record["cell_id"] = self.cell_id
        return record

    @classmethod
    def from_dict(cls, record: Mapping) -> "CampaignCell":
        return cls(
            experiment=str(record["experiment"]),
            scenario=str(record["scenario"]),
            protocol=str(record["protocol"]),
            override_label=str(record["override_label"]),
            overrides=dict(record["overrides"]),
            seed_index=int(record.get("seed_index", 0)),
            seed=int(record["seed"]),
            params=dict(record["params"]),
        )


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of a full experiment campaign.

    Attributes
    ----------
    name:
        Human-readable campaign name (not part of cell IDs).
    experiment:
        A kind registered in :data:`repro.registry.EXPERIMENTS`.
    scenarios:
        Mobility scenarios to sweep.
    protocols:
        Per-kind protocol arms (see module docstring).
    seeds:
        Trials per (scenario, protocol, override) arm.
    base_seed:
        Seed of trial 0; trial ``k`` runs with ``base_seed + k``.  Every
        arm sees the same seed sequence, giving paired comparisons and —
        because the seed is baked into each cell — bit-identical results
        regardless of worker scheduling.
    overrides:
        Mapping of label -> config-override dict (fields of
        :class:`~repro.core.config.SilentTrackerConfig`; a nested
        ``beamsurfer`` dict overrides
        :class:`~repro.core.beamsurfer.BeamSurferConfig`).  ``{}``
        means the paper defaults.
    params:
        Extra kind-specific knobs (``deadline_s``, ``duration_s``,
        ``period_s``, ``fixed_rx_beam``, ...), passed to the trial
        function.
    """

    name: str
    experiment: str
    scenarios: Tuple[str, ...]
    protocols: Tuple[str, ...]
    seeds: int
    base_seed: int = 0
    overrides: Mapping[str, Mapping] = field(
        default_factory=lambda: {"default": {}}
    )
    params: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        from repro.registry import EXPERIMENTS, UnknownNameError

        if not self.name:
            raise SpecError("campaign name must be non-empty")
        try:
            kind = EXPERIMENTS.get(self.experiment)
        except UnknownNameError as error:
            raise SpecError(str(error)) from None
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "protocols", tuple(self.protocols))
        if not self.scenarios:
            raise SpecError("need >= 1 scenario")
        if not self.protocols:
            raise SpecError("need >= 1 protocol arm")
        # Duplicate axis values would expand to duplicate cell IDs and
        # silently double every aggregated statistic — refuse loudly.
        if len(set(self.scenarios)) != len(self.scenarios):
            raise SpecError(f"duplicate scenarios in {self.scenarios!r}")
        if len(set(self.protocols)) != len(self.protocols):
            raise SpecError(f"duplicate protocol arms in {self.protocols!r}")
        if self.seeds < 1:
            raise SpecError(f"need >= 1 trial, got {self.seeds!r}")
        if self.base_seed < 0:
            raise SpecError(
                f"base seed must be non-negative, got {self.base_seed!r}"
            )
        from repro.registry import SCENARIOS

        for scenario in self.scenarios:
            try:
                SCENARIOS.get(scenario)
            except UnknownNameError as error:
                raise SpecError(str(error)) from None
        valid_protocols = kind.protocol_names()
        if valid_protocols is not None:
            for protocol in self.protocols:
                if protocol not in valid_protocols:
                    raise SpecError(
                        f"unknown {kind.protocol_axis} {protocol!r} for "
                        f"experiment {self.experiment!r}; known: "
                        f"{', '.join(sorted(valid_protocols))}"
                    )
        if not self.overrides:
            raise SpecError("need >= 1 override arm (use {'default': {}})")
        canonical_json(dict(self.overrides))  # must be JSON-serialisable
        canonical_json(dict(self.params))

    # ------------------------------------------------------------- expansion
    @property
    def n_cells(self) -> int:
        return (
            len(self.scenarios)
            * len(self.protocols)
            * len(self.overrides)
            * self.seeds
        )

    def expand(self) -> List[CampaignCell]:
        """The full cell grid, in deterministic scenario-major order."""
        return list(self.iter_cells())

    def iter_cells(self) -> Iterator[CampaignCell]:
        for scenario in self.scenarios:
            for protocol in self.protocols:
                for label, override in self.overrides.items():
                    for k in range(self.seeds):
                        yield CampaignCell(
                            experiment=self.experiment,
                            scenario=scenario,
                            protocol=protocol,
                            override_label=label,
                            overrides=dict(override),
                            seed_index=k,
                            seed=self.base_seed + k,
                            params=dict(self.params),
                        )

    # ---------------------------------------------------------- serialization
    @property
    def spec_hash(self) -> str:
        """Content hash of the spec (campaign name excluded)."""
        record = self.to_dict()
        record.pop("name")
        return content_hash(record)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "experiment": self.experiment,
            "scenarios": list(self.scenarios),
            "protocols": list(self.protocols),
            "seeds": self.seeds,
            "base_seed": self.base_seed,
            "overrides": {k: dict(v) for k, v in self.overrides.items()},
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, record: Mapping) -> "CampaignSpec":
        try:
            return cls(
                name=str(record["name"]),
                experiment=str(record["experiment"]),
                scenarios=tuple(record["scenarios"]),
                protocols=tuple(record["protocols"]),
                seeds=int(record["seeds"]),
                base_seed=int(record.get("base_seed", 0)),
                overrides=dict(record.get("overrides") or {"default": {}}),
                params=dict(record.get("params") or {}),
            )
        except KeyError as error:
            raise SpecError(f"spec missing field: {error}") from error


def load_spec(path: PathLike) -> CampaignSpec:
    """Read a :class:`CampaignSpec` from a JSON file."""
    try:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise SpecError(f"{path}: malformed JSON: {error}") from error
    return CampaignSpec.from_dict(record)


# ---------------------------------------------------------- config overrides
def config_to_overrides(config) -> Dict:
    """Flatten a :class:`SilentTrackerConfig` into an override dict.

    Lossless inverse of :func:`build_config`; lets one-shot entry points
    that accept a config object route through the campaign machinery.
    """
    if config is None:
        return {}
    record = dataclasses.asdict(config)
    return record


def build_config(overrides: Optional[Mapping]):
    """Materialise a :class:`SilentTrackerConfig` from an override dict.

    ``None`` / ``{}`` return ``None`` so downstream code applies its own
    default (identical to ``SilentTrackerConfig()``).  Unknown field
    names raise ``TypeError`` — a typo in a spec fails loudly rather
    than silently running the defaults.
    """
    if not overrides:
        return None
    from repro.core.beamsurfer import BeamSurferConfig
    from repro.core.config import SilentTrackerConfig

    record = dict(overrides)
    beamsurfer = record.pop("beamsurfer", None)
    if beamsurfer is not None:
        record["beamsurfer"] = BeamSurferConfig(**dict(beamsurfer))
    return SilentTrackerConfig(**record)
