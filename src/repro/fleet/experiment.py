"""The ``fleet`` campaign experiment kind and its built-in profile mixes.

A fleet campaign cell is ``(scenario, mix, overrides, seed)``: the
*mix* arm names a population composition — a function from the cell's
scenario to weighted :class:`~repro.fleet.spec.UserProfile` arms — so
both campaign axes stay meaningful: the scenario axis picks the base
mobility model, the mix arm picks how the population is blended around
it.

Built-in mixes:

``uniform``
    Every user runs the cell's scenario with the paper-default narrow
    codebook.
``mobility-blend``
    60% base scenario, 25% rotating devices, 15% vehicular drive-bys.
``codebook-split``
    The base scenario with a 70/30 narrow/wide receive-codebook split.

Custom mixes register through :func:`register_fleet_mix` and are
immediately valid campaign arms (``protocol_names`` is a live view).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Tuple

from repro.campaign.spec import SpecError
from repro.fleet.runner import FleetTrialResult, run_fleet_trial
from repro.fleet.spec import FleetSpec, UserProfile
from repro.registry import register_experiment

#: Default knobs of a fleet campaign cell (override via spec ``params``).
DEFAULT_N_USERS = 16
DEFAULT_DURATION_S = 4.0
DEFAULT_START_JITTER_S = 0.5
#: Default corridor size for ``topology="corridor"`` cells.
DEFAULT_CORRIDOR_CELLS = 64

#: Registered profile mixes: name -> builder ``(scenario, overrides) ->
#: tuple of UserProfile``.
# repro: lint-waive[DET006]: plugin registry, append-only at import time
FLEET_MIXES: Dict[str, Callable[..., Tuple[UserProfile, ...]]] = {}


def register_fleet_mix(name: str):
    """Register a fleet profile mix: ``@register_fleet_mix("rush-hour")``.

    The decorated builder receives ``(scenario, overrides)`` and returns
    the weighted profile tuple for one campaign cell.
    """

    def decorator(build):
        if name in FLEET_MIXES:
            raise SpecError(f"fleet mix {name!r} is already registered")
        FLEET_MIXES[name] = build
        return build

    return decorator


def mix_names() -> Tuple[str, ...]:
    """Currently registered mix names (live; the experiment's arm axis)."""
    return tuple(FLEET_MIXES)


@register_fleet_mix("uniform")
def _uniform_mix(scenario: str, overrides) -> Tuple[UserProfile, ...]:
    return (
        UserProfile(
            name="uniform",
            scenario=scenario,
            start_jitter_s=DEFAULT_START_JITTER_S,
            overrides=overrides,
        ),
    )


@register_fleet_mix("mobility-blend")
def _mobility_blend_mix(scenario: str, overrides) -> Tuple[UserProfile, ...]:
    return (
        UserProfile(
            name="base",
            weight=0.60,
            scenario=scenario,
            start_jitter_s=DEFAULT_START_JITTER_S,
            overrides=overrides,
        ),
        UserProfile(
            name="rotating",
            weight=0.25,
            scenario="rotation",
            start_jitter_s=DEFAULT_START_JITTER_S,
            overrides=overrides,
        ),
        UserProfile(
            name="vehicular",
            weight=0.15,
            scenario="vehicular",
            start_jitter_s=DEFAULT_START_JITTER_S,
            overrides=overrides,
        ),
    )


@register_fleet_mix("codebook-split")
def _codebook_split_mix(scenario: str, overrides) -> Tuple[UserProfile, ...]:
    return (
        UserProfile(
            name="narrow",
            weight=0.70,
            scenario=scenario,
            codebook="narrow",
            start_jitter_s=DEFAULT_START_JITTER_S,
            overrides=overrides,
        ),
        UserProfile(
            name="wide",
            weight=0.30,
            scenario=scenario,
            codebook="wide",
            start_jitter_s=DEFAULT_START_JITTER_S,
            overrides=overrides,
        ),
    )


def fleet_spec_for_cell(
    mix: str,
    scenario: str,
    seed: int,
    n_users: int = DEFAULT_N_USERS,
    duration_s: float = DEFAULT_DURATION_S,
    overrides=None,
    name: str = "fleet-cell",
    topology: str = "street",
    n_cells: Optional[int] = None,
    cell_pitch_m: float = 50.0,
    phase_slots: int = 8,
    pathloss_exponent: float = 3.2,
) -> FleetSpec:
    """The :class:`FleetSpec` a campaign cell expands to.

    ``topology="corridor"`` swaps the paper's 3-cell street grid for a
    dense ``n_cells``-station corridor (default
    :data:`DEFAULT_CORRIDOR_CELLS`) and widens every profile's spawn
    region to span it, so the population is spread along the whole
    deployment instead of piling onto the first three cells.
    """
    try:
        build = FLEET_MIXES[mix]
    except KeyError:
        raise SpecError(
            f"unknown fleet mix {mix!r}; known: {', '.join(sorted(FLEET_MIXES))}"
        ) from None
    profiles = build(scenario, dict(overrides or {}))
    if topology == "corridor":
        cells = DEFAULT_CORRIDOR_CELLS if n_cells is None else n_cells
        span = (0.0, (cells - 1) * cell_pitch_m)
        profiles = tuple(
            dataclasses.replace(profile, spawn_x=span) for profile in profiles
        )
        return FleetSpec(
            name=name,
            n_users=n_users,
            profiles=profiles,
            seed=seed,
            duration_s=duration_s,
            n_cells=cells,
            topology="corridor",
            cell_pitch_m=cell_pitch_m,
            phase_slots=phase_slots,
            pathloss_exponent=pathloss_exponent,
        )
    spec = FleetSpec(
        name=name,
        n_users=n_users,
        profiles=profiles,
        seed=seed,
        duration_s=duration_s,
    )
    if n_cells is not None:
        spec = dataclasses.replace(spec, n_cells=n_cells)
    return spec


# ----------------------------------------------------------- experiment kind
def _decode_fleet(payload: dict) -> FleetTrialResult:
    return FleetTrialResult.from_dict(payload)


def fleet_headline(trials) -> dict:
    """Users, completed handovers, search latency and outage of one mix arm.

    The samples pool every user of every trial: each search latency,
    and each user's outage fraction.  Quantiles are ``None`` when empty.
    """
    from repro.analysis.stats import summarize

    searches = tuple(
        x for t in trials for u in t.users for x in u.search_latencies_s
    )
    outages = tuple(u.outage_fraction for t in trials for u in t.users)
    totals = [t.aggregates["totals"] for t in trials]
    return {
        "users": sum(t["users"] for t in totals),
        "handovers_completed": sum(t["handovers_completed"] for t in totals),
        "p50_search_s": summarize(searches).get("p50"),
        "p90_outage_fraction": summarize(outages).get("p90"),
        "search_latencies_s": searches,
        "outage_fractions": outages,
    }


@register_experiment(
    "fleet",
    decode=_decode_fleet,
    headline=fleet_headline,
    columns=(
        ("users", "users"),
        ("handovers", "handovers_completed"),
        ("p50 search (s)", "p50_search_s"),
        ("p90 outage frac", "p90_outage_fraction"),
    ),
    axis="custom",
    protocol_axis="profile mix",
    protocol_names=mix_names,
    default_protocols=("uniform", "mobility-blend", "codebook-split"),
    description="population-scale multi-UE run (fleet CDFs over N users)",
    duration_param="duration_s",
    accepts_config=True,
)
def _run_fleet_cell(cell) -> dict:
    spec = fleet_spec_for_cell(
        cell.protocol,
        scenario=cell.scenario,
        seed=cell.seed,
        n_users=int(cell.params.get("n_users", DEFAULT_N_USERS)),
        duration_s=float(cell.params.get("duration_s", DEFAULT_DURATION_S)),
        overrides=cell.overrides,
        name=f"fleet-{cell.scenario}-{cell.protocol}",
        topology=str(cell.params.get("topology", "street")),
        n_cells=(
            None
            if cell.params.get("n_cells") is None
            else int(cell.params["n_cells"])
        ),
        cell_pitch_m=float(cell.params.get("cell_pitch_m", 50.0)),
        phase_slots=int(cell.params.get("phase_slots", 8)),
        pathloss_exponent=float(cell.params.get("pathloss_exponent", 3.2)),
    )
    return run_fleet_trial(spec).to_dict()


def fleet_campaign_spec(
    n_users: int = DEFAULT_N_USERS,
    scenarios: Tuple[str, ...] = ("walk",),
    mixes: Tuple[str, ...] = ("uniform", "mobility-blend"),
    seeds: int = 4,
    base_seed: int = 0,
    duration_s: float = DEFAULT_DURATION_S,
    name: str = "fleet",
):
    """A fleet sweep as a campaign grid (scenario x mix x seed)."""
    from repro.campaign.spec import CampaignSpec

    return CampaignSpec(
        name=name,
        experiment="fleet",
        scenarios=tuple(scenarios),
        protocols=tuple(mixes),
        seeds=seeds,
        base_seed=base_seed,
        params={"n_users": n_users, "duration_s": duration_s},
    )
