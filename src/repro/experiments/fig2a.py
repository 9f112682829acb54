"""Fig. 2a: directional neighbor-cell search under mobility.

Two panels:

* **Search latency** — number of beam-search dwells until the neighbor
  cell's beam is first found, for narrow (20 deg) vs wide (60 deg)
  receive codebooks.
* **Search success rate** — fraction of searches that find the beam
  within a deadline, for narrow / wide / omni.

Each trial places the mobile at the cell edge under the chosen mobility
model and runs a pure acquisition search (the N-A/R machinery) for the
neighbor cell.  Narrow beams need more dwells (more codebook entries to
walk) but succeed far more often: their extra gain keeps the SSB above
the detection floor where the omni antenna hears nothing.

The module registers the ``search`` experiment kind: its campaign
``protocols`` axis is the mobile receive-codebook kind, validated
against :data:`repro.registry.CODEBOOKS`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.api import Session, TrialSpec
from repro.campaign.aggregate import aggregate_search
from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.core.events import NeighborState
from repro.core.neighbor_tracker import NeighborTracker
from repro.measure.report import RssMeasurement
from repro.registry import CODEBOOKS, register_experiment

#: The neighbor cell the mobile searches for (serving is cellA).
TARGET_CELL = "cellB"


@dataclass(frozen=True)
class SearchTrialResult:
    """Outcome of one search trial."""

    success: bool
    dwells: int
    time_to_found_s: Optional[float]
    codebook: str
    scenario: str
    seed: int


class NeighborSearchProbe:
    """Minimal BurstListener: search one neighbor cell, nothing else.

    Isolates the Fig. 2a quantity (search behaviour under mobility) from
    serving-link dynamics, mirroring the paper's standalone search
    experiments.
    """

    def __init__(self, tracker: NeighborTracker, target_cell: str) -> None:
        self._tracker = tracker
        self._target = target_cell
        self.found_at_s: Optional[float] = None

    def choose_rx_beam(self, cell_id: str, now_s: float) -> Optional[int]:
        if cell_id != self._target:
            return None
        if self._tracker.state is NeighborState.TRACKING:
            return None  # done; stop burning dwells
        return self._tracker.beam_for_burst(cell_id)

    def candidate_cells(self, now_s: float) -> Tuple[str]:
        return (self._target,)

    def on_measurement(self, measurement: RssMeasurement) -> None:
        already_found = self._tracker.state is NeighborState.TRACKING
        self._tracker.on_measurement(measurement, measurement.time_s)
        if not already_found and self._tracker.state is NeighborState.TRACKING:
            self.found_at_s = measurement.time_s


def run_search_trial(
    codebook: str,
    scenario: str = "walk",
    seed: int = 1,
    deadline_s: float = 1.0,
) -> SearchTrialResult:
    """One search trial: success iff the beam is found within the deadline."""
    spec = TrialSpec(
        scenario=scenario, codebook=codebook, seed=seed, duration_s=deadline_s
    )
    with Session(spec) as session:
        tracker = NeighborTracker(session.mobile.codebook, [TARGET_CELL])
        probe = NeighborSearchProbe(tracker, TARGET_CELL)
        session.attach_listener(probe)
        tracker.begin_search(0.0)
        session.run()
    success = tracker.state is NeighborState.TRACKING
    dwells = (
        tracker.search_dwells_at_found
        if success and tracker.search_dwells_at_found is not None
        else tracker.search_dwells
    )
    return SearchTrialResult(
        success=success,
        dwells=dwells,
        time_to_found_s=probe.found_at_s,
        codebook=codebook,
        scenario=scenario,
        seed=seed,
    )


# ----------------------------------------------------------- experiment kind
def _decode_search(payload: dict) -> SearchTrialResult:
    return SearchTrialResult(**payload)


@register_experiment(
    "search",
    decode=_decode_search,
    axis="codebook",
    protocol_axis="codebook",
    protocol_names=CODEBOOKS.names,
    default_protocols=("narrow", "wide", "omni"),
    description="Fig. 2a directional neighbor search (latency + success)",
    duration_param="deadline_s",
)
def _run_search_cell(cell) -> dict:
    result = run_search_trial(
        cell.protocol,
        scenario=cell.scenario,
        seed=cell.seed,
        deadline_s=float(cell.params.get("deadline_s", 1.0)),
    )
    return dataclasses.asdict(result)


def fig2a_spec(
    n_trials: int = 40,
    scenario: str = "walk",
    deadline_s: float = 1.0,
    base_seed: int = 100,
    codebooks: tuple = ("narrow", "wide", "omni"),
    name: str = "fig2a",
) -> CampaignSpec:
    """The Fig. 2a sweep as a campaign grid (codebook x seed)."""
    return CampaignSpec(
        name=name,
        experiment="search",
        scenarios=(scenario,),
        protocols=tuple(codebooks),
        seeds=n_trials,
        base_seed=base_seed,
        params={"deadline_s": deadline_s},
    )


def run_fig2a(
    n_trials: int = 40,
    scenario: str = "walk",
    deadline_s: float = 1.0,
    base_seed: int = 100,
    codebooks: tuple = ("narrow", "wide", "omni"),
    workers: int = 1,
) -> Dict[str, dict]:
    """Both Fig. 2a panels for the given mobility scenario.

    Thin wrapper over :func:`repro.campaign.runner.run_campaign` on the
    :func:`fig2a_spec` grid (in-memory; pass ``workers`` to fan the
    trials out over processes).  Returns, per codebook kind::

        {"success_rate": float,
         "latency": summary-dict over dwell counts of successful trials,
         "trials": [SearchTrialResult, ...]}
    """
    spec = fig2a_spec(
        n_trials=n_trials,
        scenario=scenario,
        deadline_s=deadline_s,
        base_seed=base_seed,
        codebooks=codebooks,
    )
    result = run_campaign(spec, workers=workers)
    return aggregate_search(result.results_in_order())[scenario]
