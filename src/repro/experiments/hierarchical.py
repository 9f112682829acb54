"""Extension experiment: hierarchical (wide -> narrow) neighbor search.

The paper's mobile searches its narrow codebook exhaustively.  The
standard alternative (e.g. IEEE 802.11ad SLS, and the fast-training
strategies of the paper's ref. [6]) is two-stage: sweep a coarse tier
first, then refine only the winning sector's narrow children.  This
experiment quantifies the trade the paper implicitly makes:

* Hierarchical search needs **fewer dwells** when the coarse tier is
  detectable, but
* the coarse tier has **less gain**, so at the cell edge the first
  stage itself starts missing — exactly the Fig. 2a wide-beam failure
  mode — and the two-stage search loses its advantage.

The module registers the ``hierarchical`` experiment kind: its campaign
``protocols`` axis is the search strategy (:data:`SEARCH_STRATEGIES`),
so exhaustive-vs-hierarchical runs as a paired-seed grid like every
other comparison.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.api import Session, TrialSpec
from repro.campaign.spec import CampaignSpec
from repro.experiments.fig2a import (
    SEARCH_COLUMNS,
    TARGET_CELL,
    run_search_trial,
    search_headline,
)
from repro.measure.report import RssMeasurement
from repro.phy.codebook import Codebook, HierarchicalCodebook
from repro.registry import register_experiment

#: The search-strategy arms of the ``hierarchical`` experiment kind.
SEARCH_STRATEGIES = ("exhaustive", "hierarchical")


@dataclass(frozen=True)
class HierarchicalTrialResult:
    """Outcome of one search-strategy trial.

    ``stage_reached`` is 1 (coarse only) or 2 (refined) for the
    two-stage strategy, and 0 for the single-tier exhaustive baseline.
    """

    success: bool
    dwells: int
    stage_reached: int
    seed: int


class HierarchicalSearchProbe:
    """BurstListener running a coarse-then-fine search on one cell."""

    def __init__(self, hierarchy: HierarchicalCodebook, target_cell: str) -> None:
        self._hierarchy = hierarchy
        self._target = target_cell
        self._stage = 1
        self._coarse_order = hierarchy.coarse.sweep_order()
        self._cursor = 0
        self._fine_candidates: List[int] = []
        self.dwells = 0
        self.found_beam: Optional[int] = None
        self.found_rss: Optional[float] = None
        #: Codebook the current dwell should use ('coarse' or 'fine').
        self.active_tier = "coarse"

    @property
    def stage(self) -> int:
        return self._stage

    @property
    def done(self) -> bool:
        return self.found_beam is not None

    def choose_rx_beam(self, cell_id: str, now_s: float) -> Optional[int]:
        if cell_id != self._target or self.done:
            return None
        if self._stage == 1:
            self.active_tier = "coarse"
            return self._coarse_order[self._cursor % len(self._coarse_order)]
        self.active_tier = "fine"
        return self._fine_candidates[self._cursor % len(self._fine_candidates)]

    def candidate_cells(self, now_s: float) -> Tuple[str]:
        return (self._target,)

    def on_measurement(self, measurement: RssMeasurement) -> None:
        if self.done:
            return
        self.dwells += 1
        if self._stage == 1:
            if measurement.detected:
                # Coarse hit: refine inside this sector.
                self._fine_candidates = self._hierarchy.children(
                    measurement.rx_beam
                )
                if not self._fine_candidates:
                    self._fine_candidates = [0]
                self._stage = 2
                self._cursor = 0
            else:
                self._cursor += 1
        else:
            if measurement.detected:
                self.found_beam = measurement.rx_beam
                self.found_rss = measurement.rss_dbm
            else:
                self._cursor += 1


class TierSwitchingMobileShim:
    """Presents the right codebook tier to the link engine per dwell.

    The Mobile owns a single codebook; for the two-tier search we swap
    the codebook reference according to the probe's active tier before
    each burst.  A listener wrapper keeps this in one place.
    """

    def __init__(self, mobile, probe, coarse: Codebook, fine: Codebook) -> None:
        self._mobile = mobile
        self._probe = probe
        self._coarse = coarse
        self._fine = fine

    def choose_rx_beam(self, cell_id: str, now_s: float) -> Optional[int]:
        beam = self._probe.choose_rx_beam(cell_id, now_s)
        if beam is None:
            return None
        self._mobile.codebook = (
            self._coarse if self._probe.active_tier == "coarse" else self._fine
        )
        return beam

    def candidate_cells(self, now_s: float) -> Tuple[str]:
        return self._probe.candidate_cells(now_s)

    def on_measurement(self, measurement: RssMeasurement) -> None:
        self._probe.on_measurement(measurement)


def run_hierarchical_trial(
    seed: int = 1,
    scenario: str = "walk",
    deadline_s: float = 1.0,
    coarse_deg: float = 60.0,
    fine_deg: float = 20.0,
) -> HierarchicalTrialResult:
    """One two-stage search trial against the cell-edge deployment."""
    spec = TrialSpec(
        scenario=scenario, codebook="narrow", seed=seed, duration_s=deadline_s
    )
    with Session(spec) as session:
        coarse = Codebook.uniform_azimuth(coarse_deg, name="coarse")
        fine = Codebook.uniform_azimuth(fine_deg, name="fine")
        hierarchy = HierarchicalCodebook(coarse, fine)
        probe = HierarchicalSearchProbe(hierarchy, TARGET_CELL)
        session.attach_listener(
            TierSwitchingMobileShim(session.mobile, probe, coarse, fine)
        )
        session.run()
    return HierarchicalTrialResult(
        success=probe.done,
        dwells=probe.dwells,
        stage_reached=probe.stage,
        seed=seed,
    )


def run_exhaustive_trial(
    seed: int, scenario: str, deadline_s: float
) -> HierarchicalTrialResult:
    """Exhaustive narrow-beam search baseline: one Fig. 2a search trial."""
    result = run_search_trial("narrow", scenario, seed, deadline_s)
    return HierarchicalTrialResult(
        success=result.success, dwells=result.dwells, stage_reached=0, seed=seed
    )


# ----------------------------------------------------------- experiment kind
def _decode_strategy(payload: dict) -> HierarchicalTrialResult:
    return HierarchicalTrialResult(**payload)


def strategy_headline(trials) -> dict:
    """The search headline of one strategy arm, plus ``stage2_reached``.

    ``stage2_reached`` counts the trials whose coarse stage detected the
    cell and moved on to refinement (always 0 for the exhaustive arm).
    """
    return {
        **search_headline(trials),
        "stage2_reached": sum(1 for t in trials if t.stage_reached == 2),
    }


@register_experiment(
    "hierarchical",
    decode=_decode_strategy,
    headline=strategy_headline,
    columns=SEARCH_COLUMNS + (("stage2 reached", "stage2_reached"),),
    axis="custom",
    protocol_axis="search strategy",
    protocol_names=lambda: SEARCH_STRATEGIES,
    default_protocols=SEARCH_STRATEGIES,
    description="exhaustive vs two-stage (coarse->fine) neighbor search",
    duration_param="deadline_s",
)
def _run_strategy_cell(cell) -> dict:
    deadline_s = float(cell.params.get("deadline_s", 1.0))
    if cell.protocol == "exhaustive":
        result = run_exhaustive_trial(cell.seed, cell.scenario, deadline_s)
    else:
        result = run_hierarchical_trial(
            seed=cell.seed,
            scenario=cell.scenario,
            deadline_s=deadline_s,
            coarse_deg=float(cell.params.get("coarse_deg", 60.0)),
            fine_deg=float(cell.params.get("fine_deg", 20.0)),
        )
    return dataclasses.asdict(result)


def strategy_spec(n_trials: int = 20, base_seed: int = 3000) -> CampaignSpec:
    """Exhaustive-vs-hierarchical as a campaign grid (strategy x seed).

    Every trial searches on the walk scenario with a 1 s deadline.
    """
    return CampaignSpec(
        name="hierarchical",
        experiment="hierarchical",
        scenarios=("walk",),
        protocols=SEARCH_STRATEGIES,
        seeds=n_trials,
        base_seed=base_seed,
        params={"deadline_s": 1.0},
    )
