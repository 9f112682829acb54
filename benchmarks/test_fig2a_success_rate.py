"""FIG2A-SUC: Fig. 2a right panel — search success rate (%).

Paper shape: narrow > wide >> omni.  Narrow beams carry enough gain to
keep the neighbor's SSB above the detection floor at the cell edge; the
omnidirectional/single-antenna mobile hears almost nothing.
"""

from repro.analysis.stats import wilson_interval
from repro.analysis.tables import format_table
from repro.campaign.aggregate import arm_headlines
from repro.campaign.runner import run_campaign
from repro.experiments.fig2a import fig2a_spec


def reproduce(n_trials):
    spec = fig2a_spec(
        n_trials=n_trials,
        scenario="walk",
        base_seed=1100,
        codebooks=("narrow", "wide", "omni"),
    )
    return arm_headlines(spec, run_campaign(spec).results_in_order(), "protocol")


def test_fig2a_success_rate(benchmark, trial_count):
    results = benchmark.pedantic(
        reproduce, args=(trial_count,), iterations=1, rounds=1
    )
    rows = []
    for kind in ("narrow", "wide", "omni"):
        rate = results[kind]["successes_per_trial"]
        low, high = wilson_interval(
            results[kind]["successes"], results[kind]["trials"]
        )
        rows.append([kind, 100.0 * rate, 100.0 * low, 100.0 * high])
    print()
    print(
        format_table(
            ["codebook", "success %", "ci low %", "ci high %"],
            rows,
            title="Fig. 2a (right): search success rate under human walk",
        )
    )
    narrow = results["narrow"]["successes_per_trial"]
    wide = results["wide"]["successes_per_trial"]
    omni = results["omni"]["successes_per_trial"]
    # The paper's ordering with a real gap over omni.
    assert narrow >= wide
    assert wide > omni
    assert narrow - omni > 0.5
