"""Extension: Fig. 2a's search experiment across all three scenarios.

The poster reports the Human Walk panel; the same experiment under
device rotation and vehicular motion quantifies how much harder search
gets as angular dynamics speed up (rotation sweeps the whole codebook
past the cell every 3 s; the drive-by compresses the geometry change
into ~2 s).
"""

from repro.analysis.stats import summarize
from repro.analysis.tables import format_table
from repro.campaign.aggregate import arm_headlines
from repro.campaign.runner import run_campaign
from repro.experiments.fig2a import fig2a_spec


def reproduce(n_trials):
    results = {}
    for scenario in ("walk", "rotation", "vehicular"):
        spec = fig2a_spec(
            n_trials=n_trials,
            scenario=scenario,
            base_seed=2100,
            codebooks=("narrow", "wide"),
        )
        results[scenario] = arm_headlines(
            spec, run_campaign(spec).results_in_order(), "protocol"
        )
    return results


def test_fig2a_all_scenarios(benchmark, trial_count):
    results = benchmark.pedantic(
        reproduce, args=(max(10, trial_count // 2),), iterations=1, rounds=1
    )
    rows = []
    for scenario, per_codebook in results.items():
        for kind in ("narrow", "wide"):
            data = per_codebook[kind]
            latency = summarize(data["dwells"])
            rows.append(
                [
                    scenario,
                    kind,
                    100.0 * data["successes_per_trial"],
                    latency["mean"] if latency["count"] else "-",
                ]
            )
    print()
    print(
        format_table(
            ["scenario", "codebook", "success %", "mean dwells"],
            rows,
            title="Extension: search latency/success across all scenarios",
        )
    )
    # Narrow beams keep their success advantage in every scenario.
    for scenario, per_codebook in results.items():
        assert (
            per_codebook["narrow"]["successes_per_trial"]
            >= per_codebook["wide"]["successes_per_trial"] - 0.15
        ), scenario
        assert per_codebook["narrow"]["successes_per_trial"] >= 0.8, scenario
