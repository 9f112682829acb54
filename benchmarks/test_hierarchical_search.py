"""Extension bench: exhaustive vs hierarchical neighbor search.

Context for the paper's design choice: Silent Tracker searches narrow
beams exhaustively.  Two-stage (wide -> narrow) search costs fewer
dwells when the coarse tier can detect — but the coarse tier has wide-
beam gain, so at the cell edge the first stage inherits Fig. 2a's
wide-beam failure mode.
"""

from repro.analysis.stats import summarize
from repro.analysis.tables import format_table
from repro.campaign.aggregate import arm_headlines
from repro.campaign.runner import run_campaign
from repro.experiments.hierarchical import strategy_spec


def reproduce(n_trials):
    spec = strategy_spec(n_trials=n_trials, base_seed=1700)
    return arm_headlines(spec, run_campaign(spec).results_in_order(), "protocol")


def test_hierarchical_search(benchmark, trial_count):
    results = benchmark.pedantic(
        reproduce, args=(trial_count,), iterations=1, rounds=1
    )
    latencies = {name: summarize(h["dwells"]) for name, h in results.items()}
    rows = []
    for name in ("exhaustive", "hierarchical"):
        latency = latencies[name]
        rows.append(
            [
                name,
                100.0 * results[name]["successes_per_trial"],
                latency["mean"] if latency["count"] else "-",
                latency["p90"] if latency["count"] else "-",
            ]
        )
    print()
    print(
        format_table(
            ["strategy", "success %", "mean dwells", "p90 dwells"],
            rows,
            title="Extension: exhaustive vs hierarchical search (walk)",
        )
    )
    # Exhaustive narrow search stays reliable at the cell edge.
    assert results["exhaustive"]["successes_per_trial"] >= 0.8
    # When hierarchical succeeds it is at least competitive in dwells.
    hier = latencies["hierarchical"]
    exhaustive = latencies["exhaustive"]
    if hier["count"] >= 5:
        assert hier["mean"] <= exhaustive["mean"] + 3.0
