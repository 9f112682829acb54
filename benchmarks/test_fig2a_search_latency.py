"""FIG2A-LAT: Fig. 2a left panel — search latency (number of beam searches).

Paper shape: narrow (20 deg) beams need more beam searches than wide
(60 deg) beams, because the receive codebook is 3x larger and one beam
is tried per SSB burst.
"""

from repro.analysis.stats import summarize
from repro.analysis.tables import format_table
from repro.campaign.aggregate import arm_headlines
from repro.campaign.runner import run_campaign
from repro.experiments.fig2a import fig2a_spec


def reproduce(n_trials):
    spec = fig2a_spec(
        n_trials=n_trials,
        scenario="walk",
        base_seed=1000,
        codebooks=("narrow", "wide"),
    )
    return arm_headlines(spec, run_campaign(spec).results_in_order(), "protocol")


def test_fig2a_search_latency(benchmark, trial_count):
    results = benchmark.pedantic(
        reproduce, args=(trial_count,), iterations=1, rounds=1
    )
    rows = []
    latencies = {kind: summarize(h["dwells"]) for kind, h in results.items()}
    for kind in ("narrow", "wide"):
        latency = latencies[kind]
        rows.append(
            [
                kind,
                latency["count"],
                latency["mean"],
                latency["p50"],
                latency["p90"],
            ]
        )
    print()
    print(
        format_table(
            ["codebook", "successes", "mean dwells", "p50", "p90"],
            rows,
            title="Fig. 2a (left): search latency under human walk",
        )
    )
    narrow = latencies["narrow"]
    wide = latencies["wide"]
    # The paper's ordering: narrow search costs more dwells.
    assert narrow["p50"] > wide["p50"]
    assert narrow["count"] > 0 and wide["count"] > 0
