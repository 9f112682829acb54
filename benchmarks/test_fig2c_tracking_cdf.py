"""FIG2C-CDF: Fig. 2c — CDF of soft-handover completion time.

Paper shape: for all three mobility scenarios (walk 1.4 m/s, rotation
120 deg/s, vehicular 20 mph) the tracker completes handover with the
beam still aligned, with completion times concentrated in the
0.4-1.8 s band.
"""

from repro.analysis.stats import cdf_at, empirical_cdf, summarize
from repro.analysis.tables import format_cdf_series, format_table
from repro.campaign.aggregate import arm_headlines
from repro.campaign.runner import run_campaign
from repro.experiments.fig2c import fig2c_spec


def reproduce(n_trials):
    spec = fig2c_spec(n_trials=n_trials, base_seed=1200)
    return arm_headlines(spec, run_campaign(spec).results_in_order(), "scenario")


def test_fig2c_tracking_cdf(benchmark, trial_count):
    results = benchmark.pedantic(
        reproduce, args=(trial_count,), iterations=1, rounds=1
    )
    print()
    rows = []
    for scenario in ("walk", "rotation", "vehicular"):
        data = results[scenario]
        times = data["completion_times_s"]
        summary = summarize(times)
        rows.append(
            [
                scenario,
                data["completed_per_trial"],
                data["soft_per_completed"],
                summary["p50"],
                summary["p90"],
                cdf_at(times, 1.8),
            ]
        )
    print(
        format_table(
            [
                "scenario",
                "completion",
                "soft rate",
                "p50 (s)",
                "p90 (s)",
                "CDF@1.8s",
            ],
            rows,
            title="Fig. 2c: soft-handover completion time (edge B -> msg4)",
        )
    )
    from repro.analysis.plotting import ascii_cdf_plot

    print()
    print(
        ascii_cdf_plot(
            {
                scenario: results[scenario]["completion_times_s"]
                for scenario in ("walk", "rotation", "vehicular")
            },
            x_label="completion time (s)",
        )
    )
    for scenario in ("walk", "rotation", "vehicular"):
        times = results[scenario]["completion_times_s"]
        xs, ps = empirical_cdf(times)
        print()
        print(format_cdf_series(scenario, xs, ps, points=8))

    for scenario in ("walk", "rotation", "vehicular"):
        data = results[scenario]
        # Silent Tracker succeeds in all three scenarios...
        assert data["completed_per_trial"] >= 0.8, scenario
        # ...softly (the whole point of the protocol)...
        assert data["soft_per_completed"] >= 0.6, scenario
        # ...on the sub-second-to-seconds timescale of the figure.
        assert summarize(data["completion_times_s"])["p50"] < 2.5, scenario
