"""ABL-PP: handover churn at the cell boundary vs time-to-trigger.

The Fig. 2b trigger (edge E) fires the instant smoothed RSS_N exceeds
RSS_S + T; at the boundary, shadowing makes that margin cross back and
forth and the mobile ping-pongs.  This bench parks a slow walker at the
equal-loss point and counts churn per NR-style time-to-trigger setting
(0 = the paper's minimal protocol).
"""

from repro.analysis.tables import format_table
from repro.experiments.pingpong import pingpong_headline, sweep_time_to_trigger


def reproduce(n_trials):
    return sweep_time_to_trigger(
        ttt_s_values=(0.0, 0.16, 0.48), n_trials=n_trials, base_seed=1900
    )


def test_ablation_pingpong(benchmark, trial_count):
    sweep = benchmark.pedantic(
        reproduce, args=(max(6, trial_count // 3),), iterations=1, rounds=1
    )
    summary = {
        label: pingpong_headline(trials) for label, trials in sweep.items()
    }
    rows = [
        [
            label,
            headline["handovers_per_trial"],
            headline["ping_pongs_per_trial"],
            headline["trials_with_ping_pong"],
        ]
        for label, headline in summary.items()
    ]
    print()
    print(
        format_table(
            ["time-to-trigger", "handovers/trial", "ping-pongs/trial",
             "trials w/ ping-pong"],
            rows,
            title="Ablation: boundary churn vs time-to-trigger",
        )
    )
    # TTT suppresses churn: strictly fewer handovers at 480 ms than at 0.
    assert (
        summary["ttt=480ms"]["handovers_per_trial"]
        < summary["ttt=0ms"]["handovers_per_trial"]
    )
    assert (
        summary["ttt=480ms"]["ping_pongs_per_trial"]
        <= summary["ttt=0ms"]["ping_pongs_per_trial"]
    )
