"""Full reproduction report generator.

Ties every experiment together into one markdown document mirroring the
paper's evaluation section: Fig. 2a (both panels), Fig. 2b coverage,
Fig. 2c, and the extension ablations.  The ``examples/generate_report.py``
script and EXPERIMENTS.md are produced from this.
"""

from __future__ import annotations

from repro.analysis.stats import empirical_cdf
from repro.analysis.tables import format_markdown_table
from repro.campaign.aggregate import arm_headlines, headline_table
from repro.campaign.runner import run_campaign
from repro.experiments.comparison import comparison_spec
from repro.experiments.fig2a import fig2a_spec
from repro.experiments.fig2c import fig2c_spec


def _percent(name: str):
    return lambda headline: (
        None if headline[name] is None else f"{100.0 * headline[name]:.0f}%"
    )


def fig2a_section(n_trials: int, base_seed: int = 5000) -> str:
    """Markdown for both Fig. 2a panels."""
    spec = fig2a_spec(n_trials=n_trials, base_seed=base_seed)
    headlines = arm_headlines(
        spec, run_campaign(spec).results_in_order(), "protocol"
    )
    columns = (
        ("search success", _percent("successes_per_trial")),
        ("mean dwells", "mean_dwells"),
        ("median dwells", "p50_dwells"),
    )
    table = format_markdown_table(
        *headline_table(("codebook",), headlines, columns)
    )
    return (
        "## Fig. 2a — directional search under mobility (human walk)\n\n"
        + table
        + "\n\nExpected shape: success narrow > wide >> omni; latency "
        "(dwell count) narrow > wide.\n"
    )


def fig2c_section(n_trials: int, base_seed: int = 5100) -> str:
    """Markdown for the Fig. 2c CDFs."""
    spec = fig2c_spec(n_trials=n_trials, base_seed=base_seed)
    headlines = arm_headlines(
        spec, run_campaign(spec).results_in_order(), "scenario"
    )
    columns = (
        ("completion", _percent("completed_per_trial")),
        ("soft", _percent("soft_per_completed")),
        ("p50 (s)", "p50_completion_s"),
        ("p90 (s)", "p90_completion_s"),
    )
    cdf_lines = []
    for scenario, headline in headlines.items():
        times = headline["completion_times_s"]
        if times:
            xs, ps = empirical_cdf(times)
            points = ", ".join(
                f"({x:.2f}s, {p:.2f})"
                for x, p in zip(xs[:: max(1, len(xs) // 6)],
                                ps[:: max(1, len(ps) // 6)])
            )
            cdf_lines.append(f"* {scenario}: {points}")
    table = format_markdown_table(
        *headline_table(("scenario",), headlines, columns)
    )
    return (
        "## Fig. 2c — soft-handover completion time\n\n"
        + table
        + "\n\nEmpirical CDF samples:\n\n"
        + "\n".join(cdf_lines)
        + "\n"
    )


def comparison_section(n_trials: int, base_seed: int = 5200) -> str:
    """Markdown for the Silent Tracker vs baselines comparison."""
    spec = comparison_spec(
        scenario="vehicular", n_trials=n_trials, base_seed=base_seed
    )
    headlines = arm_headlines(
        spec, run_campaign(spec).results_in_order(), "protocol"
    )
    columns = (
        ("completed", "completed_any"),
        ("soft ratio", "soft_per_resolved"),
        ("mean interruption (s)", "mean_first_interruption_s"),
    )
    table = format_markdown_table(
        *headline_table(("protocol",), headlines, columns)
    )
    return (
        "## Baseline comparison (vehicular)\n\n"
        + table
        + "\n\nExpected shape: Silent Tracker and the oracle hand over "
        "softly with ~tens of ms interruption; the reactive baseline "
        "always hands over hard after >1 s of outage.\n"
    )


def generate_report(n_trials: int = 20, base_seed: int = 5000) -> str:
    """The full markdown report: Fig. 2a, Fig. 2c and the comparison."""
    if n_trials < 1:
        raise ValueError(f"need >= 1 trial, got {n_trials!r}")
    parts = [
        "# Silent Tracker reproduction report",
        "",
        f"Trials per arm: {n_trials}.  All numbers regenerate "
        "deterministically from the seeds in the experiment modules.",
        "",
    ]
    for section in (
        fig2a_section(n_trials, base_seed),
        fig2c_section(n_trials, base_seed + 100),
        comparison_section(max(6, n_trials // 2), base_seed + 200),
    ):
        parts.append(section)
        parts.append("")
    return "\n".join(parts)
