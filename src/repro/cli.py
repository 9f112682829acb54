"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``        one narrated soft-handover run (the quickstart).
``fig2a``       reproduce Fig. 2a (search latency + success rate).
``fig2c``       reproduce Fig. 2c (completion-time CDFs).
``compare``     Silent Tracker vs reactive vs oracle.
``fsm``         print the Fig. 2b state machine (ASCII or DOT).
``report``      full markdown reproduction report.
``list``        print the plugin registries (protocols, scenarios,
                codebooks, experiments) and the declared ``REPRO_*``
                switch table, ``--json`` for machines.
``lint``        AST-based determinism-contract linter (rules
                DET001–DET006: wall-clock reads, ad-hoc RNG, ordering
                hazards, raw switch reads, stream-key typos, mutable
                state); exits 1 on findings, ``--baseline`` subtracts
                grandfathered ones.
``campaign``    parallel experiment campaigns with persistent
                artifacts: ``run`` / ``resume`` / ``summarize``.
``fleet``       population-scale multi-UE runs: ``run`` / ``summarize``
                (fleet CDFs over N users, canonical JSON artifacts).
``bench``       performance benchmarks: ``--suite phy`` (vectorized
                PHY primitives and burst macros -> ``BENCH_phy.json``) or
                ``--suite fleet`` (users-vs-wall-time scaling ->
                ``BENCH_fleet.json``); ``--compare`` gates medians
                against a committed baseline.
``obs``         observability: ``export`` (Chrome trace JSON for
                Perfetto), ``top`` (hottest spans of a telemetry
                artifact or ledger run), ``diff`` (compare two runs),
                ``gate`` (disabled-telemetry overhead vs a bench
                baseline), ``history`` (the append-only run ledger),
                ``regress`` (tolerance-gated span/duration comparison
                of two ledger runs).

``--log-level`` / ``-v`` (global, before the command) control stdlib
logging on the ``repro`` logger; ``--telemetry`` on ``campaign run`` /
``campaign resume`` / ``fleet run`` collects wall-clock span/counter
summaries as sidecar artifacts without touching the deterministic
outputs.

Every ``campaign run/resume``, ``fleet run``, and ``bench`` invocation
appends one entry (run ID, argv, content hashes, duration, status,
telemetry summary, resources) to the run ledger — default
``.repro/runs.jsonl``, redirected with ``--ledger FILE``, disabled
with ``--no-ledger``.  ``fleet run --shards K --monitor`` adds worker
heartbeats (events/s, RSS/CPU) and straggler warnings; ``--watch``
collapses progress into one live status line.  None of this touches
the deterministic artifacts.

Unknown protocol / scenario / codebook / experiment names exit with
status 2 and a message listing the registered choices.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.stats import empirical_cdf
from repro.analysis.tables import format_cdf_series, format_table
from repro.bench.harness import BenchError
from repro.campaign.runner import CampaignError
from repro.campaign.spec import SpecError
from repro.campaign.store import StoreError
from repro.lint.findings import LintError
from repro.util.switches import SwitchError
from repro.obs import ObsError, configure_logging
from repro.registry import (
    CODEBOOKS,
    EXPERIMENTS,
    PROTOCOLS,
    SCENARIOS,
    RegistryError,
    entry_description,
)

#: The ``repro list`` sections, in display order: the four public
#: plugin registries plus the declared ``REPRO_*`` switch table.
_REGISTRY_SECTIONS = (
    "protocols", "scenarios", "codebooks", "experiments", "switches"
)


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.api import Session, TrialSpec

    try:
        spec = TrialSpec(
            scenario=args.scenario,
            protocol="silent-tracker",
            seed=args.seed,
            duration_s=args.duration,
        )
    except ValueError as error:
        # A bad --scenario or --duration is a user error: exit 2.
        raise SpecError(str(error)) from error
    with Session(spec) as session:
        protocol = session.attach_protocol()
        session.run()
    print(f"final serving cell: {session.mobile.connection.serving_cell}")
    for record in protocol.handover_log.records:
        if record.complete_s is None:
            continue
        print(
            f"{record.source_cell} -> {record.target_cell}: "
            f"{record.outcome.value}, interruption "
            f"{record.interruption_s * 1000:.0f} ms"
        )
    return 0


def _cmd_fig2a(args: argparse.Namespace) -> int:
    from repro.campaign.aggregate import arm_headlines, headline_table
    from repro.campaign.runner import run_campaign
    from repro.experiments.fig2a import fig2a_spec

    spec = fig2a_spec(
        n_trials=args.trials, scenario=args.scenario, base_seed=args.seed
    )
    headlines = arm_headlines(
        spec, run_campaign(spec, workers=args.workers).results_in_order(),
        "protocol",
    )
    print(
        format_table(
            *headline_table(
                ("codebook",), headlines, EXPERIMENTS.get("search").columns
            ),
            title=f"Fig. 2a ({args.scenario}, {args.trials} trials)",
        )
    )
    return 0


def _cmd_fig2c(args: argparse.Namespace) -> int:
    from repro.campaign.aggregate import arm_headlines, headline_table
    from repro.campaign.runner import run_campaign
    from repro.experiments.fig2c import fig2c_spec

    spec = fig2c_spec(n_trials=args.trials, base_seed=args.seed)
    headlines = arm_headlines(
        spec, run_campaign(spec, workers=args.workers).results_in_order(),
        "scenario",
    )
    print(
        format_table(
            *headline_table(
                ("scenario",), headlines, EXPERIMENTS.get("tracking").columns
            ),
            title=f"Fig. 2c ({args.trials} trials per scenario)",
        )
    )
    if args.cdf:
        series = {
            scenario: headline["completion_times_s"]
            for scenario, headline in headlines.items()
            if headline["completion_times_s"]
        }
        if series:
            from repro.analysis.plotting import ascii_cdf_plot

            print()
            print(ascii_cdf_plot(series, x_label="completion time (s)"))
        for scenario, times in series.items():
            xs, ps = empirical_cdf(times)
            print()
            print(format_cdf_series(scenario, xs, ps))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.campaign.aggregate import arm_headlines, headline_table
    from repro.campaign.runner import run_campaign
    from repro.experiments.comparison import comparison_spec

    spec = comparison_spec(
        scenario=args.scenario, n_trials=args.trials, base_seed=args.seed
    )
    headlines = arm_headlines(
        spec, run_campaign(spec, workers=args.workers).results_in_order(),
        "protocol",
    )
    columns = (
        ("completed", "completed_any"),
        ("soft ratio", "soft_per_resolved"),
        ("interruption (s)", "mean_first_interruption_s"),
    )
    print(
        format_table(
            *headline_table(("protocol",), headlines, columns),
            title=f"Baselines ({args.scenario}, {args.trials} trials)",
        )
    )
    return 0


def _cmd_fsm(args: argparse.Namespace) -> int:
    from repro.core.fsm_diagram import render_ascii, render_dot

    if args.dot:
        print(render_dot(include_guards=args.guards))
    else:
        print(render_ascii())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import generate_report

    text = generate_report(n_trials=args.trials, base_seed=args.seed)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _registry_records(section: str) -> List[dict]:
    """JSON-friendly rows for one registry section of ``repro list``."""
    if section == "protocols":
        return [
            {"name": name, "description": entry_description(factory)}
            for name, factory in PROTOCOLS.items()
        ]
    if section == "scenarios":
        return [
            {
                "name": scenario.name,
                "description": scenario.description,
                "duration_s": scenario.duration_s,
                "default_start_x": scenario.default_start_x,
            }
            for _, scenario in SCENARIOS.items()
        ]
    if section == "switches":
        from repro.util.switches import switch_records

        return switch_records()
    if section == "codebooks":
        return [
            {"name": name, "description": entry_description(factory)}
            for name, factory in CODEBOOKS.items()
        ]
    return [
        {
            "name": kind.name,
            "description": kind.description,
            "protocol_axis": kind.protocol_axis,
            "protocols": list(kind.protocol_names() or ()),
            "default_protocols": list(kind.default_protocols),
        }
        for _, kind in EXPERIMENTS.items()
    ]


def _cmd_list(args: argparse.Namespace) -> int:
    sections = [args.registry] if args.registry else list(_REGISTRY_SECTIONS)
    if args.json:
        payload = {section: _registry_records(section) for section in sections}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for section in sections:
        records = _registry_records(section)
        if section == "scenarios":
            headers = ["name", "duration (s)", "start x", "description"]
            rows = [
                [r["name"], r["duration_s"], r["default_start_x"], r["description"]]
                for r in records
            ]
        elif section == "switches":
            headers = ["name", "default", "values", "description"]
            rows = [
                [
                    r["name"],
                    r["default"],
                    "|".join(r["values"]) or r.get("hint", ""),
                    r["description"],
                ]
                for r in records
            ]
        elif section == "experiments":
            headers = ["name", "protocol axis", "arms", "description"]
            rows = [
                [
                    r["name"],
                    r["protocol_axis"],
                    ",".join(r["protocols"]),
                    r["description"],
                ]
                for r in records
            ]
        else:
            headers = ["name", "description"]
            rows = [[r["name"], r["description"]] for r in records]
        print(format_table(headers, rows, title=section))
        print()
    return 0


def _print_campaign_summary(spec, pairs, completed: int) -> None:
    from repro.campaign.aggregate import summarize_campaign

    headers, rows = summarize_campaign(spec, pairs)
    print(
        format_table(
            headers,
            rows,
            title=(
                f"campaign {spec.name!r} ({spec.experiment}, "
                f"{completed}/{spec.n_cells} cells)"
            ),
        )
    )


def _campaign_spec_from_args(args: argparse.Namespace):
    from repro.campaign.spec import CampaignSpec, load_spec

    if args.spec:
        return load_spec(args.spec)
    if not args.experiment:
        raise SystemExit("campaign run: provide --spec FILE or --experiment KIND")
    protocols = args.protocols or ",".join(
        EXPERIMENTS.get(args.experiment).default_protocols
    )
    return CampaignSpec(
        name=args.name,
        experiment=args.experiment,
        scenarios=tuple(s for s in args.scenarios.split(",") if s),
        protocols=tuple(p for p in protocols.split(",") if p),
        seeds=args.seeds,
        base_seed=args.base_seed,
    )


def _add_ledger_args(parser: argparse.ArgumentParser) -> None:
    """The run-ledger flags shared by every run-recording command."""
    parser.add_argument("--ledger", default=None, metavar="FILE",
                        help="run-ledger path (default .repro/runs.jsonl)")
    parser.add_argument("--no-ledger", action="store_true",
                        help="do not record this run in the ledger")


def _ledger_from_args(args: argparse.Namespace):
    from repro.obs.ledger import RunLedger

    if getattr(args, "no_ledger", False):
        return None
    return RunLedger(getattr(args, "ledger", None))


def _cli_command(args: argparse.Namespace) -> List[str]:
    """The effective argv recorded in ledger entries (set by main())."""
    return list(getattr(args, "cli_argv", None) or [])


def _resolve_summary(path_or_id: str, ledger_path) -> dict:
    """Telemetry summary from a file/dir path *or* a ledger run ID.

    An existing path wins; a bare token that matches a ledger run ID
    resolves to that entry's recorded telemetry summary.  Anything else
    falls through to the usual friendly missing-artifact error.
    """
    from pathlib import Path

    from repro.obs import load_telemetry
    from repro.obs.ledger import RunLedger

    if Path(path_or_id).exists():
        return load_telemetry(path_or_id)
    if "/" not in path_or_id and "\\" not in path_or_id:
        try:
            entry = RunLedger(ledger_path).find(path_or_id)
        except ObsError:
            entry = None
        if entry is not None:
            summary = entry.get("telemetry")
            if not summary:
                raise ObsError(
                    f"ledger run {entry['run_id']} recorded no telemetry "
                    "(re-run with --telemetry)"
                )
            return summary
    return load_telemetry(path_or_id)


def _print_telemetry_top(summary) -> None:
    from repro.obs import top_rows

    headers, rows = top_rows(summary, 10)
    print(format_table(headers, rows, title="hottest telemetry spans"))


def _fold_in_sidecar(artifact) -> None:
    """Fold a telemetry sidecar into a summarize view when one exists.

    ``artifact`` is a fleet artifact path (sidecar rides next to it) or
    a campaign out dir (sidecars live under ``<out>/telemetry/``).
    Runs without ``--telemetry`` leave no sidecar; stay silent then.
    """
    from pathlib import Path

    from repro.obs import ObsError, load_telemetry, sidecar_path

    path = Path(artifact)
    source = path if path.is_dir() else sidecar_path(path)
    try:
        summary = load_telemetry(source)
    except ObsError:
        return
    print(f"telemetry sidecar: {source}")
    _print_telemetry_top(summary)


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_lint

    return run_lint(args)


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign.progress import ConsoleProgress
    from repro.campaign.runner import run_campaign
    from repro.obs.ledger import record_run

    spec = _campaign_spec_from_args(args)
    with record_run(
        _ledger_from_args(args), "campaign", _cli_command(args),
        name=spec.name,
    ) as rec:
        rec.hashes = {"campaign": spec.spec_hash, "cells": spec.n_cells}
        result = run_campaign(
            spec,
            out_dir=args.out,
            workers=args.workers,
            resume=not args.no_resume,
            progress=None if args.quiet else ConsoleProgress(),
            telemetry=args.telemetry,
        )
        if result.out_dir is not None:
            rec.artifacts = str(result.out_dir)
        merged = result.merged_telemetry()
        rec.telemetry = merged
    _print_campaign_summary(
        spec, result.results_in_order(), len(result.payloads)
    )
    if args.out:
        print(f"artifacts in {result.out_dir}")
    if merged is not None:
        _print_telemetry_top(merged)
        if args.out:
            print(f"telemetry sidecars in {result.out_dir}/telemetry")
    return 0


def _cmd_campaign_resume(args: argparse.Namespace) -> int:
    from repro.campaign.progress import ConsoleProgress
    from repro.campaign.runner import resume_campaign
    from repro.obs.ledger import record_run

    with record_run(
        _ledger_from_args(args), "campaign-resume", _cli_command(args)
    ) as rec:
        rec.artifacts = str(args.out)
        result = resume_campaign(
            args.out,
            workers=args.workers,
            progress=None if args.quiet else ConsoleProgress(),
            telemetry=args.telemetry,
        )
        rec.name = result.spec.name
        rec.hashes = {
            "campaign": result.spec.spec_hash,
            "cells": result.spec.n_cells,
        }
        merged = result.merged_telemetry()
        rec.telemetry = merged
    _print_campaign_summary(
        result.spec, result.results_in_order(), len(result.payloads)
    )
    if merged is not None:
        _print_telemetry_top(merged)
    return 0


def _cmd_campaign_summarize(args: argparse.Namespace) -> int:
    from repro.campaign.aggregate import load_campaign

    spec, pairs = load_campaign(args.out)
    _print_campaign_summary(spec, pairs, len(pairs))
    _fold_in_sidecar(args.out)
    return 0


#: Default artifact path per bench suite.
_BENCH_DEFAULT_OUT = {"phy": "BENCH_phy.json", "fleet": "BENCH_fleet.json"}


def _print_bench_compare(comparisons, regressed, tolerance: float) -> None:
    rows = [
        [
            c.name,
            1000.0 * c.baseline_median_s,
            1000.0 * c.current_median_s,
            f"{c.ratio:.2f}x",
        ]
        for c in comparisons
    ]
    print(
        format_table(
            ["case", "baseline (ms)", "current (ms)", "ratio"],
            rows,
            title=f"baseline comparison (tolerance +{100.0 * tolerance:.0f}%)",
        )
    )
    if regressed:
        names = ", ".join(c.name for c in regressed)
        print(f"REGRESSION: {len(regressed)} case(s) slowed beyond "
              f"tolerance: {names}", file=sys.stderr)
    else:
        print("no regressions against baseline")


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import load_bench_json
    from repro.obs.ledger import record_run

    if args.compare_tolerance < 0.0:
        # Validate before the (multi-minute) suite runs, not after.
        print(
            f"error: --compare-tolerance must be non-negative, "
            f"got {args.compare_tolerance}",
            file=sys.stderr,
        )
        return 2
    if args.out is None:
        # A gating run (--compare) without an explicit --out would
        # resolve to the committed baseline file and silently overwrite
        # the artifact it gates against — write nothing instead.
        out = None if args.compare else _BENCH_DEFAULT_OUT[args.suite]
    else:
        out = args.out
    # Snapshot the baseline before the run: an explicit --out may still
    # point at the baseline file, and loading it after the run wrote
    # there would compare the run against itself.
    baseline = load_bench_json(args.compare) if args.compare else None
    with record_run(
        _ledger_from_args(args), "bench", _cli_command(args),
        name=f"bench-{args.suite}",
    ) as rec:
        rec.hashes = {"suite": args.suite}
        if out:
            rec.artifacts = str(out)
        status = _bench_execute(args, out, baseline)
        rec.meta["exit"] = status
    return status


def _bench_execute(args: argparse.Namespace, out, baseline) -> int:
    from repro.bench import (
        compare_payloads,
        incomparable_cases,
        regressions,
        run_bench,
        run_fleet_bench,
    )

    runner = run_fleet_bench if args.suite == "fleet" else run_bench
    payload = runner(
        quick=args.quick, out_path=out or None, repeats=args.repeats
    )
    rows = []
    for result in payload["results"]:
        rows.append(
            [
                result["name"],
                1000.0 * result["median_s"],
                1000.0 * result["iqr_s"],
                result["repeats"],
            ]
        )
    print(
        format_table(
            ["case", "median (ms)", "IQR (ms)", "repeats"],
            rows,
            title=f"{args.suite} bench ({'quick' if args.quick else 'full'})",
        )
    )
    derived = payload["derived"]
    for pair, factor in derived.get("speedups", {}).items():
        print(f"speedup {pair}: {factor:.2f}x")
    for case, factor in derived.get("telemetry_overhead", {}).items():
        print(f"telemetry overhead {case}: {factor:.2f}x")
    scaling = derived.get("worker_scaling") or {}
    if scaling:
        cpus = payload.get("cpu_count", "?")
        oversubscribed = set(derived.get("oversubscribed_workers", ()))
        detail = ", ".join(
            f"w{workers} {seconds:.2f}s"
            + (" (oversubscribed)" if int(workers) in oversubscribed else "")
            for workers, seconds in scaling.items()
        )
        print(
            f"sharded worker scaling @10^4 users ({cpus} usable cores): "
            f"{detail}"
        )
    rss = (derived.get("peak_rss") or {}).get("by_users") or {}
    for users, kb in rss.items():
        print(f"peak worker RSS @{users} users: {kb / 1024.0:.0f} MB")
    if "sharded_identical" in derived:
        print(
            "sharded merged artifact identical: "
            f"{derived['sharded_identical']}"
        )
    if out:
        print(f"wrote {out}")
    status = 0 if derived.get("sharded_identical", True) else 1
    if baseline is not None:
        comparisons = compare_payloads(payload, baseline)
        skipped = incomparable_cases(payload, baseline)
        if skipped:
            print(
                f"note: {len(skipped)} case(s) skipped — workload meta "
                f"differs from baseline (quick vs full?): "
                f"{', '.join(skipped)}",
                file=sys.stderr,
            )
        if not comparisons:
            print(
                "error: no comparable cases against baseline "
                f"{args.compare!r} — regression gate would be vacuous",
                file=sys.stderr,
            )
            return 2
        regressed = regressions(comparisons, args.compare_tolerance)
        _print_bench_compare(comparisons, regressed, args.compare_tolerance)
        if regressed:
            status = status or 1
    # Absolute timings stay informational; the command fails only on
    # harness errors, a broken determinism contract, or a baseline
    # regression beyond the tolerance.
    return status


def _print_fleet_summary(result, source: Optional[str] = None) -> None:
    """The ``repro fleet`` summary tables for one fleet result."""
    fleet = result.fleet
    totals = result.aggregates["totals"]
    summary = result.aggregates["summary"]
    title = (
        f"fleet {fleet.get('name', '?')!r} ({totals['users']} users, "
        f"{fleet.get('duration_s', '?')} s, seed {fleet.get('seed', '?')})"
    )
    if source:
        title += f" [{source}]"
    rows = []
    for label, key in (
        ("search latency (s)", "search_latency_s"),
        ("handover completion (s)", "completion_time_s"),
        ("handover rate (/min/user)", "handover_rate_per_min"),
        ("ping-pong rate (/min/user)", "ping_pong_rate_per_min"),
        ("outage fraction", "outage_fraction"),
    ):
        stats = summary[key]
        rows.append(
            [
                label,
                stats.get("count", 0),
                stats.get("mean", "-"),
                stats.get("p50", "-"),
                stats.get("p90", "-"),
            ]
        )
    print(format_table(["metric", "n", "mean", "p50", "p90"], rows, title=title))
    print(
        f"totals: {totals['bursts_measured']} bursts measured, "
        f"{totals['handovers_completed']} handovers "
        f"({totals['soft_handovers']} soft / {totals['hard_handovers']} hard / "
        f"{totals['handovers_failed']} failed), "
        f"{totals['ping_pongs']} ping-pongs"
    )


def _print_fleet_cdfs(result) -> None:
    from repro.analysis.plotting import ascii_cdf_plot

    for label, key in (
        ("search latency (s)", "search_latency_s"),
        ("completion time (s)", "completion_time_s"),
        ("outage fraction", "outage_fraction"),
    ):
        series = result.aggregates["cdf"].get(key)
        if not series:
            continue
        print()
        print(ascii_cdf_plot({label: series["xs"]}, x_label=label))


def _fleet_spec_from_args(args: argparse.Namespace):
    from repro.fleet import load_spec
    from repro.fleet.experiment import fleet_spec_for_cell

    if args.spec:
        return load_spec(args.spec)
    spec = fleet_spec_for_cell(
        args.mix,
        scenario=args.scenario,
        seed=args.seed,
        n_users=args.users,
        duration_s=args.duration,
        name=args.name,
        topology=args.topology,
        n_cells=args.cells,
        cell_pitch_m=args.pitch,
    )
    return spec


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    from repro.fleet import (
        ConsoleFleetProgress,
        run_fleet_sharded,
        run_fleet_trial,
        write_fleet_artifact,
    )
    from repro.obs import Telemetry, sidecar_path, use, write_telemetry
    from repro.obs import telemetry as telemetry_mod
    from repro.obs.ledger import record_run

    monitor = args.monitor or args.watch
    if monitor and args.shards is None:
        print(
            "error: --monitor/--watch require --shards (heartbeats ride "
            "the worker progress pipe)",
            file=sys.stderr,
        )
        return 2
    if args.watch and args.quiet:
        print("error: --watch conflicts with --quiet", file=sys.stderr)
        return 2
    if args.shards is None:
        if args.workers != 1:
            print(
                "error: --workers requires --shards (an unsharded fleet "
                "is one simulation)",
                file=sys.stderr,
            )
            return 2
        if args.stream:
            print("error: --stream requires --shards", file=sys.stderr)
            return 2

    spec = _fleet_spec_from_args(args)
    progress = None if args.quiet else ConsoleFleetProgress(watch=args.watch)
    ledger = _ledger_from_args(args)

    if args.shards is not None:
        # Sharded path: shards run like campaign cells on the worker
        # pool; --out becomes a directory (manifest + one artifact per
        # shard + merged fleet.json).  Shard-count validation
        # (shards < 1, shards > users) raises SpecError -> exit 2.
        with record_run(
            ledger, "fleet-sharded", _cli_command(args), name=spec.name
        ) as rec:
            rec.hashes = {"fleet": spec.fleet_hash, "shards": args.shards}
            sharded = run_fleet_sharded(
                spec,
                args.shards,
                out_dir=args.out,
                workers=args.workers,
                progress=progress,
                telemetry=args.telemetry,
                stream=True if args.stream else None,
                monitor=monitor,
            )
            if sharded.out_dir is not None:
                rec.artifacts = str(sharded.out_dir)
            merged = sharded.merged_telemetry()
            rec.telemetry = merged
        result = sharded.merged
        _print_fleet_summary(result)
        if args.cdf:
            _print_fleet_cdfs(result)
        if args.out:
            print(f"artifacts in {sharded.out_dir}")
        if merged is not None:
            _print_telemetry_top(merged)
        return 0

    with record_run(
        ledger, "fleet", _cli_command(args), name=spec.name
    ) as rec:
        rec.hashes = {"fleet": spec.fleet_hash}
        hub = Telemetry() if args.telemetry else telemetry_mod.DISABLED
        with use(hub):
            result = run_fleet_trial(spec, progress)
        summary = hub.summary() if args.telemetry else None
        rec.telemetry = summary
        if args.out:
            rec.artifacts = str(args.out)
    _print_fleet_summary(result)
    if args.cdf:
        _print_fleet_cdfs(result)
    if args.out:
        path = write_fleet_artifact(result, args.out)
        print(f"wrote {path}")
    if summary is not None:
        _print_telemetry_top(summary)
        if args.out:
            side = write_telemetry(summary, sidecar_path(args.out))
            print(f"wrote {side}")
    return 0


def _cmd_fleet_summarize(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.fleet import load_fleet_artifact, load_sharded_fleet

    if Path(args.artifact).is_dir():
        result = load_sharded_fleet(args.artifact)
    else:
        result = load_fleet_artifact(args.artifact)
    _print_fleet_summary(result, source=args.artifact)
    if args.cdf:
        _print_fleet_cdfs(result)
    _fold_in_sidecar(args.artifact)
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    """Run a small fleet with span recording on; export a Chrome trace.

    Span intervals and simulated-time trace events only exist in a live
    run, so export *is* a run: the same flags as ``fleet run`` shape the
    workload, and the output opens directly in Perfetto
    (https://ui.perfetto.dev) or ``chrome://tracing``.
    """
    from repro.fleet import build_fleet, run_built_fleet
    from repro.obs import Telemetry, use, write_chrome_trace

    spec = _fleet_spec_from_args(args)
    hub = Telemetry(record_events=True, max_events=args.max_events)
    with use(hub):
        run = build_fleet(spec, trace=True)
        run_built_fleet(run)
    path = write_chrome_trace(args.out, hub, run.deployment.trace)
    summary = hub.summary()
    n_spans = sum(int(r["count"]) for r in summary["spans"].values())
    dropped = summary.get("dropped_events", 0)
    note = f" ({dropped} span events dropped at cap)" if dropped else ""
    print(f"wrote {path}: {n_spans} spans, "
          f"{len(run.deployment.trace.events)} trace events{note}")
    print("open in Perfetto (ui.perfetto.dev) or chrome://tracing")
    return 0


def _cmd_obs_top(args: argparse.Namespace) -> int:
    from repro.obs import counter_rows, filter_summary, top_rows

    summary = _resolve_summary(args.path, args.ledger)
    if args.events:
        # Engine's per-label instrumentation only: where simulated-event
        # time goes (sim.event.* spans) and what fires (sim.events.*).
        summary = filter_summary(summary, "sim.event.", "sim.events.")
        headers, rows = top_rows(summary, args.limit)
        print(format_table(
            headers, rows, title=f"hottest event spans [{args.path}]"
        ))
        headers, rows = counter_rows(summary, args.limit)
        print()
        print(format_table(headers, rows, title="event counters (sim.events.*)"))
        return 0
    headers, rows = top_rows(summary, args.limit)
    print(format_table(headers, rows, title=f"hottest spans [{args.path}]"))
    if args.counters:
        headers, rows = counter_rows(summary, args.limit)
        print()
        print(format_table(headers, rows, title="counters"))
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from repro.obs import diff_rows

    summary_a = _resolve_summary(args.a, args.ledger)
    summary_b = _resolve_summary(args.b, args.ledger)
    headers, rows = diff_rows(summary_a, summary_b, args.limit)
    print(
        format_table(
            headers, rows, title=f"telemetry diff: A={args.a} B={args.b}"
        )
    )
    return 0


def _cmd_obs_history(args: argparse.Namespace) -> int:
    from repro.obs.ledger import RunLedger, format_when

    ledger = RunLedger(args.ledger)
    entries, corrupt = ledger.scan()
    if corrupt:
        print(
            f"warning: skipped {corrupt} corrupt ledger line(s) in "
            f"{ledger.path}",
            file=sys.stderr,
        )
    if args.limit is not None and args.limit > 0:
        entries = entries[-args.limit:]
    if args.json:
        print(json.dumps(entries, indent=2, sort_keys=True))
        return 0
    if not entries:
        print(
            f"no runs recorded in {ledger.path} (campaign/fleet/bench "
            "runs append there automatically)"
        )
        return 0
    rows = []
    for entry in entries:
        hashes = entry.get("hashes") or {}
        content = (
            hashes.get("fleet")
            or hashes.get("campaign")
            or hashes.get("suite")
            or "-"
        )
        duration = entry.get("duration_s")
        rows.append(
            [
                entry.get("run_id", "-"),
                format_when(entry["started_at"])
                if entry.get("started_at")
                else "-",
                entry.get("kind", "-"),
                entry.get("name", "-"),
                content,
                f"{duration:.2f}"
                if isinstance(duration, (int, float))
                else "-",
                entry.get("status", "-"),
            ]
        )
    print(
        format_table(
            ["run", "when (UTC)", "kind", "name", "hash", "wall (s)",
             "status"],
            rows,
            title=f"run ledger [{ledger.path}]",
        )
    )
    return 0


def _cmd_obs_regress(args: argparse.Namespace) -> int:
    from repro.obs import diff_rows
    from repro.obs.ledger import RunLedger, regress_failures

    if args.tolerance < 0.0:
        print("error: --tolerance must be non-negative", file=sys.stderr)
        return 2
    ledger = RunLedger(args.ledger)
    if args.last is not None:
        if args.a or args.b:
            print(
                "error: give two run ids or --last N, not both",
                file=sys.stderr,
            )
            return 2
        if args.last < 2:
            print("error: --last must be >= 2", file=sys.stderr)
            return 2
        window = ledger.last(args.last)
        if len(window) < 2:
            raise ObsError(
                f"need at least 2 recorded runs in {ledger.path}, "
                f"have {len(window)}"
            )
        entry_a, entry_b = window[0], window[-1]
    else:
        if not (args.a and args.b):
            print(
                "error: obs regress needs <run-a> <run-b> or --last N",
                file=sys.stderr,
            )
            return 2
        entry_a = ledger.find(args.a)
        entry_b = ledger.find(args.b)
    for label, entry in (("A", entry_a), ("B", entry_b)):
        duration = entry.get("duration_s")
        wall = (
            f"{duration:.2f}s"
            if isinstance(duration, (int, float))
            else "?"
        )
        print(
            f"{label}: {entry.get('run_id', '?')} "
            f"[{entry.get('kind', '?')}] {entry.get('name', '?')!r} "
            f"{wall} ({entry.get('status', '?')})"
        )
    if (entry_a.get("hashes") or {}) != (entry_b.get("hashes") or {}):
        print("note: runs have different content hashes — comparing "
              "different workloads")
    telemetry_a = entry_a.get("telemetry")
    telemetry_b = entry_b.get("telemetry")
    if telemetry_a and telemetry_b:
        headers, rows = diff_rows(telemetry_a, telemetry_b, args.limit)
        print(format_table(headers, rows, title="span comparison (B/A)"))
    else:
        print("note: span comparison skipped (a run recorded no "
              "telemetry; use --telemetry)")
    failures = regress_failures(entry_a, entry_b, args.tolerance)
    if failures:
        print(
            f"REGRESSION: {len(failures)} measure(s) slowed beyond "
            f"+{100.0 * args.tolerance:.0f}%: {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    print(f"no regression (tolerance +{100.0 * args.tolerance:.0f}%)")
    return 0


def _cmd_obs_gate(args: argparse.Namespace) -> int:
    from repro.bench import run_overhead_gate

    record = run_overhead_gate(
        args.baseline,
        tolerance=args.tolerance,
        repeats=args.repeats,
    )
    print(
        f"{record['case']}: baseline "
        f"{1000.0 * record['baseline_median_s']:.1f} ms, "
        f"disabled-telemetry {1000.0 * record['current_median_s']:.1f} ms "
        f"({record['ratio']:.3f}x, tolerance "
        f"+{100.0 * record['tolerance']:.0f}%)"
    )
    if record["passed"]:
        print("overhead gate passed")
        return 0
    print(
        "OVERHEAD REGRESSION: disabled telemetry slowed the macro beyond "
        "tolerance",
        file=sys.stderr,
    )
    return 1


def _add_fleet_shape_args(parser: argparse.ArgumentParser) -> None:
    """The flags that define a fleet workload (shared with ``obs export``)."""
    parser.add_argument("--spec", default=None,
                        help="FleetSpec JSON file (overrides the flags)")
    parser.add_argument("--name", default="fleet")
    parser.add_argument("--users", type=int, default=16,
                        help="population size")
    parser.add_argument("--scenario", default="walk",
                        help="base mobility scenario "
                             "(see `repro list scenarios`)")
    parser.add_argument("--mix", default="uniform",
                        help="profile mix: uniform, mobility-blend, "
                             "codebook-split")
    parser.add_argument("--duration", type=float, default=4.0,
                        help="simulated seconds")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--topology", default="street",
                        choices=("street", "corridor"),
                        help="street = the paper's 3-cell grid; corridor = "
                             "a dense linear deployment (--cells stations)")
    parser.add_argument("--cells", type=int, default=None,
                        help="station count (corridor topology; default 64)")
    parser.add_argument("--pitch", type=float, default=50.0,
                        help="corridor cell spacing in meters")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Silent Tracker (SIGCOMM '21) reproduction toolkit",
    )
    parser.add_argument(
        "--log-level", default=None,
        choices=("debug", "info", "warning", "error", "critical"),
        help="stdlib logging level for the 'repro' logger "
             "(default warning)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="increase log verbosity (-v info, -vv debug); "
             "--log-level wins when both are given",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Scenario/experiment names are validated against the registries by
    # the command handlers (unknown names exit 2 listing the choices),
    # not via argparse `choices`: evaluating the registries here would
    # import every experiment module just to print --help, and would
    # lock out plugin arms registered after parser construction.
    demo = sub.add_parser("demo", help="run one soft-handover demo")
    demo.add_argument("--scenario", default="walk",
                      help="registered scenario (see `repro list scenarios`)")
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument("--duration", type=float, default=6.0)
    demo.set_defaults(func=_cmd_demo)

    fig2a = sub.add_parser("fig2a", help="reproduce Fig. 2a")
    fig2a.add_argument("--trials", type=int, default=20)
    fig2a.add_argument("--scenario", default="walk",
                       help="registered scenario (see `repro list scenarios`)")
    fig2a.add_argument("--seed", type=int, default=100)
    fig2a.add_argument("--workers", type=int, default=1)
    fig2a.set_defaults(func=_cmd_fig2a)

    fig2c = sub.add_parser("fig2c", help="reproduce Fig. 2c")
    fig2c.add_argument("--trials", type=int, default=20)
    fig2c.add_argument("--seed", type=int, default=200)
    fig2c.add_argument("--workers", type=int, default=1)
    fig2c.add_argument("--cdf", action="store_true",
                       help="print the CDF series too")
    fig2c.set_defaults(func=_cmd_fig2c)

    compare = sub.add_parser("compare", help="protocols head to head")
    compare.add_argument("--scenario", default="vehicular",
                         help="registered scenario (see `repro list scenarios`)")
    compare.add_argument("--trials", type=int, default=10)
    compare.add_argument("--seed", type=int, default=700)
    compare.add_argument("--workers", type=int, default=1)
    compare.set_defaults(func=_cmd_compare)

    fsm = sub.add_parser("fsm", help="print the Fig. 2b state machine")
    fsm.add_argument("--dot", action="store_true", help="emit graphviz DOT")
    fsm.add_argument("--guards", action="store_true",
                     help="annotate edges with threshold conditions")
    fsm.set_defaults(func=_cmd_fsm)

    report = sub.add_parser("report", help="full reproduction report")
    report.add_argument("--trials", type=int, default=20)
    report.add_argument("--seed", type=int, default=5000)
    report.add_argument("--output", default=None,
                        help="write markdown here instead of stdout")
    report.set_defaults(func=_cmd_report)

    list_cmd = sub.add_parser(
        "list",
        help="print the plugin registries (protocols, scenarios, ...)",
    )
    list_cmd.add_argument("registry", nargs="?", default=None,
                          choices=_REGISTRY_SECTIONS,
                          help="print one section instead of all five "
                               "(four registries + the REPRO_* switch "
                               "table)")
    list_cmd.add_argument("--json", action="store_true",
                          help="machine-readable output")
    list_cmd.set_defaults(func=_cmd_list)

    lint = sub.add_parser(
        "lint",
        help="AST-based determinism-contract linter (DET001-DET006)",
    )
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable findings payload")
    lint.add_argument("--baseline", nargs="?", default=None,
                      const="lint-baseline.json", metavar="FILE",
                      help="subtract grandfathered findings recorded in "
                           "FILE (default lint-baseline.json)")
    lint.add_argument("--write-baseline", nargs="?", default=None,
                      const="lint-baseline.json", metavar="FILE",
                      help="regenerate the baseline from the current "
                           "tree instead of gating")
    lint.set_defaults(func=_cmd_lint)

    campaign = sub.add_parser(
        "campaign",
        help="parallel experiment campaigns with persistent artifacts",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command",
                                           required=True)

    run = campaign_sub.add_parser("run", help="run a campaign grid")
    run.add_argument("--spec", default=None,
                     help="campaign spec JSON file (overrides grid flags)")
    run.add_argument("--name", default="campaign",
                     help="campaign name when built from flags")
    run.add_argument("--experiment", default=None,
                     help="experiment kind when no --spec is given "
                          "(see `repro list experiments`)")
    run.add_argument("--scenarios", default="walk,rotation,vehicular",
                     help="comma-separated mobility scenarios")
    run.add_argument("--protocols", default=None,
                     help="comma-separated protocol arms "
                          "(default depends on --experiment)")
    run.add_argument("--seeds", type=int, default=6,
                     help="trials per (scenario, protocol, override) arm")
    run.add_argument("--base-seed", type=int, default=0)
    run.add_argument("--out", default=None,
                     help="artifact directory (omit for in-memory run)")
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes (results identical to serial)")
    run.add_argument("--no-resume", action="store_true",
                     help="re-run cells even when artifacts exist")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-cell progress lines")
    run.add_argument("--telemetry", action="store_true",
                     help="collect per-cell wall-clock telemetry "
                          "(sidecars under <out>/telemetry/; cell "
                          "artifacts stay byte-identical)")
    _add_ledger_args(run)
    run.set_defaults(func=_cmd_campaign_run)

    resume = campaign_sub.add_parser(
        "resume", help="finish the campaign recorded in --out"
    )
    resume.add_argument("--out", required=True,
                        help="artifact directory with a campaign manifest")
    resume.add_argument("--workers", type=int, default=1)
    resume.add_argument("--quiet", action="store_true")
    resume.add_argument("--telemetry", action="store_true",
                        help="collect per-cell wall-clock telemetry")
    _add_ledger_args(resume)
    resume.set_defaults(func=_cmd_campaign_resume)

    summarize_cmd = campaign_sub.add_parser(
        "summarize", help="aggregate completed artifacts in --out"
    )
    summarize_cmd.add_argument("--out", required=True,
                               help="artifact directory with a campaign "
                                    "manifest")
    summarize_cmd.set_defaults(func=_cmd_campaign_summarize)

    fleet = sub.add_parser(
        "fleet",
        help="population-scale multi-UE runs (fleet CDFs over N users)",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_run = fleet_sub.add_parser("run", help="run one fleet")
    _add_fleet_shape_args(fleet_run)
    fleet_run.add_argument("--shards", type=int, default=None,
                           help="partition the population into N shards "
                                "and run them on the campaign worker "
                                "pool (--out becomes a directory)")
    fleet_run.add_argument("--workers", type=int, default=1,
                           help="worker processes for --shards runs")
    fleet_run.add_argument("--stream", action="store_true",
                           help="force streaming aggregation (drop "
                                "per-user results; bounded reservoirs); "
                                "default: auto above "
                                "10^4 users")
    fleet_run.add_argument("--out", default=None,
                           help="write the canonical JSON artifact here")
    fleet_run.add_argument("--cdf", action="store_true",
                           help="print the fleet CDF plots too")
    fleet_run.add_argument("--quiet", action="store_true",
                           help="suppress build/run progress lines")
    fleet_run.add_argument("--telemetry", action="store_true",
                           help="collect wall-clock telemetry "
                                "(<out stem>.telemetry.json sidecar, or "
                                "<out>/telemetry/ with --shards; the "
                                "artifact stays byte-identical)")
    fleet_run.add_argument("--monitor", action="store_true",
                           help="live monitoring for --shards runs: "
                                "worker heartbeats (events/s, RSS/CPU) "
                                "and straggler warnings; thresholds via "
                                "REPRO_HEARTBEAT_S / REPRO_STALL_S")
    fleet_run.add_argument("--watch", action="store_true",
                           help="single live status line instead of "
                                "scrolling progress (implies --monitor)")
    _add_ledger_args(fleet_run)
    fleet_run.set_defaults(func=_cmd_fleet_run)

    fleet_sum = fleet_sub.add_parser(
        "summarize", help="summarize a fleet artifact"
    )
    fleet_sum.add_argument("--artifact", required=True,
                           help="fleet JSON written by `repro fleet run --out`")
    fleet_sum.add_argument("--cdf", action="store_true",
                           help="print the fleet CDF plots too")
    fleet_sum.set_defaults(func=_cmd_fleet_summarize)

    bench = sub.add_parser(
        "bench", help="performance benchmarks -> BENCH_<suite>.json"
    )
    bench.add_argument("--suite", default="phy", choices=("phy", "fleet"),
                       help="phy: burst-path micro/macro cases; "
                            "fleet: users-vs-wall-time scaling")
    bench.add_argument("--quick", action="store_true",
                       help="trimmed repeats/workloads for CI smoke runs")
    bench.add_argument("--out", default=None,
                       help="artifact path (default BENCH_<suite>.json; "
                            "use '' to skip writing)")
    bench.add_argument("--repeats", type=int, default=None,
                       help="override samples per case")
    bench.add_argument("--compare", default=None, metavar="BASELINE",
                       help="diff medians against a committed bench JSON "
                            "and exit non-zero on regression")
    bench.add_argument("--compare-tolerance", type=float, default=0.20,
                       help="allowed median slowdown before a case counts "
                            "as regressed (0.20 = +20%%)")
    _add_ledger_args(bench)
    bench.set_defaults(func=_cmd_bench)

    obs = sub.add_parser(
        "obs",
        help="observability: Chrome trace export, span rankings, "
             "run diffs, overhead gate, run ledger history/regress",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    obs_export = obs_sub.add_parser(
        "export",
        help="run a fleet with span recording and write Chrome "
             "trace-event JSON (Perfetto / chrome://tracing)",
    )
    _add_fleet_shape_args(obs_export)
    obs_export.add_argument("--out", default="trace.json",
                            help="trace-event JSON output path")
    obs_export.add_argument("--max-events", type=int, default=200_000,
                            help="span-interval recording cap "
                                 "(excess intervals are dropped, "
                                 "aggregates stay exact)")
    obs_export.set_defaults(func=_cmd_obs_export)

    obs_top = obs_sub.add_parser(
        "top", help="hottest spans of a telemetry artifact"
    )
    obs_top.add_argument("path",
                         help="telemetry summary JSON, a campaign "
                              "directory (per-cell summaries merged), "
                              "or a ledger run ID")
    obs_top.add_argument("--limit", type=int, default=15,
                         help="rows to show")
    obs_top.add_argument("--ledger", default=None, metavar="FILE",
                         help="ledger for run-ID lookups "
                              "(default .repro/runs.jsonl)")
    obs_top.add_argument("--counters", action="store_true",
                         help="print the counter table too")
    obs_top.add_argument("--events", action="store_true",
                         help="engine view: hottest sim.event.* spans and "
                              "sim.events.* fire counters only")
    obs_top.set_defaults(func=_cmd_obs_top)

    obs_diff = obs_sub.add_parser(
        "diff", help="span-by-span comparison of two telemetry artifacts"
    )
    obs_diff.add_argument("a", help="baseline telemetry artifact or "
                               "ledger run ID (A)")
    obs_diff.add_argument("b", help="candidate telemetry artifact or "
                               "ledger run ID (B)")
    obs_diff.add_argument("--limit", type=int, default=None,
                          help="rows to show (default all)")
    obs_diff.add_argument("--ledger", default=None, metavar="FILE",
                          help="ledger for run-ID lookups "
                               "(default .repro/runs.jsonl)")
    obs_diff.set_defaults(func=_cmd_obs_diff)

    obs_history = obs_sub.add_parser(
        "history",
        help="list recorded runs from the append-only run ledger",
    )
    obs_history.add_argument("--ledger", default=None, metavar="FILE",
                             help="ledger path "
                                  "(default .repro/runs.jsonl)")
    obs_history.add_argument("--limit", type=int, default=20,
                             help="most recent N runs (0 = all)")
    obs_history.add_argument("--json", action="store_true",
                             help="machine-readable entries")
    obs_history.set_defaults(func=_cmd_obs_history)

    obs_regress = obs_sub.add_parser(
        "regress",
        help="tolerance-gated duration/span comparison of two ledger "
             "runs; exits 1 on regression",
    )
    obs_regress.add_argument("a", nargs="?", default=None,
                             help="baseline run ID (A)")
    obs_regress.add_argument("b", nargs="?", default=None,
                             help="candidate run ID (B)")
    obs_regress.add_argument("--last", type=int, default=None, metavar="N",
                             help="compare the oldest vs newest of the "
                                  "last N recorded runs (e.g. --last 2)")
    obs_regress.add_argument("--tolerance", type=float, default=0.25,
                             help="allowed slowdown before a measure "
                                  "counts as regressed (0.25 = +25%%)")
    obs_regress.add_argument("--limit", type=int, default=10,
                             help="span-comparison rows to show")
    obs_regress.add_argument("--ledger", default=None, metavar="FILE",
                             help="ledger path "
                                  "(default .repro/runs.jsonl)")
    obs_regress.set_defaults(func=_cmd_obs_regress)

    obs_gate = obs_sub.add_parser(
        "gate",
        help="fail when disabled telemetry slows the burst-heavy macro "
             "beyond tolerance vs a committed bench baseline",
    )
    obs_gate.add_argument("--baseline", default="BENCH_phy.json",
                          help="committed bench artifact to gate against")
    obs_gate.add_argument("--tolerance", type=float, default=0.02,
                          help="allowed median slowdown (0.02 = +2%%)")
    obs_gate.add_argument("--repeats", type=int, default=None,
                          help="override samples (default: baseline's)")
    obs_gate.set_defaults(func=_cmd_obs_gate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The effective argv, recorded verbatim in run-ledger entries.
    args.cli_argv = list(argv) if argv is not None else list(sys.argv[1:])
    configure_logging(level=args.log_level, verbosity=args.verbose)
    try:
        return args.func(args)
    except (
        BenchError,
        CampaignError,
        LintError,
        ObsError,
        SwitchError,
        RegistryError,
        SpecError,
        StoreError,
        OSError,
        json.JSONDecodeError,
    ) as error:
        # Operational errors (unknown registry name, bad spec, wrong
        # directory, failed cells, missing or malformed input files)
        # are user-facing: a message listing the valid choices beats a
        # traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
