"""The ``repro lint`` subcommand implementation.

Kept out of :mod:`repro.cli` so the argparse wiring stays thin and the
lint stack only imports when the command actually runs.

Exit codes (shared with the campaign/fleet CLI conventions):

* ``0`` — clean (no new findings, no stale baseline entry),
* ``1`` — findings, or a baseline entry for a linted module that
  matches fewer findings than its count (the baseline only shrinks),
* ``2`` — operational error (bad path, malformed baseline), reported as
  a one-line message, never a traceback.
"""

from __future__ import annotations

import json
from typing import List

from repro.lint.baseline import (
    apply_baseline,
    load_baseline,
    stale_entries,
    write_baseline,
)
from repro.lint.config import module_key
from repro.lint.engine import LintEngine
from repro.lint.findings import Finding, findings_payload


def run_lint(args) -> int:
    """Handler behind ``repro lint`` (raises ``LintError`` for exit 2)."""
    engine = LintEngine()
    files, findings = engine.lint_paths(args.paths)
    checked = len(files)

    if args.write_baseline is not None:
        target = write_baseline(findings, args.write_baseline)
        print(
            f"wrote {target}: {len(findings)} grandfathered finding(s) "
            f"from {checked} file(s)"
        )
        return 0

    stale = []
    if args.baseline is not None:
        counts = load_baseline(args.baseline)
        linted = {module_key(path) for path in files}
        stale = stale_entries(findings, counts, linted)
        findings = apply_baseline(findings, counts)

    if args.json:
        payload = findings_payload(findings, checked)
        payload["stale_baseline"] = [
            {"rule": rule, "path": path, "text": text, "count": count,
             "matched": matched}
            for rule, path, text, count, matched in stale
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if findings or stale else 0

    _print_findings(findings)
    for rule, path, text, count, matched in stale:
        print(f"{args.baseline}: stale {rule} entry for {path}: {text!r} "
              f"(count {count}, matches {matched})")
    suffix = f" (baseline: {args.baseline})" if args.baseline else ""
    if findings:
        print(f"{len(findings)} finding(s) in {checked} file(s){suffix}")
    if stale:
        print(f"{len(stale)} stale baseline entry(ies){suffix}: "
              f"remove or lower them")
    if findings or stale:
        return 1
    print(f"clean: {checked} file(s), 0 findings{suffix}")
    return 0


def _print_findings(findings: List[Finding]) -> None:
    for finding in findings:
        print(finding.render())
