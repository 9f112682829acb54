"""Baseline files: grandfathered findings that do not fail the gate.

A baseline is a committed JSON file keying findings by
``(rule, module key, stripped source line)`` — deliberately *without*
line numbers, so grandfathered findings survive unrelated edits above
them — with a count per key (several identical lines stay several
entries).  ``repro lint --baseline`` subtracts the baseline from the
run's findings and fails on a stale entry, one for a linted module that
matches fewer findings than its count, so the baseline only shrinks;
``--write-baseline`` regenerates the file from the current tree.

The contract for this repo: the shipped baseline is **empty for
``src/``** — library findings get fixed (or DET005/DET006-waived with a
justification), never grandfathered.  Only test-tree findings ride in
the baseline.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Set, Tuple

from repro.lint.findings import Finding, LintError

#: Baseline file schema version.
BASELINE_FORMAT = 1

#: The default committed baseline path.
DEFAULT_BASELINE = "lint-baseline.json"

_Key = Tuple[str, str, str]


def baseline_counts(findings: List[Finding]) -> Dict[_Key, int]:
    """Count findings per baseline key."""
    counts: Dict[_Key, int] = {}
    for finding in findings:
        key = finding.baseline_key
        counts[key] = counts.get(key, 0) + 1
    return counts


def write_baseline(findings: List[Finding], path: object) -> Path:
    """Write ``findings`` as a canonical baseline file."""
    counts = baseline_counts(findings)
    entries = [
        {"rule": rule, "path": module, "text": text, "count": count}
        for (rule, module, text), count in sorted(counts.items())
    ]
    payload = {"format": BASELINE_FORMAT, "entries": entries}
    target = Path(path)
    target.write_text(
        json.dumps(payload, indent=1, sort_keys=True, separators=(",", ": "))
        + "\n",
        encoding="utf-8",
    )
    return target


def load_baseline(path: object) -> Dict[_Key, int]:
    """Read a baseline file into per-key counts (``LintError`` if bad)."""
    target = Path(path)
    try:
        payload = json.loads(target.read_text(encoding="utf-8"))
    except OSError as error:
        raise LintError(
            f"cannot read baseline {target}: {error.strerror}"
        ) from None
    except json.JSONDecodeError as error:
        raise LintError(f"malformed baseline {target}: {error}") from None
    entries = payload.get("entries") if isinstance(payload, dict) else None
    if not isinstance(entries, list):
        raise LintError(
            f"malformed baseline {target}: expected an object with an "
            f"'entries' list"
        )
    counts: Dict[_Key, int] = {}
    for entry in entries:
        if not isinstance(entry, dict) or not {
            "rule", "path", "text"
        } <= set(entry):
            raise LintError(
                f"malformed baseline {target}: entry needs "
                f"rule/path/text fields: {entry!r}"
            )
        key = (str(entry["rule"]), str(entry["path"]), str(entry["text"]))
        count = entry.get("count", 1)
        if not isinstance(count, int) or count < 1:
            raise LintError(
                f"malformed baseline {target}: bad count in {entry!r}"
            )
        counts[key] = counts.get(key, 0) + count
    return counts


def stale_entries(
    findings: List[Finding], counts: Dict[_Key, int], linted: Set[str]
) -> List[Tuple[str, str, str, int, int]]:
    """Baseline entries that match fewer findings than their count.

    Only entries whose module key is in ``linted`` are judged: a run
    over ``src/`` says nothing about the entries for ``tests/``.
    Returns sorted ``(rule, path, text, count, matched)`` tuples.
    """
    found = baseline_counts(findings)
    return [
        (*key, count, found.get(key, 0))
        for key, count in sorted(counts.items())
        if key[1] in linted and found.get(key, 0) < count
    ]


def apply_baseline(
    findings: List[Finding], counts: Dict[_Key, int]
) -> List[Finding]:
    """Findings not covered by the baseline (new findings)."""
    remaining = dict(counts)
    fresh: List[Finding] = []
    for finding in findings:
        key = finding.baseline_key
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
        else:
            fresh.append(finding)
    return fresh
