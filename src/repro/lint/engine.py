"""The lint engine: parse, resolve imports, run rules, apply waivers.

The engine is rule-agnostic: it parses each file once, builds a
:class:`ModuleContext` (AST + source lines + an import alias table so
rules can resolve ``pc()`` back to ``time.perf_counter``), runs every
registered rule, and post-filters the findings through inline waivers.

Waivers
-------
A finding is waived by an inline comment on the same line, or on a
comment-only line immediately above::

    value = time.time()  # repro: lint-waive[DET001]: bench-only label
    # repro: lint-waive[DET005]: historical stream name, pinned by traces
    rng.stream("legacy-name")

The bracket takes a comma-separated rule list.  A justification after
the bracket (``: why``) is required for the waiver to apply — an
unjustified waiver is itself reported (rule ``LINT100``), so "explain
or fix" is enforced mechanically.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.config import DEFAULT_CONFIG, module_key
from repro.lint.findings import Finding, LintError

#: Inline waiver syntax: ``# repro: lint-waive[DET001,DET005]: reason``.
_WAIVER_RE = re.compile(
    r"#\s*repro:\s*lint-waive\[([A-Za-z0-9_,\s]*)\]\s*:?\s*(.*)$"
)

#: Directory names the recursive walk skips: caches, VCS internals and
#: fixture data (lint fixtures under ``tests/data/lint/`` are positive
#: examples by design).  Explicit file arguments are never skipped.
_SKIP_DIRS = {"__pycache__", "data", ".git", ".venv", "node_modules"}


class Waiver:
    """One parsed inline waiver."""

    __slots__ = ("line", "rules", "justification", "standalone")

    def __init__(
        self, line: int, rules: Tuple[str, ...], justification: str,
        standalone: bool,
    ) -> None:
        self.line = line
        self.rules = rules
        self.justification = justification
        self.standalone = standalone  # comment-only line: waives the next line

    def covers(self, rule: str) -> bool:
        return rule in self.rules


def parse_waivers(lines: Sequence[str]) -> List[Waiver]:
    """Extract every inline waiver from a module's source lines."""
    waivers: List[Waiver] = []
    for number, line in enumerate(lines, start=1):
        match = _WAIVER_RE.search(line)
        if match is None:
            continue
        rules = tuple(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        justification = match.group(2).strip()
        standalone = line.strip().startswith("#")
        waivers.append(Waiver(number, rules, justification, standalone))
    return waivers


class ModuleContext:
    """Everything a rule needs to check one module."""

    def __init__(
        self, key: str, tree: ast.Module, lines: Sequence[str],
        display_path: str = "",
    ) -> None:
        self.key = key
        self.tree = tree
        self.lines = lines
        self.display_path = display_path or key
        #: local name -> dotted origin ("np" -> "numpy",
        #: "pc" -> "time.perf_counter"), from top-of-tree imports.
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                base = node.module
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.aliases[alias.asname or alias.name] = (
                        f"{base}.{alias.name}"
                    )

    def qualified(self, node: ast.AST) -> Optional[str]:
        """Dotted origin of a Name/Attribute chain, alias-resolved.

        ``np.random.default_rng`` (with ``import numpy as np``) becomes
        ``numpy.random.default_rng``; a chain rooted in anything but a
        plain name (calls, subscripts) resolves to ``None``.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        root = self.aliases.get(parts[0], parts[0])
        return ".".join([root] + parts[1:])

    def source_line(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(
        self, rule: str, node: ast.AST, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 0)
        return Finding(
            rule=rule,
            path=self.key,
            line=line,
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            text=self.source_line(line),
            display_path=self.display_path,
        )


def _apply_waivers(
    findings: List[Finding], waivers: List[Waiver], ctx: ModuleContext
) -> List[Finding]:
    """Drop waived findings; report unjustified waiver use (LINT100)."""
    by_line: Dict[int, List[Waiver]] = {}
    for waiver in waivers:
        by_line.setdefault(waiver.line, []).append(waiver)
        if waiver.standalone:
            by_line.setdefault(waiver.line + 1, []).append(waiver)
    kept: List[Finding] = []
    for finding in findings:
        matched = [
            w for w in by_line.get(finding.line, []) if w.covers(finding.rule)
        ]
        if not matched:
            kept.append(finding)
            continue
        if not any(w.justification for w in matched):
            kept.append(finding)
            kept.append(
                Finding(
                    rule="LINT100",
                    path=ctx.key,
                    line=matched[0].line,
                    col=1,
                    message=(
                        "waiver without justification: write "
                        "'# repro: lint-waive[RULE]: why' or fix the finding"
                    ),
                    text=ctx.source_line(matched[0].line),
                    display_path=ctx.display_path,
                )
            )
    return kept


class LintEngine:
    """Runs a rule set over sources, directories, or whole trees."""

    def __init__(self) -> None:
        from repro.lint.rules import default_rules

        self.config = DEFAULT_CONFIG
        self.rules = default_rules()

    # ------------------------------------------------------------- sources
    def lint_source(
        self, source: str, key: str, display_path: str = ""
    ) -> List[Finding]:
        """Lint one module's source text under module key ``key``."""
        try:
            tree = ast.parse(source)
        except SyntaxError as error:
            raise LintError(
                f"{display_path or key}:{error.lineno}: syntax error: "
                f"{error.msg}"
            ) from None
        lines = source.splitlines()
        ctx = ModuleContext(key, tree, lines, display_path)
        findings: List[Finding] = []
        for rule in self.rules:
            findings.extend(rule.check(ctx, self.config))
        findings = _apply_waivers(findings, parse_waivers(lines), ctx)
        return sorted(findings, key=lambda f: f.sort_key)

    def lint_file(self, path: Path) -> List[Finding]:
        try:
            source = Path(path).read_text(encoding="utf-8")
        except OSError as error:
            raise LintError(f"cannot read {path}: {error.strerror}") from None
        return self.lint_source(source, module_key(path), str(path))

    # ---------------------------------------------------------------- paths
    def collect_files(self, paths: Iterable[object]) -> List[Path]:
        """Expand path arguments into the ordered list of files to lint.

        Directories are walked recursively for ``*.py`` (skipping
        ``__pycache__`` / ``data`` / VCS internals); explicit file
        arguments are taken as-is.  A nonexistent path is a
        :class:`LintError` (CLI exit 2).
        """
        files: List[Path] = []
        seen = set()
        for raw in paths:
            path = Path(raw)
            if path.is_file():
                candidates = [path]
            elif path.is_dir():
                candidates = sorted(
                    p
                    for p in path.rglob("*.py")
                    if not (set(p.parts) & _SKIP_DIRS)
                )
            else:
                raise LintError(f"no such file or directory: {path}")
            for candidate in candidates:
                marker = str(candidate.resolve())
                if marker not in seen:
                    seen.add(marker)
                    files.append(candidate)
        return files

    def lint_paths(
        self, paths: Iterable[object]
    ) -> Tuple[List[Path], List[Finding]]:
        """Lint files/directories; returns ``(files_checked, findings)``."""
        files = self.collect_files(paths)
        findings: List[Finding] = []
        for path in files:
            findings.extend(self.lint_file(path))
        return files, sorted(findings, key=lambda f: f.sort_key)
