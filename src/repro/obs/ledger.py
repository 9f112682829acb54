"""The run ledger: a durable, append-only index of completed runs.

Every campaign, fleet, and bench invocation records one JSON line in
``runs.jsonl`` (default ``.repro/runs.jsonl`` under the working
directory, or an explicit ``--ledger`` path): run ID, argv, content
hashes, wall-clock duration, exit status, the merged telemetry summary
when one was collected, and an :mod:`repro.obs.resources` sample.
``repro obs history`` lists the ledger and ``repro obs regress`` gates
span ratios between two entries; ``obs top``/``obs diff`` accept run
IDs wherever they accept sidecar paths.

Design constraints, in order:

* **Never hurt the run.**  Entries are written in ``finally`` (failures
  are recorded too, with a one-line error), each entry is a single
  ``write()`` of one line so concurrent appends from parallel
  invocations interleave at line granularity, and a ledger I/O error
  demotes to a warning — the artifacts always win.
* **Survive corruption.**  Readers skip (and count) undecodable lines,
  so a torn tail from a killed process costs one entry, not the ledger.
* **Stay bounded.**  At ``max_entries`` lines the file rotates to
  ``runs.jsonl.1`` (one generation kept) and a fresh file starts.
  Count, rotate and append run under an exclusive ``flock`` on
  ``runs.jsonl.lock``, so two appenders that both see a full file
  cannot both rotate and drop a generation.

The ledger records *wall-clock facts about runs* — it lives in
``repro.obs`` precisely because it is allowed to read clocks, and it is
never an input to any simulation.
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import json
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

try:  # Unix only; appends run unlocked elsewhere
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - non-Unix platforms
    _fcntl = None

from repro.obs import resources
from repro.obs.log import get_logger
from repro.obs.report import ObsError
from repro.obs.telemetry import wall_clock

_log = get_logger("obs")

#: Ledger entry schema version.
LEDGER_FORMAT = 1

#: Rotate ``runs.jsonl`` once it reaches this many lines.
DEFAULT_MAX_ENTRIES = 4096

#: Repo-scoped default ledger location (gitignored).
DEFAULT_LEDGER = Path(".repro") / "runs.jsonl"


def default_ledger_path() -> Path:
    """The default ledger path, relative to the working directory."""
    return DEFAULT_LEDGER


def _derive_run_id(entry: Dict[str, object]) -> str:
    """Content-derived run ID: ``r`` + short sha256 of the entry."""
    payload = json.dumps(entry, sort_keys=True, default=str)
    return "r" + hashlib.sha256(payload.encode("utf-8")).hexdigest()[:11]


def format_when(epoch_s: float) -> str:
    """``YYYY-mm-dd HH:MM:SS`` UTC rendering of an epoch timestamp."""
    when = datetime.datetime.fromtimestamp(
        float(epoch_s), tz=datetime.timezone.utc
    )
    return when.strftime("%Y-%m-%d %H:%M:%S")


class RunLedger:
    """Append-only ``runs.jsonl`` with rotation and tolerant reads."""

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        self._path = Path(path) if path is not None else default_ledger_path()
        self._max_entries = int(max_entries)

    @property
    def path(self) -> Path:
        return self._path

    @property
    def rotated_path(self) -> Path:
        """Where the previous generation lands on rotation."""
        return self._path.with_name(self._path.name + ".1")

    def append(self, entry: Dict[str, object]) -> str:
        """Append one entry (assigning a run ID if absent); returns the ID."""
        record = dict(entry)
        record.setdefault("format", LEDGER_FORMAT)
        run_id = record.get("run_id") or _derive_run_id(record)
        record["run_id"] = run_id
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._path.parent.mkdir(parents=True, exist_ok=True)
        with self._locked():
            self._rotate_if_needed()
            with open(self._path, "a+b") as fh:
                # A killed writer can leave a torn final line with no
                # newline; heal it so the new entry stays line-granular.
                if fh.tell() > 0:
                    fh.seek(-1, 2)
                    if fh.read(1) != b"\n":
                        fh.write(b"\n")
                fh.write(line.encode("utf-8") + b"\n")
        return str(run_id)

    @contextlib.contextmanager
    def _locked(self) -> Iterator[None]:
        """Hold an exclusive lock on ``<ledger>.lock`` (released on close)."""
        if _fcntl is None:  # pragma: no cover - non-Unix platforms
            yield
            return
        lock_path = self._path.with_name(self._path.name + ".lock")
        with open(lock_path, "a") as lock:
            _fcntl.flock(lock.fileno(), _fcntl.LOCK_EX)
            yield

    def _rotate_if_needed(self) -> None:
        try:
            with open(self._path, "r", encoding="utf-8") as fh:
                lines = sum(1 for _ in fh)
        except OSError:
            return
        if lines >= self._max_entries:
            self._path.replace(self.rotated_path)

    def _files(self) -> Iterator[Path]:
        for path in (self.rotated_path, self._path):
            if path.exists():
                yield path

    def scan(self) -> Tuple[List[Dict[str, object]], int]:
        """``(entries, corrupt_lines)`` oldest-first across generations.

        Undecodable or shapeless lines (a torn tail from a killed
        writer) are skipped and counted, never fatal.
        """
        entries: List[Dict[str, object]] = []
        corrupt = 0
        for path in self._files():
            for raw in path.read_text(encoding="utf-8").splitlines():
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    record = json.loads(raw)
                except json.JSONDecodeError:
                    corrupt += 1
                    continue
                if isinstance(record, dict) and record.get("run_id"):
                    entries.append(record)
                else:
                    corrupt += 1
        return entries, corrupt

    def entries(self) -> List[Dict[str, object]]:
        """All readable entries, oldest first."""
        return self.scan()[0]

    def last(self, n: int) -> List[Dict[str, object]]:
        """The most recent ``n`` entries, oldest first."""
        if n < 1:
            raise ObsError(f"need at least 1 entry, asked for {n}")
        return self.entries()[-n:]

    def find(self, run_id: str) -> Dict[str, object]:
        """The entry for ``run_id`` (unambiguous prefixes accepted)."""
        entries = self.entries()
        exact = [e for e in entries if e.get("run_id") == run_id]
        if exact:
            return exact[-1]
        prefixed = [
            e for e in entries if str(e.get("run_id", "")).startswith(run_id)
        ]
        ids = sorted({str(e["run_id"]) for e in prefixed})
        if len(ids) == 1:
            return prefixed[-1]
        if len(ids) > 1:
            raise ObsError(
                f"run id {run_id!r} is ambiguous in {self._path}: "
                f"{', '.join(ids)}"
            )
        raise ObsError(
            f"no run {run_id!r} in ledger {self._path}"
            + ("" if self._path.exists() else " (ledger does not exist yet)")
        )


class RunRecord:
    """Mutable fields a command fills in while :func:`record_run` times it."""

    def __init__(self, kind: str, command: Sequence[str], name: str) -> None:
        self.kind = kind
        self.command = list(command)
        self.name = name
        self.hashes: Dict[str, object] = {}
        self.artifacts: Optional[str] = None
        self.telemetry: Optional[Dict[str, object]] = None
        self.meta: Dict[str, object] = {}
        #: Assigned after the entry is written.
        self.run_id: Optional[str] = None


@contextlib.contextmanager
def record_run(
    ledger: Optional[RunLedger],
    kind: str,
    command: Sequence[str],
    name: str = "",
) -> Iterator[RunRecord]:
    """Time the enclosed command and append one ledger entry.

    The entry is written in ``finally`` — a failing run is recorded
    with ``status="failed"`` and a one-line error before the exception
    propagates — and a ledger write error is demoted to a warning so
    bookkeeping can never fail the run it books.  With ``ledger=None``
    the record is yielded but nothing is written (``--no-ledger``).
    """
    record = RunRecord(kind, command, name)
    if ledger is None:
        yield record
        return
    started_epoch = time.time()
    started = wall_clock()
    status = "ok"
    error: Optional[str] = None
    try:
        yield record
    except BaseException as exc:
        status = "failed"
        text = f"{type(exc).__name__}: {exc}".strip() or type(exc).__name__
        error = text.splitlines()[0][:200]
        raise
    finally:
        entry: Dict[str, object] = {
            "format": LEDGER_FORMAT,
            "kind": record.kind,
            "name": record.name,
            "command": list(record.command),
            "hashes": dict(record.hashes),
            "started_at": round(started_epoch, 3),
            "duration_s": round(wall_clock() - started, 6),
            "status": status,
            "error": error,
            "artifacts": record.artifacts,
            "telemetry": record.telemetry,
            "resources": resources.sample(),
        }
        if record.meta:
            entry["meta"] = dict(record.meta)
        try:
            record.run_id = ledger.append(entry)
        except OSError as err:
            _log.warning("run ledger write failed (%s); run not recorded", err)


def regress_failures(
    entry_a: Dict[str, object],
    entry_b: Dict[str, object],
    tolerance: float,
    min_span_s: float = 0.005,
) -> List[str]:
    """Names where entry B regressed beyond ``tolerance`` vs entry A.

    Gates the end-to-end ``duration_s`` plus every telemetry span both
    entries recorded, ignoring spans under ``min_span_s`` on both sides
    (sub-5ms spans are timing noise, not regressions).  A span ratio of
    ``B/A > 1 + tolerance`` fails; faster is never a failure.
    """
    failures: List[str] = []
    dur_a = float(entry_a.get("duration_s") or 0.0)
    dur_b = float(entry_b.get("duration_s") or 0.0)
    if dur_a >= min_span_s and dur_b > dur_a * (1.0 + tolerance):
        failures.append("run.duration")
    spans_a = (entry_a.get("telemetry") or {}).get("spans", {})
    spans_b = (entry_b.get("telemetry") or {}).get("spans", {})
    for name in sorted(set(spans_a) & set(spans_b)):
        total_a = float(spans_a[name].get("total_s", 0.0))
        total_b = float(spans_b[name].get("total_s", 0.0))
        if max(total_a, total_b) < min_span_s:
            continue
        if total_a > 0 and total_b > total_a * (1.0 + tolerance):
            failures.append(name)
    return failures
