"""Runtime telemetry: counters, histograms and nestable wall-clock spans.

The :class:`Telemetry` hub is the substrate every scaling PR reports
through: hot paths wrap themselves in ``with telemetry.span("name")``
blocks, count events, and bucket batch sizes, and the per-run summary
rides along campaign/fleet artifacts as a *sidecar* file.

Two hard rules keep it safe to leave in the hot paths:

* **Near-zero cost when disabled.**  A disabled hub's :meth:`span`
  returns one shared no-op context manager, and every mutating method
  returns immediately.  Hot loops additionally guard on the
  ``enabled`` attribute so the disabled path costs a single attribute
  check.
* **Never touches simulation state.**  Telemetry reads
  ``time.perf_counter()`` only — no RNG streams, no simulated clock —
  so enabling or disabling it cannot change a single artifact byte.

The *current* hub is ambient (module-level): deployments, simulators
and link engines capture :func:`current` at construction, so callers
activate telemetry for a whole run with::

    with use(Telemetry()) as telemetry:
        result = run_fleet_trial(spec)
    print(telemetry.summary())

Each process has its own ambient hub; campaign workers activate a fresh
one per cell and ship its :meth:`summary` back over the pool pipe.
"""

from __future__ import annotations

import contextlib
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

#: Telemetry summary schema version.
TELEMETRY_FORMAT = 1

#: The sanctioned wall-clock reader for code outside the telemetry /
#: bench / progress layers.  A direct alias of ``time.perf_counter``
#: (zero call overhead), it exists so the determinism linter (rule
#: DET001 in :mod:`repro.lint`) can reject raw ``time`` / ``datetime``
#: reads everywhere else: wall-clock values obtained here may feed
#: telemetry spans and progress reporting only, never simulation state
#: or artifacts.
wall_clock = perf_counter


class _NullSpan:
    """Shared no-op span handed out by disabled hubs."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """Context manager recording one wall-clock interval into the hub."""

    __slots__ = ("_telemetry", "_name", "_start")

    def __init__(self, telemetry: "Telemetry", name: str) -> None:
        self._telemetry = telemetry
        self._name = name

    def __enter__(self) -> "_Span":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self._telemetry.record_span(self._name, self._start, perf_counter())
        return False


class Telemetry:
    """Collects spans, counters and integer histograms for one run.

    Parameters
    ----------
    enabled:
        A disabled hub records nothing and hands out no-op spans.
    record_events:
        Keep individual span intervals (for Chrome-trace export) in
        addition to the per-name aggregates.  Off by default: a long
        run can fire millions of spans, and the aggregates are all the
        summary artifacts need.
    max_events:
        Interval-list cap under ``record_events``; spans beyond it
        still aggregate but their intervals are dropped (and counted
        in ``dropped_events``), so memory stays bounded.
    """

    __slots__ = (
        "enabled",
        "record_events",
        "max_events",
        "_span_totals",
        "_span_counts",
        "_counters",
        "_hists",
        "_events",
        "_dropped_events",
        "_origin",
    )

    def __init__(
        self,
        enabled: bool = True,
        record_events: bool = False,
        max_events: int = 200_000,
    ) -> None:
        self.enabled = enabled
        self.record_events = record_events
        self.max_events = max_events
        self._span_totals: Dict[str, float] = {}
        self._span_counts: Dict[str, int] = {}
        self._counters: Dict[str, int] = {}
        self._hists: Dict[str, Dict[int, int]] = {}
        self._events: List[Tuple[str, float, float]] = []
        self._dropped_events = 0
        self._origin = perf_counter()

    # ------------------------------------------------------------------ spans
    def span(self, name: str):
        """Context manager timing one wall-clock interval under ``name``.

        Nestable; each level records independently.  Disabled hubs
        return a shared no-op manager.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def record_span(self, name: str, start_s: float, end_s: float) -> None:
        """Record one already-timed interval (``perf_counter`` values).

        The raw-call form of :meth:`span` for hot loops that guard on
        ``enabled`` themselves and skip the context-manager allocation.
        """
        if not self.enabled:
            return
        self._span_totals[name] = self._span_totals.get(name, 0.0) + (
            end_s - start_s
        )
        self._span_counts[name] = self._span_counts.get(name, 0) + 1
        if self.record_events:
            if len(self._events) < self.max_events:
                self._events.append((name, start_s - self._origin, end_s - start_s))
            else:
                self._dropped_events += 1

    def span_events(self) -> List[Tuple[str, float, float]]:
        """Recorded ``(name, start_s, duration_s)`` intervals.

        Start times are relative to hub construction.  Empty unless
        ``record_events`` is set.
        """
        return list(self._events)

    # --------------------------------------------------------------- counters
    def incr(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` (created at zero on first use)."""
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        """Current counter value; zero when never incremented."""
        return self._counters.get(name, 0)

    def counters(self) -> Dict[str, int]:
        """All counters (copy)."""
        return dict(self._counters)

    # ------------------------------------------------------------- histograms
    def observe(self, name: str, value: int) -> None:
        """Bucket one integer observation into histogram ``name``.

        Buckets are exact integer values — batch sizes and queue depths
        are small and discrete, so no binning scheme is needed.
        """
        if not self.enabled:
            return
        hist = self._hists.get(name)
        if hist is None:
            hist = self._hists[name] = {}
        bucket = int(value)
        hist[bucket] = hist.get(bucket, 0) + 1

    # ---------------------------------------------------------------- summary
    def summary(self) -> dict:
        """JSON-safe snapshot of everything recorded.

        This is the telemetry artifact schema: span totals/counts,
        counters, histograms (string bucket keys for JSON) and the
        dropped-interval count.
        """
        return {
            "format": TELEMETRY_FORMAT,
            "spans": {
                name: {
                    "count": self._span_counts[name],
                    "total_s": self._span_totals[name],
                }
                for name in self._span_totals
            },
            "counters": dict(self._counters),
            "hists": {
                name: {str(bucket): count for bucket, count in sorted(hist.items())}
                for name, hist in self._hists.items()
            },
            "dropped_events": self._dropped_events,
        }

    def merge_summary(self, summary: dict) -> None:
        """Accumulate another hub's :meth:`summary` into this one.

        Used by the campaign driver to fold worker-side per-cell
        summaries into a run-level aggregate.  Ignores ``enabled`` —
        merging is bookkeeping, not measurement.
        """
        for name, record in summary.get("spans", {}).items():
            self._span_totals[name] = (
                self._span_totals.get(name, 0.0) + float(record["total_s"])
            )
            self._span_counts[name] = (
                self._span_counts.get(name, 0) + int(record["count"])
            )
        for name, value in summary.get("counters", {}).items():
            self._counters[name] = self._counters.get(name, 0) + int(value)
        for name, hist in summary.get("hists", {}).items():
            mine = self._hists.setdefault(name, {})
            for bucket, count in hist.items():
                mine[int(bucket)] = mine.get(int(bucket), 0) + int(count)
        self._dropped_events += int(summary.get("dropped_events", 0))


#: The process-wide disabled hub — the default ambient telemetry.
DISABLED = Telemetry(enabled=False)

_current: Telemetry = DISABLED


def current() -> Telemetry:
    """The ambient telemetry hub (the shared :data:`DISABLED` by default)."""
    return _current


def set_current(telemetry: Optional[Telemetry]) -> None:
    """Install ``telemetry`` as the ambient hub (``None`` -> disabled)."""
    global _current
    _current = telemetry if telemetry is not None else DISABLED


@contextlib.contextmanager
def use(telemetry: Optional[Telemetry]) -> Iterator[Telemetry]:
    """Scoped ambient-hub override::

        with use(Telemetry()) as telemetry:
            run_fleet_trial(spec)   # deployments built here report to it
    """
    previous = _current
    set_current(telemetry)
    try:
        yield _current
    finally:
        set_current(previous)
