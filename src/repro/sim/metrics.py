"""Run-level metrics: named event counters."""

from __future__ import annotations

from typing import Dict


class MetricsRecorder:
    """Counts protocol events during a run.

    Separate from :class:`~repro.sim.trace.TraceRecorder`: traces capture
    *what happened* (qualitative protocol events), metrics capture *how
    often* (the counts benchmarks and examples report).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` (created at zero on first use)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        """Current counter value; zero when never incremented."""
        return self._counters.get(name, 0)

    def counters(self) -> Dict[str, int]:
        """All counters (copy)."""
        return dict(self._counters)
