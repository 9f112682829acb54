"""Structured simulation trace.

Protocols emit trace events at every decision point (state transitions,
beam switches, RACH milestones).  The analysis layer replays traces to
compute the paper's metrics, and tests assert on them to pin protocol
behaviour — the trace is the audit trail for Fig. 2b.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped record.

    Attributes
    ----------
    time:
        Simulated time in seconds.
    category:
        Dotted namespace, e.g. ``"fsm.transition"`` or ``"rach.msg2"``.
    node:
        Identifier of the emitting node (mobile or base-station id).
    data:
        Free-form payload; keys are event-specific but stable per category.
    """

    time: float
    category: str
    node: str
    data: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceEvent({self.time:.4f}s {self.node} {self.category} {self.data})"


class TraceRecorder:
    """Append-only event log with simple querying.

    Recording can be disabled wholesale (``enabled=False``) for large
    benchmark sweeps where only final metrics matter.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._events: List[TraceEvent] = []
        self._listeners: List[Callable[[TraceEvent], None]] = []

    def __len__(self) -> int:
        return len(self._events)

    def emit(
        self,
        time: float,
        category: str,
        node: str,
        **data: Any,
    ) -> None:
        """Record one event (no-op when disabled, listeners still skipped)."""
        if not self.enabled:
            return
        event = TraceEvent(time, category, node, data)
        self._events.append(event)
        for listener in self._listeners:
            listener(event)

    def subscribe(self, listener: Callable[[TraceEvent], None]) -> None:
        """Register a live listener invoked on every emitted event."""
        self._listeners.append(listener)

    @property
    def events(self) -> List[TraceEvent]:
        """All recorded events in emission order."""
        return list(self._events)

    def iter_filter(self, category: Optional[str] = None) -> Iterator[TraceEvent]:
        """Events of ``category`` (every event when ``None``), lazily.

        ``category`` matches exact name or any dotted descendant, so
        ``iter_filter(category="fsm")`` yields ``fsm.transition`` events
        too.
        """
        prefix = None if category is None else category + "."
        for event in self._events:
            if category is not None:
                if event.category != category and not event.category.startswith(
                    prefix
                ):
                    continue
            yield event

    def count(self, category: Optional[str] = None) -> int:
        """Number of events of ``category`` (see :meth:`iter_filter`)."""
        return sum(1 for _ in self.iter_filter(category=category))

    def last(self, category: Optional[str] = None) -> Optional[TraceEvent]:
        """Most recent event of ``category``, or ``None``."""
        result = None
        for event in self.iter_filter(category=category):
            result = event
        return result

    def clear(self) -> None:
        """Drop all recorded events (listeners stay subscribed)."""
        self._events.clear()
