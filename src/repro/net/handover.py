"""Handover records and classification.

A handover is **soft** when the network context survives the cell
switch: the mobile completed random access to the target while its
serving context was still valid (connected or within the RLF guard), so
upper layers transfer state instead of rebuilding it.  It is **hard**
when the context was lost first — the mobile re-enters from idle, paying
the full directional cell search plus initial access with no context.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional


class HandoverOutcome(enum.Enum):
    SOFT = "soft"
    HARD = "hard"
    #: Random access to the target never completed within the run.
    FAILED = "failed"


@dataclass
class HandoverRecord:
    """Accounting for one handover attempt."""

    mobile_id: str
    source_cell: str
    target_cell: str
    #: When the handover trigger (edge E) fired.
    trigger_s: float
    #: When random access to the target completed (None if it never did).
    complete_s: Optional[float] = None
    outcome: Optional[HandoverOutcome] = None
    rach_attempts: int = 0
    #: Data-plane interruption: time with no usable serving link.
    interruption_s: float = 0.0

    @property
    def completion_time_s(self) -> Optional[float]:
        """Trigger-to-completion latency."""
        if self.complete_s is None:
            return None
        return self.complete_s - self.trigger_s


class HandoverLog:
    """Collects handover records across a run or an experiment trial."""

    def __init__(self) -> None:
        self._records: List[HandoverRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def open_record(
        self, mobile_id: str, source_cell: str, target_cell: str, trigger_s: float
    ) -> HandoverRecord:
        """Start accounting for a newly triggered handover."""
        record = HandoverRecord(mobile_id, source_cell, target_cell, trigger_s)
        self._records.append(record)
        return record

    @property
    def records(self) -> List[HandoverRecord]:
        return list(self._records)
