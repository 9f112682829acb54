"""Campaign progress reporting.

The runner is headless; it talks to the outside world through a
:class:`ProgressReporter`.  The CLI installs :class:`ConsoleProgress`,
library callers default to :class:`NullProgress`, and tests can install
a recording reporter to assert on scheduling behaviour.
"""

from __future__ import annotations

import sys
import time
from typing import Optional

from repro.campaign.spec import CampaignCell


class ProgressReporter:
    """No-op base class; override any subset of the hooks."""

    def on_start(self, total: int, skipped: int) -> None:
        """Campaign begins: ``total`` cells in the grid, ``skipped``
        already complete on disk."""

    def on_cell_done(
        self, cell: CampaignCell, ok: bool, elapsed_s: float
    ) -> None:
        """One cell finished (``ok=False`` means it raised)."""

    def on_finish(self, executed: int, failed: int, elapsed_s: float) -> None:
        """Campaign over (all pending cells attempted)."""


#: Library default: silence.
NullProgress = ProgressReporter


class ConsoleProgress(ProgressReporter):
    """Line-per-cell progress with a running count and rough ETA."""

    def __init__(self) -> None:
        self._stream = sys.stderr
        self._total = 0
        self._done = 0
        self._started_at = 0.0

    def _eta_s(self) -> Optional[float]:
        if self._done == 0:
            return None
        elapsed = time.monotonic() - self._started_at
        remaining = self._total - self._done
        return elapsed / self._done * remaining

    def on_start(self, total: int, skipped: int) -> None:
        self._total = total - skipped
        self._done = 0
        self._started_at = time.monotonic()
        print(
            f"campaign: {total} cells ({skipped} already complete, "
            f"{self._total} to run)",
            file=self._stream,
        )

    def on_cell_done(
        self, cell: CampaignCell, ok: bool, elapsed_s: float
    ) -> None:
        self._done += 1
        status = "ok" if ok else "FAILED"
        eta = self._eta_s()
        eta_text = f", eta {eta:.0f}s" if eta is not None and eta > 0 else ""
        print(
            f"[{self._done}/{self._total}] {cell.cell_id} "
            f"{cell.scenario}/{cell.protocol}/{cell.override_label} "
            f"seed={cell.seed} {status} ({elapsed_s:.2f}s{eta_text})",
            file=self._stream,
        )

    def on_finish(self, executed: int, failed: int, elapsed_s: float) -> None:
        print(
            f"campaign: {executed} cells executed, {failed} failed, "
            f"{elapsed_s:.1f}s wall",
            file=self._stream,
        )
