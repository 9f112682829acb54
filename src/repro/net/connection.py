"""Connection context: what the mobile holds toward its serving cell.

Soft handover is precisely the preservation of this context across a
cell switch; a hard handover destroys it and rebuilds from nothing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class ConnectionState(enum.Enum):
    """RRC-like connection states (reduced to what the protocols need)."""

    IDLE = "idle"
    CONNECTED = "connected"
    #: Radio link failure declared; context is running a guard timer and
    #: will be lost unless re-established.
    RLF = "rlf"


@dataclass
class ConnectionContext:
    """Mutable serving-link state carried by the mobile.

    Attributes
    ----------
    serving_cell:
        Cell id of the serving base station, or ``None`` when idle.
    rx_beam:
        Mobile receive beam used for the serving link.
    last_contact_s:
        Time of the last successful serving-cell reception; the RLF
        monitor compares this against the link-failure timeout.
    established_s:
        When the context was created (for context-age accounting).
    """

    serving_cell: Optional[str] = None
    rx_beam: Optional[int] = None
    state: ConnectionState = ConnectionState.IDLE
    last_contact_s: float = field(default=0.0)
    established_s: float = field(default=0.0)

    def establish(self, cell_id: str, rx_beam: int, now_s: float) -> None:
        """Create a fresh context toward ``cell_id``."""
        self.serving_cell = cell_id
        self.rx_beam = rx_beam
        self.state = ConnectionState.CONNECTED
        self.last_contact_s = now_s
        self.established_s = now_s

    def touch(self, now_s: float) -> None:
        """Record successful serving-cell contact."""
        if self.state is ConnectionState.IDLE:
            raise RuntimeError("touch() on an idle connection")
        self.last_contact_s = now_s
        if self.state is ConnectionState.RLF:
            # Contact during the RLF guard re-establishes the link.
            self.state = ConnectionState.CONNECTED

    def declare_rlf(self) -> None:
        """Enter radio-link-failure (context not yet lost)."""
        if self.state is ConnectionState.CONNECTED:
            self.state = ConnectionState.RLF

    def drop(self) -> None:
        """Lose the context entirely (hard-handover outcome)."""
        self.serving_cell = None
        self.rx_beam = None
        self.state = ConnectionState.IDLE

    @property
    def connected(self) -> bool:
        return self.state is ConnectionState.CONNECTED

    def silence_s(self, now_s: float) -> float:
        """Seconds since the last successful serving contact."""
        return now_s - self.last_contact_s
