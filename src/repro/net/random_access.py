"""Four-step random access (RACH) played out on the event loop.

The procedure is the paper's moment of truth: the mobile has silently
tracked a neighbor-cell beam, and now every message — preamble (msg1),
random-access response (msg2), scheduled uplink (msg3), contention
resolution (msg4) — must traverse the air on the beams the tracker kept
aligned.  Beams are *re-queried at every message time* via provider
callbacks, so a tracker that lets the beam drift mid-procedure loses
messages and pays retries, exactly as on the testbed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.net.base_station import BaseStation
from repro.net.link_engine import LinkEngine
from repro.net.mobile import Mobile
from repro.phy.frame import RachConfig
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder

#: Correlation gain of the long preamble sequence relative to data
#: decoding (dB).  Lets msg1 get through at SNRs where data would not.
PREAMBLE_PROCESSING_GAIN_DB = 6.0


class RachOutcome(enum.Enum):
    SUCCESS = "success"
    FAILURE = "failure"


@dataclass(frozen=True)
class RachResult:
    """Final outcome of one random-access procedure."""

    outcome: RachOutcome
    attempts: int
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def succeeded(self) -> bool:
        return self.outcome is RachOutcome.SUCCESS


class RandomAccessProcedure:
    """One mobile's RACH toward one target cell.

    Parameters
    ----------
    mobile_beam_provider:
        ``f() -> Optional[int]`` — the receive/transmit beam the
        protocol currently holds toward the target cell.  ``None`` means
        the beam has been lost; the pending message fails outright.
    station_beam_provider:
        ``f() -> Optional[int]`` — the target-cell transmit beam the
        mobile last detected (the RACH occasion is SSB-mapped, so the
        base station listens on that beam).
    on_complete:
        ``f(result: RachResult) -> None`` callback.
    """

    def __init__(
        self,
        sim: Simulator,
        link_engine: LinkEngine,
        station: BaseStation,
        mobile: Mobile,
        config: RachConfig,
        mobile_beam_provider: Callable[[], Optional[int]],
        station_beam_provider: Callable[[], Optional[int]],
        on_complete: Callable[[RachResult], None],
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self._sim = sim
        self._links = link_engine
        self._station = station
        self._mobile = mobile
        self._config = config
        self._mobile_beam = mobile_beam_provider
        self._station_beam = station_beam_provider
        self._on_complete = on_complete
        # Explicit None check: an empty TraceRecorder is falsy (it has
        # __len__), so `trace or default` would silently drop it.
        self._trace = trace if trace is not None else TraceRecorder(enabled=False)
        self._attempts = 0
        self._start_s: Optional[float] = None
        self._finished = False

    @property
    def attempts(self) -> int:
        return self._attempts

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Begin the procedure at the next RACH occasion."""
        if self._start_s is not None:
            raise RuntimeError("random access procedure already started")
        self._start_s = self._sim.now
        self._schedule_attempt(self._config.next_occasion(self._sim.now))

    def abort(self) -> None:
        """End the procedure without a result (its arm stopped).

        ``on_complete`` never runs, and a message event still in the
        heap fires as a no-op.  Every reference the procedure holds is
        dropped, so that pending event no longer keeps the arm, the
        mobile or the simulator alive.
        """
        self._finished = True
        self._sim = self._links = self._station = self._mobile = None
        self._mobile_beam = self._station_beam = self._on_complete = None
        self._trace = None

    def _schedule_attempt(self, occasion_s: float) -> None:
        delay = max(0.0, occasion_s - self._sim.now)
        self._sim.schedule(delay, self._send_msg1, label="rach.msg1")

    def _emit(self, category: str, **data) -> None:
        self._trace.emit(self._sim.now, category, self._mobile.mobile_id, **data)

    # ------------------------------------------------------------- messages
    def _beams(self) -> Optional[tuple]:
        mobile_beam = self._mobile_beam()
        station_beam = self._station_beam()
        if mobile_beam is None or station_beam is None:
            return None
        return mobile_beam, station_beam

    def _send_msg1(self) -> None:
        if self._finished:
            return
        self._attempts += 1
        beams = self._beams()
        now = self._sim.now
        if beams is None:
            self._emit("rach.msg1", attempt=self._attempts, result="no-beam")
            self._retry()
            return
        mobile_beam, station_beam = beams
        heard = self._links.uplink_success(
            self._station,
            self._mobile.mobile_id,
            *self._mobile.geometry_at(now),
            mobile_beam,
            station_beam,
            now,
            extra_margin_db=PREAMBLE_PROCESSING_GAIN_DB,
        )
        self._emit(
            "rach.msg1",
            attempt=self._attempts,
            result="heard" if heard else "lost",
            mobile_beam=mobile_beam,
            station_beam=station_beam,
        )
        if heard:
            self._sim.schedule(
                self._config.response_delay_s, self._send_msg2, label="rach.msg2"
            )
        else:
            # The mobile cannot observe the loss directly; it waits out
            # the response window before retrying.
            self._sim.schedule(
                self._config.response_window_s, self._retry, label="rach.timeout"
            )

    def _send_msg2(self) -> None:
        if self._finished:
            return
        beams = self._beams()
        now = self._sim.now
        if beams is None:
            self._emit("rach.msg2", result="no-beam")
            self._sim.schedule(
                max(0.0, self._config.response_window_s - self._config.response_delay_s),
                self._retry,
                label="rach.timeout",
            )
            return
        mobile_beam, station_beam = beams
        received = self._links.downlink_success(
            self._station,
            self._mobile.mobile_id,
            *self._mobile.geometry_at(now),
            mobile_beam,
            station_beam,
            now,
        )
        self._emit("rach.msg2", result="received" if received else "lost")
        if received:
            self._sim.schedule(
                self._config.msg3_delay_s, self._send_msg3, label="rach.msg3"
            )
        else:
            self._sim.schedule(
                max(0.0, self._config.response_window_s - self._config.response_delay_s),
                self._retry,
                label="rach.timeout",
            )

    def _send_msg3(self) -> None:
        if self._finished:
            return
        beams = self._beams()
        now = self._sim.now
        if beams is None:
            self._emit("rach.msg3", result="no-beam")
            self._retry()
            return
        mobile_beam, station_beam = beams
        heard = self._links.uplink_success(
            self._station,
            self._mobile.mobile_id,
            *self._mobile.geometry_at(now),
            mobile_beam,
            station_beam,
            now,
        )
        self._emit("rach.msg3", result="heard" if heard else "lost")
        if heard:
            self._sim.schedule(
                self._config.msg4_delay_s, self._send_msg4, label="rach.msg4"
            )
        else:
            self._retry()

    def _send_msg4(self) -> None:
        if self._finished:
            return
        beams = self._beams()
        now = self._sim.now
        if beams is None:
            self._emit("rach.msg4", result="no-beam")
            self._retry()
            return
        mobile_beam, station_beam = beams
        received = self._links.downlink_success(
            self._station,
            self._mobile.mobile_id,
            *self._mobile.geometry_at(now),
            mobile_beam,
            station_beam,
            now,
        )
        self._emit("rach.msg4", result="received" if received else "lost")
        if received:
            self._finish(RachOutcome.SUCCESS)
        else:
            self._retry()

    # -------------------------------------------------------------- control
    def _retry(self) -> None:
        if self._finished:
            return
        if self._attempts >= self._config.max_attempts:
            self._finish(RachOutcome.FAILURE)
            return
        backoff = self._config.backoff_occasions * self._config.occasion_period_s
        next_occasion = self._config.next_occasion(self._sim.now + backoff)
        self._schedule_attempt(next_occasion)

    def _finish(self, outcome: RachOutcome) -> None:
        if self._finished:
            return
        self._finished = True
        result = RachResult(outcome, self._attempts, self._start_s, self._sim.now)
        self._emit(
            "rach.complete",
            outcome=outcome.value,
            attempts=self._attempts,
            duration_s=result.duration_s,
        )
        self._on_complete(result)
