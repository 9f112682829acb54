"""Live run monitoring: worker heartbeats and a stall detector.

The monitor rides the *existing* worker progress pipe — it never opens
a side channel and never touches the simulation, so artifacts stay
byte-identical with the monitor on or off.  Two pieces:

* :class:`HeartbeatEmitter` lives in a worker process.  Call
  :meth:`~HeartbeatEmitter.maybe_beat` from any per-event progress hook;
  at most once per ``interval_s`` it posts a ``("hb", shard_index,
  beat)`` tuple through the supplied ``post`` callable, where ``beat``
  carries the current phase, simulated time, cumulative engine events
  (when a simulator was bound), and an :mod:`repro.obs.resources`
  sample.  Rates (events/s) are computed driver-side from successive
  beats, so the payload stays cumulative and order-insensitive.

* :class:`StallDetector` lives in the driver.  ``watch`` each pending
  shard, ``note`` it on every progress event, and poll
  :meth:`~StallDetector.newly_stalled` from the pool drain loop: a
  watched key silent for ``stall_s`` is reported exactly once per
  silence episode ("shard 3 silent for 30s"), re-arming if the shard
  revives.

Thresholds come from the declared ``REPRO_HEARTBEAT_S`` /
``REPRO_STALL_S`` switches (see :mod:`repro.util.switches`) via
:meth:`MonitorConfig.from_switches`; both classes also take explicit
values and an injectable clock so tests never sleep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.obs import resources
from repro.obs.telemetry import wall_clock
from repro.util.switches import switch_float


@dataclass(frozen=True)
class MonitorConfig:
    """Monitor thresholds, in wall-clock seconds."""

    heartbeat_s: float = 5.0
    stall_s: float = 30.0

    @classmethod
    def from_switches(cls) -> "MonitorConfig":
        """Thresholds from ``REPRO_HEARTBEAT_S`` / ``REPRO_STALL_S``."""
        return cls(
            heartbeat_s=switch_float("REPRO_HEARTBEAT_S"),
            stall_s=switch_float("REPRO_STALL_S"),
        )


class HeartbeatEmitter:
    """Throttled worker-side heartbeat source.

    ``post`` is the progress sink's raw tuple writer; ``events_fn`` is
    optionally bound (see ``bind_events`` on the fleet progress
    classes) to the engine's cumulative ``events_fired`` counter.
    """

    def __init__(
        self,
        post: Callable[[tuple], None],
        shard_index: int,
        interval_s: float,
        clock: Callable[[], float] = wall_clock,
        sampler: Callable[[], Dict[str, object]] = resources.sample,
    ) -> None:
        self._post = post
        self._shard_index = int(shard_index)
        self._interval_s = float(interval_s)
        self._clock = clock
        self._sampler = sampler
        self._last_beat = clock()
        self.events_fn: Optional[Callable[[], int]] = None

    def maybe_beat(
        self,
        phase: str,
        sim_now_s: Optional[float] = None,
        duration_s: Optional[float] = None,
    ) -> bool:
        """Post one heartbeat if ``interval_s`` elapsed; True if posted."""
        now = self._clock()
        if now - self._last_beat < self._interval_s:
            return False
        self._last_beat = now
        beat: Dict[str, object] = {
            "phase": phase,
            "sim_now_s": sim_now_s,
            "duration_s": duration_s,
        }
        if self.events_fn is not None:
            beat["events"] = int(self.events_fn())
        beat.update(self._sampler())
        self._post(("hb", self._shard_index, beat))
        return True


class StallDetector:
    """Flags watched keys that go silent for longer than ``stall_s``.

    Each silence episode fires once: a key reported as stalled is not
    re-reported until activity (:meth:`note`) revives it.
    """

    def __init__(
        self,
        stall_s: float,
        clock: Callable[[], float] = wall_clock,
    ) -> None:
        self._stall_s = float(stall_s)
        self._clock = clock
        self._last_seen: Dict[int, float] = {}
        self._flagged: Set[int] = set()

    def watch(self, key: int) -> None:
        """Start the silence clock for ``key`` (no-op if already watched)."""
        self._last_seen.setdefault(key, self._clock())

    def note(self, key: int) -> None:
        """Record activity on ``key``, re-arming its stall flag."""
        self._last_seen[key] = self._clock()
        self._flagged.discard(key)

    def unwatch(self, key: int) -> None:
        """Stop watching ``key`` (it finished or was abandoned)."""
        self._last_seen.pop(key, None)
        self._flagged.discard(key)

    def newly_stalled(self) -> List[Tuple[int, float]]:
        """``(key, silent_s)`` for keys that just crossed the threshold."""
        now = self._clock()
        stalled: List[Tuple[int, float]] = []
        for key in sorted(self._last_seen):
            silent_s = now - self._last_seen[key]
            if silent_s >= self._stall_s and key not in self._flagged:
                self._flagged.add(key)
                stalled.append((key, silent_s))
        return stalled
