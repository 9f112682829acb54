"""Fleet progress reporting (mirrors :mod:`repro.campaign.progress`).

The fleet runner is headless; ``repro fleet run`` installs
:class:`ConsoleFleetProgress` so a long population run shows per-user
build progress and a simulated-time ETA instead of running silently.
Library callers default to :class:`FleetProgress` (silence), and tests
install recording reporters to assert on the hook sequence.

Installing a reporter never changes results: the run phase advances the
simulated clock in slices between :meth:`FleetProgress.on_run` calls,
and slicing ``run_until`` is event-for-event identical to one call (the
equivalence suite pins this byte-for-byte).
"""

from __future__ import annotations

import sys
import time
from typing import Optional


class FleetProgress:
    """No-op base class; override any subset of the hooks."""

    def on_build(self, built: int, total: int) -> None:
        """One user materialized (trajectory + codebook + protocol)."""

    def on_start(self, users: int, duration_s: float) -> None:
        """Population built; the simulated run begins."""

    def on_run(self, sim_now_s: float, duration_s: float) -> None:
        """The simulated clock reached ``sim_now_s`` of ``duration_s``."""

    def on_finish(self, users: int, elapsed_s: float) -> None:
        """Run complete (``elapsed_s`` is wall-clock)."""

    def on_shard_done(self, done: int, total: int, elapsed_s: float) -> None:
        """One shard of a sharded run completed (or resumed from disk)."""

    def on_heartbeat(self, shard_index: int, beat: dict) -> None:
        """Monitor heartbeat from a worker (events, RSS/CPU sample)."""

    def on_stall(self, shard_index: int, silent_s: float) -> None:
        """A watched shard has been silent for ``silent_s`` seconds."""

    def bind_events(self, sim) -> None:
        """Offer the built simulator so heartbeats can report events/s."""


class ConsoleFleetProgress(FleetProgress):
    """Build counter plus run-phase percentage with a wall-clock ETA.

    With ``watch=True`` (``repro fleet run --watch``) the per-event
    lines collapse into one ``\\r``-refreshed status line — shards
    done, aggregate simulated time, fleet-wide events/s, peak worker
    RSS — closed with a newline on finish.  Stall warnings always get
    their own full line, in either mode.
    """

    def __init__(self, watch: bool = False) -> None:
        self._stream = sys.stderr
        self._watch = watch
        self._started_at = 0.0
        self._last_build_line = 0
        # Watch/heartbeat state: per-shard last beat for rate math.
        self._beat_prev: dict = {}
        self._rates: dict = {}
        self._rss_kb: dict = {}
        self._built = (0, 0)
        self._run = (0.0, 0.0)
        self._shards = (0, 0)
        self._line_len = 0

    # ----------------------------------------------------- watch line
    def _render(self) -> None:
        parts = []
        if self._shards[1]:
            parts.append(f"{self._shards[0]}/{self._shards[1]} shards")
        if self._built[1]:
            parts.append(f"built {self._built[0]}/{self._built[1]}")
        sim_now, duration = self._run
        if duration > 0.0:
            fraction = min(1.0, sim_now / duration)
            parts.append(
                f"t={sim_now:.2f}/{duration:g}s ({100.0 * fraction:.0f}%)"
            )
        rate = sum(self._rates.values())
        if rate > 0:
            parts.append(f"{rate:,.0f} ev/s")
        rss = [kb for kb in self._rss_kb.values() if kb]
        if rss:
            parts.append(f"rss {max(rss) / 1024:.0f}MB/worker")
        line = "fleet: " + " | ".join(parts) if parts else "fleet: starting"
        pad = max(0, self._line_len - len(line))
        self._line_len = len(line)
        print("\r" + line + " " * pad, end="", file=self._stream, flush=True)

    def _close_line(self) -> None:
        if self._watch and self._line_len:
            print(file=self._stream)
            self._line_len = 0

    # ----------------------------------------------------- base hooks
    def on_build(self, built: int, total: int) -> None:
        self._built = (built, total)
        if self._watch:
            self._render()
            return
        # Cap the build chatter at ~10 lines regardless of fleet size.
        step = max(1, total // 10)
        if built == total or built - self._last_build_line >= step:
            self._last_build_line = built
            print(f"fleet: built {built}/{total} users", file=self._stream)

    def on_start(self, users: int, duration_s: float) -> None:
        self._started_at = time.monotonic()
        if self._watch:
            self._run = (0.0, duration_s)
            self._render()
            return
        print(
            f"fleet: running {users} users for {duration_s:g}s simulated",
            file=self._stream,
        )

    def on_run(self, sim_now_s: float, duration_s: float) -> None:
        if duration_s <= 0.0:
            return
        if self._watch:
            self._run = (sim_now_s, duration_s)
            self._render()
            return
        fraction = min(1.0, sim_now_s / duration_s)
        elapsed = time.monotonic() - self._started_at
        eta = elapsed * (1.0 - fraction) / fraction if fraction > 0.0 else None
        eta_text = f", eta {eta:.0f}s" if eta is not None and eta > 0.05 else ""
        print(
            f"fleet: t={sim_now_s:.2f}/{duration_s:g}s "
            f"({100.0 * fraction:.0f}%{eta_text})",
            file=self._stream,
        )

    def on_finish(self, users: int, elapsed_s: float) -> None:
        self._close_line()
        print(
            f"fleet: {users} users done in {elapsed_s:.1f}s wall",
            file=self._stream,
        )

    def on_shard_done(self, done: int, total: int, elapsed_s: float) -> None:
        self._shards = (done, total)
        if self._watch:
            self._render()
            return
        print(
            f"fleet: shard {done}/{total} done ({elapsed_s:.1f}s)",
            file=self._stream,
        )

    # -------------------------------------------------- monitor hooks
    def on_heartbeat(self, shard_index: int, beat: dict) -> None:
        now = time.monotonic()
        events = beat.get("events")
        prev = self._beat_prev.get(shard_index)
        if (
            prev is not None
            and events is not None
            and prev[0] is not None
            and now > prev[1]
        ):
            self._rates[shard_index] = max(
                0.0, (events - prev[0]) / (now - prev[1])
            )
        self._beat_prev[shard_index] = (events, now)
        if beat.get("rss_kb"):
            self._rss_kb[shard_index] = beat["rss_kb"]
        if self._watch:
            self._render()
            return
        parts = [f"fleet: hb shard {shard_index} {beat.get('phase', '?')}"]
        if beat.get("sim_now_s") is not None:
            parts.append(f"t={beat['sim_now_s']:.2f}s")
        if shard_index in self._rates:
            parts.append(f"{self._rates[shard_index]:,.0f} ev/s")
        if beat.get("rss_kb"):
            parts.append(f"rss={beat['rss_kb'] / 1024:.0f}MB")
        if beat.get("cpu_s") is not None:
            parts.append(f"cpu={beat['cpu_s']:.1f}s")
        print(" ".join(parts), file=self._stream)

    def on_stall(self, shard_index: int, silent_s: float) -> None:
        self._close_line()
        print(
            f"fleet: WARNING shard {shard_index} silent for {silent_s:.0f}s",
            file=self._stream,
        )
        if self._watch:
            self._render()


# ------------------------------------------------------------- sharded runs
class QueueShardProgress(FleetProgress):
    """Worker-side adapter: forwards hooks as events on the pool sink.

    Installed inside shard workers; events cross the pool pipe to the
    driver's :class:`ShardProgressAggregator`.  Build chatter is
    throttled per shard (a million-user run must not flood the pipe
    with per-user events); run-slice events are already bounded by
    :data:`repro.fleet.runner.PROGRESS_SLICES`.

    With ``heartbeat_s`` set (the monitor is on), a
    :class:`repro.obs.monitor.HeartbeatEmitter` piggybacks on the same
    sink: every build/run hook offers it a chance to post a throttled
    ``("hb", shard, beat)`` event carrying events/s inputs and an
    RSS/CPU sample.  The emitter only observes — simulation state is
    never touched, so artifacts stay byte-identical monitor on or off.
    """

    def __init__(
        self,
        sink,
        shard_index: int,
        heartbeat_s: Optional[float] = None,
    ) -> None:
        self._sink = sink
        self._shard = shard_index
        self._last_built = 0
        self._heartbeat = None
        if heartbeat_s is not None:
            from repro.obs.monitor import HeartbeatEmitter

            self._heartbeat = HeartbeatEmitter(
                self._post, shard_index, heartbeat_s
            )

    def bind_events(self, sim) -> None:
        if self._heartbeat is not None:
            self._heartbeat.events_fn = lambda: sim.events_fired

    def _post(self, event) -> None:
        try:
            self._sink.put(event)
        except (OSError, ValueError):  # driver gone; progress is advisory
            pass

    def on_build(self, built: int, total: int) -> None:
        step = max(1, total // 5)
        if built == total or built - self._last_built >= step:
            self._last_built = built
            self._post(("build", self._shard, built, total))
        if self._heartbeat is not None:
            # Outside the build throttle: heartbeats must keep flowing
            # during a long build even when build events are sparse.
            self._heartbeat.maybe_beat("build")

    def on_start(self, users: int, duration_s: float) -> None:
        self._post(("start", self._shard, users, duration_s))

    def on_run(self, sim_now_s: float, duration_s: float) -> None:
        self._post(("run", self._shard, sim_now_s, duration_s))
        if self._heartbeat is not None:
            self._heartbeat.maybe_beat("run", sim_now_s, duration_s)


class ShardProgressAggregator:
    """Driver-side fold of per-shard events into one fleet-wide view.

    Receives ``("build"|"start"|"run"|"hb", shard_index, ...)`` tuples
    (any interleaving across shards) and forwards population-level
    aggregates to the wrapped reporter: built users sum across shards,
    and the run clock is the user-weighted mean of shard clocks — a
    shard that finished contributes its full duration, an unstarted
    shard contributes zero, so the fraction is overall progress.

    When a :class:`repro.obs.monitor.StallDetector` is supplied, every
    event notes liveness for its shard and :meth:`tick` (polled from
    the pool drain loop) surfaces newly-stalled shards via the
    reporter's ``on_stall`` hook.
    """

    def __init__(
        self,
        inner: FleetProgress,
        n_users: int,
        duration_s: float,
        stall=None,
    ) -> None:
        self._inner = inner
        self._n_users = max(1, n_users)
        self._duration_s = duration_s
        self._stall = stall
        self._built: dict = {}
        self._shard_users: dict = {}
        self._sim_now: dict = {}

    def handle(self, event) -> None:
        kind, shard_index = event[0], event[1]
        if self._stall is not None:
            self._stall.note(shard_index)
        if kind == "build":
            self._built[shard_index] = event[2]
            self._inner.on_build(
                sum(self._built.values()), self._n_users
            )
        elif kind == "start":
            self._shard_users[shard_index] = event[2]
        elif kind == "run":
            self._sim_now[shard_index] = event[2]
            weighted = sum(
                self._shard_users.get(index, 0) * now
                for index, now in self._sim_now.items()
            )
            self._inner.on_run(weighted / self._n_users, self._duration_s)
        elif kind == "hb":
            self._inner.on_heartbeat(shard_index, event[2])

    def tick(self) -> None:
        """Poll the stall detector; called from the pool drain loop."""
        if self._stall is None:
            return
        for shard_index, silent_s in self._stall.newly_stalled():
            self._inner.on_stall(shard_index, silent_s)

    def shard_finished(self, shard_index: int) -> None:
        """Mark a shard complete so the aggregate clock stays honest."""
        if shard_index in self._shard_users:
            self._sim_now[shard_index] = self._duration_s
        if self._stall is not None:
            self._stall.unwatch(shard_index)
