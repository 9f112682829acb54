"""Deterministic discrete-event simulation engine.

Design goals, in priority order:

1. **Determinism** — events scheduled for the same timestamp fire in
   scheduling order (a monotone sequence number breaks ties), so a run is
   a pure function of its configuration and master seed.
2. **Simplicity** — callbacks, not coroutines.  Protocol state machines
   in this codebase are explicit objects; they do not need generator
   processes, and plain callbacks keep stack traces readable.
3. **Cancelability** — timers (RACH response windows, handover guards)
   need to be cancelable without O(n) heap surgery; cancellation leaves
   a lazy tombstone (an event without a callback) in the heap.

Periodic work comes in two forms.  :class:`PeriodicTask` is one
self-rescheduling callback.  :class:`BurstScheduler` coalesces every
member that shares a ``(first fire, period)`` grid onto one heap event
per tick; a deployment runs two of them, one for SSB delivery (the
whole same-tick station group in one call) and one for the protocol
watchdogs (each arm's check, in registration order).  A single-member
grid is event-for-event a ``PeriodicTask``.  A shared grid re-arms once
per tick, after all its members, so an event scheduled exactly one
period ahead by a member — a watchdog-started msg1 — fires before that
later tick's whole group instead of between its members; see the
:class:`BurstScheduler` determinism contract.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional, Tuple

from repro.obs import telemetry as _telemetry
from repro.obs.telemetry import wall_clock


class SimulationError(RuntimeError):
    """Raised for invalid engine usage (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Instances are handles: hold one to :meth:`cancel` the event before it
    fires.  Events compare by ``(time, seq)`` so the heap ordering is total
    and deterministic.
    """

    __slots__ = ("time", "seq", "callback", "args", "label")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...],
        label: str,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.label = label

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent.

        A cancelled event is one whose ``callback`` is ``None``.  The
        callback and its arguments go at once: the tombstone stays in
        the heap until it is popped, and must not keep what the
        callback reaches alive until then.
        """
        self.callback = None
        self.args = ()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.callback is None else "pending"
        return f"Event(t={self.time:.6f}, label={self.label!r}, {state})"


class EventQueue:
    """Min-heap of :class:`Event` with deterministic same-time ordering."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()

    def push(
        self,
        time: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
        label: str = "",
    ) -> Event:
        """Add an event; returns its handle."""
        event = Event(time, next(self._counter), callback, args, label)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or ``None``."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.callback is not None:
                return event
        return None

    def pop_batch(self) -> List[Event]:
        """Remove and return every non-cancelled event at the head timestamp.

        Events come back in ``(time, seq)`` order — exactly the order
        :meth:`pop` would have produced them one at a time — so a
        coalesced dispatch loop pays one heap scan per *timestamp*
        instead of one per event.  Returns ``[]`` when the queue is
        empty.
        """
        first = self.pop()
        if first is None:
            return []
        batch = [first]
        heap = self._heap
        while heap and heap[0].time == first.time:
            event = heapq.heappop(heap)
            if event.callback is not None:
                batch.append(event)
        return batch

    def requeue(self, events: List[Event]) -> None:
        """Return popped-but-unfired events to the heap.

        Used by the batched run loop when a stop request lands
        mid-batch: the remaining events
        must look exactly as if they had never been popped.  Events
        cancelled after the pop are dropped.
        """
        for event in events:
            if event.callback is not None:
                heapq.heappush(self._heap, event)

    def peek_time(self) -> Optional[float]:
        """Timestamp of the earliest pending event, or ``None`` when empty."""
        while self._heap and self._heap[0].callback is None:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0].time


class Simulator:
    """Event loop and simulated clock.

    Typical usage::

        sim = Simulator()
        sim.schedule(0.02, burst_handler)
        sim.run_until(2.0)

    Time is in **seconds** of simulated time.  The engine never consults
    the wall clock.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        self._running = False
        self._events_fired = 0
        self._stop_requested = False
        # Ambient telemetry, re-resolved at every `_run_loop` entry so a
        # hub installed via `obs.telemetry.use()` after construction
        # still sees engine spans; cached on the instance between entries
        # because the dispatch loop is the hottest pure-Python path and
        # the disabled case must cost one attribute check per event.
        self._telemetry = _telemetry.current()

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of callbacks executed so far (diagnostic)."""
        return self._events_fired

    @property
    def stop_requested(self) -> bool:
        """Whether the last run was halted by :meth:`stop`.

        Stays true until the next run begins, so callers that advance
        time in slices can tell a drained/expired run from a stopped
        one between slices.
        """
        return self._stop_requested

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now.

        A zero delay is allowed (fires after currently-executing event,
        before time advances); negative delays are an error.
        """
        if delay < 0.0:
            raise SimulationError(f"cannot schedule in the past: delay={delay!r}")
        if math.isnan(delay) or math.isinf(delay):
            raise SimulationError(f"delay must be finite, got {delay!r}")
        return self._queue.push(self._now + delay, callback, args, label)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule unlabeled ``callback(*args)`` at absolute ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time!r}, now is {self._now!r}"
            )
        return self._queue.push(time, callback, args, "")

    def stop(self) -> None:
        """Request the run loop to stop after the current event returns."""
        self._stop_requested = True

    def _run_loop(self, end_time: float) -> None:
        """The event loop behind :meth:`run_until`.

        Fires events in ``(time, seq)`` order until the queue drains,
        simulated time would pass ``end_time``, or :meth:`stop` is
        called from a callback.

        Dispatch is batched: all events sharing the head timestamp are
        popped together (:meth:`EventQueue.pop_batch`), so a dense
        deployment whose stations coalesce on a few tick grids pays one
        heap scan per tick instead of one per event.  Observable
        semantics are unchanged — events still fire one at a time in
        ``(time, seq)`` order, a stop mid-batch requeues the
        unfired remainder, and an event cancelled by an earlier event in
        its own batch does not fire.
        """
        if self._running:
            raise SimulationError("run loop is not reentrant")
        self._running = True
        self._stop_requested = False
        # Satellite fix: re-resolve the ambient hub here, not only at
        # __init__ — a hub installed after the simulator was constructed
        # must see engine spans.
        telemetry = self._telemetry = _telemetry.current()
        try:
            while not self._stop_requested:
                next_time = self._queue.peek_time()
                if next_time is None:
                    break
                if next_time > end_time:
                    break
                batch = self._queue.pop_batch()
                if not batch:
                    break
                self._now = next_time
                for index, event in enumerate(batch):
                    if self._stop_requested:
                        self._queue.requeue(batch[index:])
                        break
                    if event.callback is None:
                        # Cancelled after the pop by an earlier event in
                        # this batch; the single-pop loop would never
                        # have popped it.
                        continue
                    if telemetry.enabled:
                        # Span names bucket by the label's first dotted
                        # component ("ssb", "rach", ...) to bound
                        # cardinality; counters keep the full label.
                        label = event.label or "unlabeled"
                        started = wall_clock()
                        event.callback(*event.args)
                        telemetry.record_span(
                            "sim.event." + label.partition(".")[0],
                            started,
                            wall_clock(),
                        )
                        telemetry.incr("sim.events." + label)
                    else:
                        event.callback(*event.args)
                    self._events_fired += 1
        finally:
            self._running = False

    def run_until(self, end_time: float) -> None:
        """Run events in order until simulated time reaches ``end_time``.

        The clock is left exactly at ``end_time`` even when the queue
        drains early, so periodic post-run bookkeeping sees a consistent
        time base.
        """
        if end_time < self._now:
            raise SimulationError(
                f"end_time {end_time!r} is before current time {self._now!r}"
            )
        self._run_loop(end_time)
        if not self._stop_requested:
            self._now = max(self._now, end_time)


class PeriodicTask:
    """Self-rescheduling periodic callback with drift-free timing.

    Fires at ``start + k * period`` for k = 0, 1, 2, ... until
    :meth:`stop` is called; every tick is an event labeled ``periodic``.
    Firing times are computed from the initial phase rather than
    accumulated, so long runs do not drift.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], None],
        start_delay: float = 0.0,
    ) -> None:
        if period <= 0.0:
            raise SimulationError(f"period must be positive, got {period!r}")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._tick = 0
        self._origin = sim.now + start_delay
        self._stopped = False
        self._pending: Optional[Event] = sim.schedule(
            start_delay, self._fire, label="periodic"
        )

    @property
    def period(self) -> float:
        return self._period

    @property
    def next_fire_s(self) -> float:
        """Scheduled time of the next tick that has not fired yet.

        Remains meaningful after :meth:`stop` — it is the first tick the
        task *would* have fired — so a restarted schedule can resume
        without repeating a tick that already ran.
        """
        return self._origin + self._tick * self._period

    def _fire(self) -> None:
        if self._stopped:
            return
        self._pending = None
        # The in-flight tick counts as fired from here on: a stop()
        # issued inside the callback must leave next_fire_s pointing
        # past it, or a restarted schedule would repeat it.
        self._tick += 1
        self._callback()
        if self._stopped:
            return
        next_time = self._origin + self._tick * self._period
        # Guard against callbacks that consumed simulated time themselves
        # (they should not, but a clamped reschedule beats a crash).
        delay = max(0.0, next_time - self._sim.now)
        self._pending = self._sim.schedule(delay, self._fire, label="periodic")

    def stop(self) -> None:
        """Stop firing.  Safe to call from within the callback."""
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None


class BurstMember:
    """Handle for one payload registered on a :class:`BurstScheduler`.

    Mirrors the :class:`PeriodicTask` resume contract: after
    :meth:`stop`, :attr:`next_fire_s` is the first grid tick that has
    not delivered yet, so a restarted schedule can resume without
    repeating a tick.
    """

    __slots__ = ("payload", "label", "_grid", "_stopped")

    def __init__(self, payload: Any, label: str, grid: "_BurstGrid") -> None:
        self.payload = payload
        self.label = label
        self._grid = grid
        self._stopped = False

    @property
    def next_fire_s(self) -> float:
        """Scheduled time of the next tick that has not delivered yet."""
        return self._grid.origin + self._grid.tick * self._grid.period

    def stop(self) -> None:
        """Withdraw this member from future ticks.  Safe mid-delivery."""
        if self._stopped:
            return
        self._stopped = True
        self._grid.on_member_stopped()


class _BurstGrid:
    """One ``(first_fire, period)`` tick grid shared by N members."""

    __slots__ = ("origin", "period", "members", "n_live", "tick", "pending")

    def __init__(self, origin: float, period: float) -> None:
        self.origin = origin
        self.period = period
        #: Members in registration order.  A stop only decrements
        #: :attr:`n_live`; stopped members leave the list at the next
        #: :meth:`live` call, so stopping all N members costs O(N).
        self.members: List[BurstMember] = []
        self.n_live = 0
        self.tick = 0
        self.pending: Optional[Event] = None

    def live(self) -> List[BurstMember]:
        """The members not yet stopped, in registration order."""
        members = self.members
        if len(members) != self.n_live:
            members = self.members = [m for m in members if not m._stopped]
        return members

    def label(self) -> str:
        """Event label: the member's own label while the grid is
        single-member (observability continuity with the
        ``PeriodicTask`` it replaces), an aggregate label once coalesced.
        """
        live = self.live()
        if len(live) == 1:
            return live[0].label
        prefix = live[0].label.partition(".")[0] if live else "burst"
        return f"{prefix}.x{len(live)}"

    def on_member_stopped(self) -> None:
        self.n_live -= 1
        if self.n_live == 0:
            self.members = []
            if self.pending is not None:
                self.pending.cancel()
                self.pending = None


class BurstScheduler:
    """Coalesces periodic deliveries that share a tick grid.

    Members registered with the same ``(first_fire, period)`` key share
    one :class:`_BurstGrid`, so G distinct grids cost G heap events per
    period however many members ride them.  A deployment has two users:

    * **SSB delivery** (``deliver`` given): a K-station deployment whose
      SSB phases fall into G phase slots schedules G events per period
      instead of K, and each event hands the *whole* station group to
      ``deliver``, in registration order — the entry point for
      multi-station batched burst evaluation;
    * **protocol watchdogs** (``deliver=None``): each payload is a
      zero-argument callable, fired in registration order, so N arms
      started at the same instant share one event per monitor period
      instead of N.  A member stopped earlier in a tick does not fire
      later in that tick, as its cancelled ``PeriodicTask`` would not.

    Determinism contract (load-bearing; pinned by the scheduler
    equivalence tests and ``tests/test_watchdog_grid.py``):

    * A **single-member grid** is externally indistinguishable from the
      ``PeriodicTask`` it replaces: its event fires at the same times
      with the same label, and the tick-advance / deliver / re-arm
      sequence allocates event sequence numbers at the same execution
      positions, so runs are byte-identical to one ``PeriodicTask`` per
      member for *any* workload.
    * A **multi-member grid** re-arms once per tick (after the whole
      group delivers) where per-member tasks would re-arm once per member
      (interleaved with deliveries).  The two orderings diverge only if
      some *other* event lands exactly on a shared grid tick:

      - SSB grids: dense topologies built by this repo place coalesced
        phases on non-integer-millisecond offsets, where the protocol
        layer — whose RACH/handover delays all live on an
        integer-millisecond lattice — provably cannot collide.
      - Watchdog grids: a watchdog callback that starts random access
        whose msg1 lands exactly one monitor period later now sees msg1
        fire *before* every watchdog of that later tick, where per-arm
        tasks fired it after the watchdogs of the arms registered
        before its own.  Only trace order changes: a watchdog draws no
        RNG and reads only its own mobile's state, so artifacts, each
        mobile's own trace subsequence and the multiset of trace
        records are unchanged.
    """

    def __init__(
        self,
        sim: Simulator,
        deliver: Optional[Callable[[List[Any]], None]] = None,
    ) -> None:
        self._sim = sim
        self._deliver = deliver
        self._grids: dict = {}

    def add(
        self,
        period_s: float,
        payload: Any,
        start_delay: float = 0.0,
        label: str = "burst",
    ) -> BurstMember:
        """Register a payload; coalesces with an existing grid on exact
        ``(origin, period)`` match, where ``origin = sim.now +
        start_delay`` — the same float expression ``PeriodicTask``
        evaluates, so single-member grids fire at bitwise-identical
        times."""
        if period_s <= 0.0:
            raise SimulationError(f"period must be positive, got {period_s!r}")
        if start_delay < 0.0:
            raise SimulationError(
                f"cannot schedule in the past: start_delay={start_delay!r}"
            )
        origin = self._sim.now + start_delay
        key = (origin, period_s)
        grid = self._grids.get(key)
        if grid is None:
            grid = _BurstGrid(origin, period_s)
            self._grids[key] = grid
        member = BurstMember(payload, label, grid)
        grid.members.append(member)
        grid.n_live += 1
        if grid.pending is None and grid.tick == 0:
            # Arm on first registration; later same-key members ride the
            # already-armed event.  (A grid whose members all stopped
            # stays retired — re-registering on it would skip ticks.)
            grid.pending = self._sim.schedule(
                start_delay, self._fire, grid, label=grid.label()
            )
        return member

    def _fire(self, grid: _BurstGrid) -> None:
        grid.pending = None
        # The in-flight tick counts as delivered from here on, exactly
        # like PeriodicTask._fire: a stop() issued inside the delivery
        # callback must leave next_fire_s pointing past it.
        grid.tick += 1
        live = grid.live()
        if self._deliver is not None:
            if live:
                self._deliver([member.payload for member in live])
        else:
            # A copy: a member joining mid-tick waits for the next tick.
            for member in list(live):
                if not member._stopped:
                    member.payload()
        if not grid.n_live:
            return
        next_time = grid.origin + grid.tick * grid.period
        # Same clamped-reschedule guard as PeriodicTask.
        delay = max(0.0, next_time - self._sim.now)
        grid.pending = self._sim.schedule(
            delay, self._fire, grid, label=grid.label()
        )

    def stop(self) -> None:
        """Stop every member and cancel all armed events."""
        for grid in self._grids.values():
            for member in grid.members:
                member._stopped = True
            grid.members = []
            grid.n_live = 0
            if grid.pending is not None:
                grid.pending.cancel()
                grid.pending = None
