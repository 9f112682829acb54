"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import (
    EventQueue,
    PeriodicTask,
    SimulationError,
    Simulator,
)


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        fired = []
        queue.push(2.0, fired.append, ("b",))
        queue.push(1.0, fired.append, ("a",))
        first = queue.pop()
        second = queue.pop()
        assert (first.time, second.time) == (1.0, 2.0)

    def test_same_time_fifo(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None, label="first")
        second = queue.push(1.0, lambda: None, label="second")
        assert queue.pop() is first
        assert queue.pop() is second

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        keeper = queue.push(2.0, lambda: None)
        event.cancel()
        assert queue.pop() is keeper

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        event.cancel()
        assert queue.peek_time() == 5.0

    def test_empty_pop(self):
        assert EventQueue().pop() is None
        assert EventQueue().peek_time() is None

    def test_cancel_is_idempotent(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        keeper = queue.push(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert queue.pop() is keeper
        assert queue.pop() is None

    def test_cancel_releases_callback_and_args(self):
        # A tombstone waits in the heap until it is popped; it must not
        # keep its callback's owner alive until then.
        queue = EventQueue()
        payload = object()
        event = queue.push(1.0, lambda _: None, (payload,))
        event.cancel()
        assert event.callback is None
        assert event.args == ()
        assert queue.pop() is None

    def test_cancel_after_pop_leaves_queue_intact(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        remaining = queue.push(2.0, lambda: None)
        assert queue.pop() is event
        event.cancel()  # the fired handle has left the heap
        assert queue.peek_time() == 2.0
        assert queue.pop() is remaining
        assert queue.pop() is None


class TestSimulator:
    def test_clock_advances_to_end(self):
        sim = Simulator()
        sim.run_until(5.0)
        assert sim.now == 5.0

    def test_callback_sees_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run_until(2.0)
        assert seen == [1.5]

    def test_events_beyond_horizon_not_fired(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, "late")
        sim.run_until(2.0)
        assert fired == []
        sim.run_until(4.0)
        assert fired == ["late"]

    def test_zero_delay_allowed(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, fired.append, "now")
        sim.run_until(0.0)
        assert fired == ["now"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run_until(2.0)
        assert fired == []

    def test_nested_scheduling(self):
        sim = Simulator()
        order = []

        def outer():
            order.append("outer")
            sim.schedule(1.0, lambda: order.append("inner"))

        sim.schedule(1.0, outer)
        sim.run_until(3.0)
        assert order == ["outer", "inner"]

    def test_run_until_backwards_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.run_until(4.0)

    def test_max_events_guard(self):
        sim = Simulator()

        def storm():
            sim.schedule(0.0, storm)

        sim.schedule(0.0, storm)
        with pytest.raises(SimulationError):
            sim.run_until(1.0, max_events=100)

    def test_stop_halts_loop(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run_until(5.0)
        assert fired == [1]

    def test_events_fired_counter(self):
        sim = Simulator()
        for k in range(4):
            sim.schedule(float(k), lambda: None)
        sim.run_until(10.0)
        assert sim.events_fired == 4

    def test_run_until_resumes_after_stop(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run_until(5.0)
        assert fired == [1]
        assert sim.now == 1.0
        sim.run_until(5.0)
        assert fired == [1, 2]
        assert sim.now == 5.0


class TestPeriodicTask:
    def test_fires_at_period(self):
        sim = Simulator()
        times = []
        PeriodicTask(sim, 0.5, lambda: times.append(sim.now))
        sim.run_until(2.1)
        assert times == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])

    def test_start_delay(self):
        sim = Simulator()
        times = []
        PeriodicTask(sim, 1.0, lambda: times.append(sim.now), start_delay=0.25)
        sim.run_until(2.5)
        assert times == pytest.approx([0.25, 1.25, 2.25])

    def test_no_drift_over_many_ticks(self):
        sim = Simulator()
        times = []
        PeriodicTask(sim, 0.02, lambda: times.append(sim.now))
        sim.run_until(10.0)
        # The 500th tick lands exactly on 500 * 0.02 despite float steps.
        assert times[500] == pytest.approx(10.0, abs=1e-9)

    def test_stop_inside_callback(self):
        sim = Simulator()
        count = [0]
        task_ref = []

        def tick():
            count[0] += 1
            if count[0] == 3:
                task_ref[0].stop()

        task_ref.append(PeriodicTask(sim, 1.0, tick))
        sim.run_until(10.0)
        assert count[0] == 3

    def test_next_fire_after_stop_inside_callback(self):
        # Regression: the in-flight tick counts as fired, so a stop()
        # from inside the callback leaves next_fire_s pointing at the
        # FOLLOWING tick — a restarted schedule must not repeat it.
        sim = Simulator()
        task_ref = []

        def tick():
            task_ref[0].stop()

        task_ref.append(PeriodicTask(sim, 1.0, tick, start_delay=0.25))
        sim.run_until(2.0)
        assert task_ref[0].next_fire_s == pytest.approx(1.25)

    def test_next_fire_after_stop_outside(self):
        sim = Simulator()
        task = PeriodicTask(sim, 1.0, lambda: None)
        sim.run_until(2.5)
        task.stop()
        assert task.next_fire_s == pytest.approx(3.0)

    def test_stop_outside(self):
        sim = Simulator()
        count = [0]
        task = PeriodicTask(sim, 1.0, lambda: count.__setitem__(0, count[0] + 1))
        sim.run_until(2.5)
        task.stop()
        sim.run_until(10.0)
        assert count[0] == 3  # t = 0, 1, 2

    def test_rejects_nonpositive_period(self):
        with pytest.raises(SimulationError):
            PeriodicTask(Simulator(), 0.0, lambda: None)


class TestPopBatch:
    def test_returns_all_head_timestamp_events_in_seq_order(self):
        queue = EventQueue()
        queue.push(2.0, lambda: None, label="later")
        a = queue.push(1.0, lambda: None, label="a")
        b = queue.push(1.0, lambda: None, label="b")
        batch = queue.pop_batch()
        assert batch == [a, b]
        assert queue.peek_time() == 2.0

    def test_skips_cancelled_members(self):
        queue = EventQueue()
        a = queue.push(1.0, lambda: None)
        b = queue.push(1.0, lambda: None)
        c = queue.push(1.0, lambda: None)
        b.cancel()
        assert queue.pop_batch() == [a, c]

    def test_empty_queue(self):
        assert EventQueue().pop_batch() == []

    def test_requeue_restores_events(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.push(1.0, lambda: None)
        batch = queue.pop_batch()
        queue.requeue(batch[1:])
        assert queue.pop() is batch[1]
        assert queue.pop() is None

    def test_requeue_drops_events_cancelled_after_pop(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.push(1.0, lambda: None)
        batch = queue.pop_batch()
        batch[1].cancel()
        queue.requeue(batch[1:])
        assert queue.peek_time() is None
        assert queue.pop() is None


class TestBatchedRunLoop:
    def test_same_time_event_cancelled_by_earlier_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handles = {}

        def first():
            fired.append("first")
            handles["second"].cancel()

        sim.schedule(1.0, first)
        handles["second"] = sim.schedule(1.0, lambda: fired.append("second"))
        sim.run_until(2.0)
        assert fired == ["first"]
        sim.run_until(10.0)  # the cancelled event never fires later
        assert sim.events_fired == 1

    def test_stop_mid_batch_requeues_remainder(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.stop()

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: fired.append("second"))
        sim.run_until(2.0)
        assert fired == ["first"]
        assert sim.stop_requested
        assert sim.now == pytest.approx(1.0)
        # Resuming fires the requeued event at its original time.
        sim.run_until(2.0)
        assert fired == ["first", "second"]

    def test_max_events_mid_batch_leaves_queue_consistent(self):
        sim = Simulator()
        fired = []
        for name in ("a", "b", "c"):
            sim.schedule(1.0, lambda n=name: fired.append(n))
        with pytest.raises(SimulationError):
            sim.run_until(2.0, max_events=2)
        assert fired == ["a", "b"]
        assert sim.now == pytest.approx(1.0)
        sim.run_until(2.0)
        assert fired == ["a", "b", "c"]
        assert sim.now == pytest.approx(2.0)


class TestPeriodicClampedReschedule:
    def test_callback_consuming_time_clamps_instead_of_crashing(self):
        # White-box: a callback that (illegally) advances the clock past
        # its own next tick must clamp the reschedule to "now", not
        # raise a cannot-schedule-in-the-past error.
        sim = Simulator()
        times = []

        def greedy_tick():
            times.append(sim.now)
            if len(times) == 1:
                sim._now = 2.7  # jump past ticks at 1.0 and 2.0

        PeriodicTask(sim, 1.0, greedy_tick)
        sim.run_until(3.5, max_events=10)
        # The overrun grid points (1.0, 2.0) fire as immediate clamped
        # catch-up ticks at the advanced clock, then the drift-free
        # grid resumes at origin + k * period.
        assert times == [0.0, 2.7, 2.7, 3.0]
