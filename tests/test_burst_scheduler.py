"""Coalesced burst scheduling: grids, equivalence, telemetry pin.

The load-bearing claims of the ``BurstScheduler`` determinism contract:

* a single-member grid fires at bitwise-identical times to the
  ``PeriodicTask`` it replaces;
* same ``(origin, period)`` registrations share one grid (one heap
  event per tick, the whole group delivered together in registration
  order);
* member stop / scheduler stop retire grids without ghost events, and
  a member stop is O(1) (stopped members leave the list lazily);
* a callback grid (``deliver=None``, the watchdog grid) fires each
  payload in registration order and skips a member stopped earlier in
  the same tick, as a cancelled ``PeriodicTask`` would;
* the engine re-resolves the ambient telemetry hub at run entry, so a
  hub installed after construction still sees event spans.
"""

import pytest

from repro.obs import Telemetry, use
from repro.sim.engine import BurstScheduler, PeriodicTask, SimulationError, Simulator


def assert_idle(sim):
    """Nothing is left to fire: running on executes no event."""
    fired = sim.events_fired
    sim.run_until(sim.now + 10.0)
    assert sim.events_fired == fired


class TestSingleMemberEquivalence:
    def test_fire_times_match_periodic_task_bitwise(self):
        period = 0.02
        delay = 0.0137

        periodic_times = []
        sim_a = Simulator()
        PeriodicTask(
            sim_a, period, lambda: periodic_times.append(sim_a.now),
            start_delay=delay,
        )
        sim_a.run_until(1.0)

        coalesced_times = []
        sim_b = Simulator()
        scheduler = BurstScheduler(
            sim_b, lambda payloads: coalesced_times.append(sim_b.now)
        )
        scheduler.add(period, "station", start_delay=delay)
        sim_b.run_until(1.0)

        assert periodic_times  # the grid actually ran
        # Bitwise equality, not approx: both arms must evaluate the
        # same float expressions or dense runs drift apart.
        assert coalesced_times == periodic_times

    def test_next_fire_matches_periodic_task(self):
        sim_a = Simulator()
        task = PeriodicTask(sim_a, 0.02, lambda: None, start_delay=0.005)
        sim_a.run_until(0.1)
        task.stop()

        sim_b = Simulator()
        scheduler = BurstScheduler(sim_b, lambda payloads: None)
        member = scheduler.add(0.02, "s", start_delay=0.005)
        sim_b.run_until(0.1)
        member.stop()

        assert member.next_fire_s == task.next_fire_s


class TestCoalescing:
    def test_same_key_members_share_one_grid(self):
        sim = Simulator()
        delivered = []
        scheduler = BurstScheduler(sim, delivered.append)
        for name in ("a", "b", "c"):
            scheduler.add(0.02, name, start_delay=0.01)
        scheduler.add(0.02, "d", start_delay=0.015)  # different phase
        sim.run_until(0.02)
        # Two grids, one heap event each (at 0.01 and 0.015).
        assert sim.events_fired == 2
        # One delivery per grid tick, whole group in registration order.
        assert ["a", "b", "c"] in delivered
        assert ["d"] in delivered

    def test_coalesced_tick_is_one_event(self):
        sim = Simulator()
        scheduler = BurstScheduler(sim, lambda payloads: None)
        for name in ("a", "b", "c"):
            scheduler.add(0.02, name)
        sim.run_until(0.05)  # ticks at 0.0, 0.02, 0.04
        assert sim.events_fired == 3

    def test_stopped_member_leaves_tick(self):
        sim = Simulator()
        delivered = []
        scheduler = BurstScheduler(sim, delivered.append)
        scheduler.add(0.02, "a")
        member = scheduler.add(0.02, "b")
        sim.run_until(0.01)
        member.stop()
        sim.run_until(0.03)
        assert delivered == [["a", "b"], ["a"]]

    def test_all_members_stopped_cancels_event(self):
        sim = Simulator()
        scheduler = BurstScheduler(sim, lambda payloads: None)
        members = [scheduler.add(0.02, name) for name in ("a", "b")]
        sim.run_until(0.01)
        for member in members:
            member.stop()
        assert_idle(sim)

    def test_stop_inside_delivery_counts_tick(self):
        sim = Simulator()
        handles = {}

        def deliver(payloads):
            handles["m"].stop()

        scheduler = BurstScheduler(sim, deliver)
        handles["m"] = scheduler.add(1.0, "a", start_delay=0.25)
        sim.run_until(2.0)
        assert handles["m"].next_fire_s == pytest.approx(1.25)
        assert_idle(sim)

    def test_scheduler_stop_cancels_everything(self):
        sim = Simulator()
        delivered = []
        scheduler = BurstScheduler(sim, delivered.append)
        scheduler.add(0.02, "a")
        scheduler.add(0.03, "b")
        sim.run_until(0.01)
        scheduler.stop()
        sim.run_until(0.2)
        assert delivered == [["a"], ["b"]]  # only the t=0 ticks
        assert_idle(sim)

    def test_rejects_bad_arguments(self):
        scheduler = BurstScheduler(Simulator(), lambda payloads: None)
        with pytest.raises(SimulationError):
            scheduler.add(0.0, "a")
        with pytest.raises(SimulationError):
            scheduler.add(0.02, "a", start_delay=-0.1)

    def test_grid_label_aggregates(self):
        sim = Simulator()
        scheduler = BurstScheduler(sim, lambda payloads: None)
        member = scheduler.add(0.02, "a", label="ssb.cellA")
        assert member.next_fire_s == 0.0
        grid = member._grid
        assert grid.label() == "ssb.cellA"
        scheduler.add(0.02, "b", label="ssb.cellB")
        assert grid.label() == "ssb.x2"


class TestMemberStop:
    def test_out_of_order_stops(self):
        sim = Simulator()
        delivered = []
        members = {}

        def deliver(payloads):
            delivered.append(payloads)
            if sim.now == 0.02:
                members["b"].stop()  # mid-delivery

        scheduler = BurstScheduler(sim, deliver)
        for name in "abcde":
            members[name] = scheduler.add(0.02, name)
        sim.run_until(0.01)
        members["d"].stop()
        members["a"].stop()
        sim.run_until(0.03)
        members["e"].stop()
        sim.run_until(0.05)
        assert delivered == [
            ["a", "b", "c", "d", "e"],
            ["b", "c", "e"],
            ["c"],
        ]
        members["c"].stop()
        assert members["c"].next_fire_s == pytest.approx(0.06)
        assert_idle(sim)

    def test_stop_does_not_rebuild_member_list(self):
        sim = Simulator()
        scheduler = BurstScheduler(sim, lambda payloads: None)
        members = [scheduler.add(0.02, index) for index in range(6)]
        grid = members[0]._grid
        for member in members[::2]:
            member.stop()
        # O(1) stops: the list is compacted at the next tick, not per stop.
        assert len(grid.members) == 6
        assert grid.n_live == 3
        sim.run_until(0.0)
        assert [m.payload for m in grid.members] == [1, 3, 5]


class TestCallbackGrid:
    def test_fires_each_payload_in_registration_order(self):
        sim = Simulator()
        fired = []
        scheduler = BurstScheduler(sim)
        for name in ("a", "b", "c"):
            scheduler.add(
                0.01, lambda name=name: fired.append((sim.now, name)),
                start_delay=0.01,
            )
        sim.run_until(0.025)
        assert fired == [
            (0.01, "a"), (0.01, "b"), (0.01, "c"),
            (0.02, "a"), (0.02, "b"), (0.02, "c"),
        ]
        assert sim.events_fired == 2

    def test_member_stopped_earlier_in_tick_does_not_fire(self):
        sim = Simulator()
        fired = []
        members = {}
        scheduler = BurstScheduler(sim)

        def first():
            fired.append("a")
            members["c"].stop()

        members["a"] = scheduler.add(0.01, first)
        members["b"] = scheduler.add(0.01, lambda: fired.append("b"))
        members["c"] = scheduler.add(0.01, lambda: fired.append("c"))
        sim.run_until(0.015)
        assert fired == ["a", "b", "a", "b"]

    def test_last_member_stopping_itself_retires_grid(self):
        sim = Simulator()
        members = {}
        scheduler = BurstScheduler(sim)
        members["a"] = scheduler.add(0.01, lambda: members["a"].stop())
        sim.run_until(0.1)
        assert sim.events_fired == 1
        assert members["a"].next_fire_s == pytest.approx(0.01)
        assert_idle(sim)

    def test_single_member_matches_periodic_task_event_by_event(self):
        def trace(make):
            sim = Simulator()
            log = []
            make(sim, lambda: log.append((sim.now, sim.events_fired)))
            # An unrelated event on the same instants interleaves by seq.
            PeriodicTask(sim, 0.01, lambda: log.append((sim.now, "other")),
                         start_delay=0.01)
            sim.run_until(0.1)
            return log

        periodic = trace(lambda sim, cb: PeriodicTask(
            sim, 0.01, cb, start_delay=0.01, label="w"))
        grid = trace(lambda sim, cb: BurstScheduler(sim).add(
            0.01, cb, start_delay=0.01, label="w"))
        assert grid == periodic


class TestTelemetryReresolve:
    def test_hub_installed_after_construction_sees_event_spans(self):
        sim = Simulator()  # constructed while no hub is installed
        sim.schedule(0.5, lambda: None, label="ssb.cellA")
        hub = Telemetry()
        with use(hub):
            sim.run_until(1.0)
        summary = hub.summary()
        assert "sim.event.ssb" in summary["spans"]
        assert summary["counters"]["sim.events.ssb.cellA"] == 1
