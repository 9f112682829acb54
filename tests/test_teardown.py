"""A stopped run holds no reference cycle, and ``stop()`` is final.

Every mobile carries its own protocol state (serving tracker, neighbour
tracker, random access), so a fleet is thousands of small objects.  If
any of them pointed back at the deployment after the run, the whole
graph would wait for a full cyclic collection, and the memory of
several finished fleets would pile up.  These tests build, run, stop
and drop a run with the cyclic collector off, then ask it what it
finds: nothing.
"""

import gc
from collections import Counter

import pytest

from repro.api import Session, TrialSpec
from repro.core.silent_tracker import SilentTracker
from repro.experiments.fig2c import run_tracking_trial
from repro.experiments.scenarios import build_cell_edge_deployment
from repro.fleet.runner import build_fleet, run_built_fleet
from repro.fleet.spec import FleetSpec, UserProfile
from repro.net.deployment import DeploymentConfig
from repro.net.random_access import RandomAccessProcedure
from repro.registry import PROTOCOLS, load_builtins
from repro.sim.engine import Simulator

from channel_configs import DETERMINISTIC

load_builtins()
ARMS = PROTOCOLS.names()


def cyclic_garbage(body):
    """Types of the objects the cyclic collector finds after ``body()``.

    ``body`` runs once first, so imports and module-level caches it
    fills are not counted.
    """
    body()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        body()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    return found


def fleet_spec(protocol="silent-tracker", topology="street"):
    corridor = {"topology": "corridor", "n_cells": 12} if topology == "corridor" else {}
    return FleetSpec(
        "teardown",
        n_users=6,
        profiles=(
            UserProfile("walkers", scenario="walk", protocol=protocol,
                        start_jitter_s=0.2),
            UserProfile("drivers", scenario="vehicular", protocol=protocol),
        ),
        seed=3,
        duration_s=2.0,
        **corridor,
    )


def run_and_drop(spec, trace=False):
    run_built_fleet(build_fleet(spec, trace=trace))


class TestNoCycleAfterStop:
    @pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("protocol", ARMS)
    def test_street_fleet(self, protocol, trace):
        spec = fleet_spec(protocol)
        assert cyclic_garbage(lambda: run_and_drop(spec, trace)) == Counter()

    def test_corridor_fleet(self):
        spec = fleet_spec(topology="corridor")
        assert cyclic_garbage(lambda: run_and_drop(spec)) == Counter()

    def test_tracking_trial(self):
        def body():
            run_tracking_trial("walk", seed=3)

        assert cyclic_garbage(body) == Counter()

    @pytest.mark.parametrize("protocol", ARMS)
    def test_session_closed_without_running(self, protocol):
        def body():
            with Session(TrialSpec(scenario="walk", protocol=protocol, seed=3)) as s:
                s.attach_protocol()

        assert cyclic_garbage(body) == Counter()


class CountingTracker(SilentTracker):
    """Counts the random-access completions it is handed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rach_completions = 0

    def _on_rach_complete(self, result):
        self.rach_completions += 1
        super()._on_rach_complete(result)


def tracker_mid_rach(seed=1):
    """A walk trial stopped while random access is in flight."""
    deployment, mobile = build_cell_edge_deployment(
        seed, config=DeploymentConfig(master_seed=seed, channel=DETERMINISTIC)
    )
    tracker = CountingTracker(deployment, mobile, "cellA")
    tracker.start()
    while tracker._rach is None:
        assert deployment.sim.now < 10.0, "no handover began"
        deployment.run(0.001)
    return deployment, mobile, tracker


class TestArmStop:
    def test_stop_mid_rach_is_final(self):
        deployment, mobile, tracker = tracker_mid_rach()
        records = list(tracker.handover_log.records)
        open_record = records[-1]
        assert open_record.complete_s is None and open_record.outcome is None
        tracker.stop()
        assert tracker._rach is None
        # The deployment resumes after stop(); the aborted procedure's
        # pending messages fire as no-ops.
        fired = deployment.sim.events_fired
        deployment.run(1.0)
        assert deployment.sim.events_fired > fired
        assert tracker.rach_completions == 0
        assert tracker.handover_log.records == records
        assert open_record.complete_s is None and open_record.outcome is None
        assert mobile.connection.serving_cell == "cellA"

    def test_stop_detaches_the_mobile(self):
        deployment, mobile, tracker = tracker_mid_rach()
        assert mobile.listener is tracker
        tracker.stop()
        assert mobile.listener is None
        assert tracker.beamsurfer._on_transition is None
        assert tracker.tracker._on_transition is None
        measured = mobile.bursts_measured
        deployment.run(0.2)
        assert mobile.bursts_measured == measured

    def test_stop_twice_is_a_no_op(self):
        deployment, mobile, tracker = tracker_mid_rach()
        tracker.stop()
        records = list(tracker.handover_log.records)
        counters = deployment.metrics.counters()
        tracker.stop()
        assert mobile.listener is None
        assert tracker._rach is None
        assert tracker.handover_log.records == records
        assert deployment.metrics.counters() == counters

    def test_stop_leaves_another_listener_attached(self):
        _, mobile, tracker = tracker_mid_rach()
        other = object()
        mobile.attach_listener(other)
        tracker.stop()
        assert mobile.listener is other


class TestRachAbort:
    def test_pending_message_becomes_a_no_op(self):
        sim = Simulator()
        completed = []
        procedure = RandomAccessProcedure(
            sim, None, None, None, DeploymentConfig().rach,
            lambda: 0, lambda: 0, completed.append,
        )
        procedure.start()
        procedure.abort()
        sim.run_until(1.0)
        assert sim.events_fired >= 1
        assert completed == []
