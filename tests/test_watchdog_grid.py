"""Protocol watchdogs coalesce on the deployment's watchdog grid.

Every arm's RLF / context-loss watchdog rides
:attr:`Deployment.watchdogs`, so N arms started together share one heap
event per monitor period.  The reference here is the schedule it
replaced: one :class:`~repro.sim.engine.PeriodicTask` per arm, restored
test-locally by monkeypatching :meth:`ProtocolArm.start`.

* A multi-mobile fleet gives the same artifact bytes, the same trace
  subsequence for each mobile and the same multiset of trace records.
  Only the interleaving across mobiles may differ, and the street fleet
  below is chosen because it does differ (a watchdog-started msg1 lands
  on a later watchdog tick), so the equalities are not vacuous.
* A one-mobile run (single-member grid) gives the whole trace, in order,
  and the same number of engine events.
"""

from collections import Counter

import pytest

from repro.campaign.spec import canonical_json
from repro.core.arm import ProtocolArm
from repro.core.silent_tracker import SilentTracker
from repro.experiments.scenarios import build_cell_edge_deployment
from repro.fleet import FleetSpec, UserProfile
from repro.fleet.experiment import fleet_spec_for_cell
from repro.fleet.runner import build_fleet, run_built_fleet
from repro.obs import Telemetry, use
from repro.registry import make_protocol
from repro.sim.engine import PeriodicTask


def _per_arm_start(self):
    """``ProtocolArm.start`` as it was: one ``PeriodicTask`` per arm."""
    if self.watchdog_label is None:
        return
    if self._started:
        raise RuntimeError(f"{type(self).__name__} already started")
    self._started = True
    self._watchdog = PeriodicTask(
        self.sim,
        self.config.monitor_period_s,
        self._watchdog_tick,
        start_delay=self.config.monitor_period_s,
        label=self.watchdog_label,
    )


def _records(trace):
    return [
        (e.time, e.category, e.node, repr(sorted(e.data.items())))
        for e in trace.events
    ]


def _run_fleet(spec):
    run = build_fleet(spec, trace=True)
    result = run_built_fleet(run)
    return canonical_json(result.to_dict()), _records(run.deployment.trace), run


def _fleet_pair(spec):
    """(grid run, per-arm reference run) of one fleet spec."""
    grid = _run_fleet(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ProtocolArm, "start", _per_arm_start)
        reference = _run_fleet(spec)
    return grid, reference


def _by_node(records):
    nodes = {}
    for record in records:
        nodes.setdefault(record[2], []).append(record)
    return nodes


#: The 48-user street fleet whose trace interleaving really changes.
STREET = fleet_spec_for_cell(
    "mobility-blend", "walk", seed=11, n_users=48, duration_s=6.0
)
#: A corridor fleet: many stations, the cell index on, one watchdog grid.
CORRIDOR = fleet_spec_for_cell(
    "uniform", "walk", seed=5, n_users=24, duration_s=2.0,
    topology="corridor", n_cells=32,
)
#: Two protocol arms, so one grid carries members with different labels.
MIXED = FleetSpec(
    "mixed-arms",
    n_users=16,
    profiles=(
        UserProfile("tracker", weight=0.5, scenario="walk",
                    start_jitter_s=0.2),
        UserProfile("reactive", weight=0.5, scenario="vehicular",
                    protocol="reactive"),
    ),
    seed=3,
    duration_s=3.0,
)


FLEETS = {"street": STREET, "corridor": CORRIDOR, "mixed": MIXED}


@pytest.fixture(scope="module")
def pairs():
    return {name: _fleet_pair(spec) for name, spec in FLEETS.items()}


@pytest.fixture(params=sorted(FLEETS))
def fleet_pair(request, pairs):
    return pairs[request.param]


class TestFleetEquivalence:
    def test_artifact_bytes_equal(self, fleet_pair):
        (grid, _, _), (reference, _, _) = fleet_pair
        assert grid == reference

    def test_each_mobile_trace_equal(self, fleet_pair):
        (_, grid, _), (_, reference, _) = fleet_pair
        assert grid  # the trace was on
        assert _by_node(grid) == _by_node(reference)

    def test_record_multiset_equal(self, fleet_pair):
        (_, grid, _), (_, reference, _) = fleet_pair
        assert Counter(grid) == Counter(reference)

    def test_one_watchdog_event_per_tick(self, fleet_pair):
        (_, _, grid_run), (_, _, reference_run) = fleet_pair
        saved = (
            reference_run.deployment.sim.events_fired
            - grid_run.deployment.sim.events_fired
        )
        # Every arm starts at t=0: checks at 0.01 + k * 0.01 s.
        duration = grid_run.spec.duration_s
        ticks = sum(1 for k in range(1000) if 0.01 + k * 0.01 <= duration)
        assert saved == (len(grid_run.users) - 1) * ticks


class TestStreetFleetHasPower:
    """The street fleet exercises the documented divergence."""

    def test_cross_mobile_order_differs(self, pairs):
        (_, grid, _), (_, reference, _) = pairs["street"]
        moved = [(a, b) for a, b in zip(grid, reference) if a != b]
        assert moved
        # The grid fires msg1 before the same-instant watchdogs; per-arm
        # tasks fired another mobile's watchdog first.
        first_grid, first_reference = moved[0]
        assert first_grid[1] == "rach.msg1"
        assert first_grid[0] == first_reference[0]
        assert first_grid[2] != first_reference[2]

    def test_rlf_and_context_loss_covered(self, pairs):
        (_, grid, _), _ = pairs["street"]
        categories = Counter(record[1] for record in grid)
        assert categories["connection.rlf"] > 0
        assert categories["connection.lost"] > 0


@pytest.mark.parametrize("arm", ["silent-tracker", "reactive"])
def test_single_mobile_trace_identical(arm, monkeypatch):
    def run():
        deployment, mobile = build_cell_edge_deployment(
            1, scenario="vehicular"
        )
        protocol = make_protocol(arm, deployment, mobile, "cellA")
        protocol.start()
        deployment.run(6.0)
        protocol.stop()
        return _records(deployment.trace), deployment.sim.events_fired

    grid = run()
    monkeypatch.setattr(ProtocolArm, "start", _per_arm_start)
    reference = run()
    assert grid[0]  # the trace was on
    assert grid == reference


def test_stop_withdraws_the_watchdog_event():
    hub = Telemetry()
    counter = "sim.events." + SilentTracker.watchdog_label
    with use(hub):
        deployment, mobile = build_cell_edge_deployment(1, scenario="walk")
        protocol = make_protocol("silent-tracker", deployment, mobile, "cellA")
        protocol.start()
        deployment.run(0.05)
        ticks = hub.counter(counter)
        assert ticks > 0
        protocol.stop()
        deployment.run(0.05)  # the retired grid fires no event
    assert hub.counter(counter) == ticks
