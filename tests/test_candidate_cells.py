"""The ``candidate_cells`` superset contract, for every in-tree listener.

The tick pass asks a mobile only about the cells its listener's
``candidate_cells(now)`` names.  That is safe only if, for every other
cell, ``choose_rx_beam`` returns ``None`` and changes nothing.  Each
test below walks a real run in small steps and checks the contract for
every cell of the deployment at every step, then checks that the run
visited the listener states that matter.
"""

from enum import Enum

from repro import registry
from repro.api import Session, TrialSpec
from repro.core.config import SilentTrackerConfig
from repro.core.events import NeighborState, TrackerPhase
from repro.core.neighbor_tracker import NeighborTracker
from repro.experiments.fig2a import TARGET_CELL, NeighborSearchProbe
from repro.experiments.hierarchical import (
    HierarchicalSearchProbe,
    TierSwitchingMobileShim,
)
from repro.experiments.scenarios import build_cell_edge_deployment
from repro.net.deployment import DeploymentConfig
from repro.net.mobile import Mobile
from repro.phy.codebook import Codebook, HierarchicalCodebook

from channel_configs import DETERMINISTIC

STEP_S = 0.005
#: Objects whose attributes are listener state (compared by value);
#: anything else is compared by identity.
STATE_MODULES = (
    "repro.core.", "repro.experiments.", "repro.measure.",
    "repro.net.connection", "repro.net.handover",
)


def _snapshot(obj, seen=None):
    seen = set() if seen is None else seen
    if obj is None or isinstance(obj, (bool, int, float, str, Enum)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [type(obj).__name__] + [_snapshot(item, seen) for item in obj]
    if isinstance(obj, dict):
        return {key: _snapshot(value, seen) for key, value in obj.items()}
    if isinstance(obj, Mobile):
        # A listener may own the mobile's codebook choice (the tier shim).
        return ("mobile", id(obj.codebook), _snapshot(obj.connection, seen))
    if type(obj).__module__.startswith(STATE_MODULES) and hasattr(obj, "__dict__"):
        if id(obj) in seen:
            return ("seen", id(obj))
        seen.add(id(obj))
        return {name: _snapshot(value, seen) for name, value in vars(obj).items()}
    return ("id", id(obj))


def check_contract(listener, cells, now_s):
    """Assert the superset rule at ``now_s``; return the interest."""
    interest = listener.candidate_cells(now_s)
    if interest is None:
        return None
    outside = [cell for cell in cells if cell not in set(interest)]
    before = _snapshot(listener)
    for cell in outside:
        assert listener.choose_rx_beam(cell, now_s) is None, (cell, interest)
    assert _snapshot(listener) == before
    return interest


def walk(deployment, listener, duration_s, observe):
    """Run in ``STEP_S`` steps, checking the contract before each one."""
    cells = [station.cell_id for station in deployment.stations]
    steps = int(round(duration_s / STEP_S))
    for _ in range(steps + 1):
        now = deployment.sim.now
        observe(check_contract(listener, cells, now))
        deployment.run(STEP_S)


def make_protocol(name, scenario, seed, config=None, codebook="narrow"):
    deployment, mobile = build_cell_edge_deployment(
        seed,
        mobile_codebook=codebook,
        scenario=scenario,
        config=DeploymentConfig(
            master_seed=seed, channel=DETERMINISTIC
        ),
    )
    protocol = registry.make_protocol(name, deployment, mobile, "cellA", config)
    return deployment, mobile, protocol


class TestSilentTracker:
    def test_every_state_meets_the_contract(self):
        seen = set()

        def observer(tracker):
            def observe(interest):
                neighbors = tracker.tracker
                seen.add((tracker.phase, neighbors.state))
                if neighbors.state is NeighborState.SEARCHING:
                    # A search sweeps nearly every cell: never listed.
                    sweeping = any(
                        neighbors.beam_for_burst(station.cell_id) is not None
                        for station in tracker.deployment.stations
                    )
                    assert (neighbors.candidate_cells() is None) == sweeping
                    assert (interest is None) == sweeping
                else:
                    assert interest is not None
            return observe

        runs = [
            ("walk", 3, None, "narrow", 4.0),
            # The stuck re-entry search of TestReentry: context lost.
            ("walk", 9, SilentTrackerConfig(rlf_timeout_s=0.05,
                                            context_loss_timeout_s=0.15),
             "omni", 1.0),
        ]
        for scenario, seed, config, codebook, duration in runs:
            deployment, _, tracker = make_protocol(
                "silent-tracker", scenario, seed, config, codebook
            )
            observe = observer(tracker)
            # IDLE: built, not yet started.
            observe(check_contract(tracker, ["cellA", "cellB", "cellC"], 0.0))
            tracker.start()
            walk(deployment, tracker, duration, observe)
            tracker.stop()
        states = {state for _, state in seen}
        assert states == set(NeighborState)
        assert TrackerPhase.REENTRY in {phase for phase, _ in seen}

    def test_interest_names_serving_and_focused_cells(self):
        deployment, mobile, tracker = make_protocol("silent-tracker", "walk", 3)
        assert tracker.candidate_cells(0.0) == ("cellA",)
        tracker.start()
        while tracker.tracker.state is not NeighborState.TRACKING:
            deployment.run(STEP_S)
        assert tracker.candidate_cells(deployment.sim.now) == (
            mobile.connection.serving_cell, tracker.tracker.focused_cell,
        )
        tracker.stop()


class TestReactive:
    def test_every_state_meets_the_contract(self):
        config = SilentTrackerConfig(rlf_timeout_s=0.1, context_loss_timeout_s=0.3)
        deployment, mobile, reactive = make_protocol(
            "reactive", "vehicular", 2, config
        )
        seen = set()

        def observe(interest):
            searcher = reactive._searcher
            state = None if searcher is None else searcher.state
            seen.add((mobile.connection.serving_cell is not None, state))
            if state is None:
                assert interest == (mobile.connection.serving_cell,)

        reactive.start()
        walk(deployment, reactive, 6.0, observe)
        reactive.stop()
        assert (True, None) in seen  # connected, neighbours ignored
        assert (False, NeighborState.SEARCHING) in seen  # blind search
        assert (False, NeighborState.TRACKING) in seen  # found, accessing


class TestOracle:
    def test_takes_every_cell(self):
        deployment, _, oracle = make_protocol("oracle", "walk", 1)
        oracle.start()
        walk(deployment, oracle, 0.2, lambda interest: None)
        assert oracle.candidate_cells(deployment.sim.now) is None


class TestProbes:
    def test_fig2a_probe(self):
        spec = TrialSpec(scenario="walk", codebook="narrow", seed=1, duration_s=1.0)
        with Session(spec) as session:
            tracker = NeighborTracker(session.mobile.codebook, [TARGET_CELL])
            probe = session.attach_listener(NeighborSearchProbe(tracker, TARGET_CELL))
            tracker.begin_search(0.0)

            def observe(interest):
                assert interest == (TARGET_CELL,)

            walk(session.deployment, probe, 1.0, observe)
        assert tracker.state is NeighborState.TRACKING

    def test_hierarchical_shim(self):
        spec = TrialSpec(scenario="walk", codebook="narrow", seed=1, duration_s=1.0)
        with Session(spec) as session:
            coarse = Codebook.uniform_azimuth(60.0, name="coarse")
            fine = Codebook.uniform_azimuth(20.0, name="fine")
            probe = HierarchicalSearchProbe(
                HierarchicalCodebook(coarse, fine), TARGET_CELL
            )
            shim = session.attach_listener(
                TierSwitchingMobileShim(session.mobile, probe, coarse, fine)
            )
            stages = set()

            def observe(interest):
                assert interest == (TARGET_CELL,)
                stages.add(probe.stage)

            walk(session.deployment, shim, 1.0, observe)
        assert stages == {1, 2}
