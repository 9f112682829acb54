"""Interest-indexed tick arbitration against the full-scan oracle.

``Deployment._deliver_tick_batch`` asks each active mobile only about
the cells its listener's ``candidate_cells`` names, and settles the
decline and busy counts from where the mobile's tick stopped.  The
oracle below is the scan it replaced: every station asks every mobile
through :meth:`Mobile.begin_burst`, the per-station arbitration
contract.  Random listeners, interest sets, tick orders, burst lengths,
busy windows and spatial exclusions must give the same:

* ``Mobile`` counters and radio busy window;
* non-``None`` ``choose_rx_beam`` calls, in order;
* ``_excluded`` calls, in order;
* measurements delivered, in order;
* per-cell burst counters.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3
from repro.mobility.base import StaticPose
from repro.net.base_station import BaseStation
from repro.net.deployment import Deployment, DeploymentConfig
from repro.net.mobile import Mobile
from repro.phy.channel import ChannelConfig
from repro.phy.codebook import Codebook

from channel_configs import DETERMINISTIC

CELLS = [f"c{k}" for k in range(5)]
TX_CODEBOOK = Codebook.uniform_azimuth(30.0)
RX_CODEBOOK = Codebook.uniform_azimuth(60.0)
#: Tick spacing: well inside, and well past, one burst (12 SSBs).
TICK_STEPS_S = (0.0, 0.4e-3, 5e-3)


class FullScanDeployment(Deployment):
    """The station x mobile scan the interest index replaced."""

    def _deliver_tick_batch(self, stations):
        now = self.sim.now
        plan = []
        groups = []
        for station in stations:
            self.metrics.incr(f"bursts.{station.cell_id}")
            admitted = []
            measured = []
            for mobile in self._mobiles.values():
                rx_beam = mobile.begin_burst(station, now)
                if rx_beam is None:
                    continue
                if self._excluded(station, mobile, now):
                    admitted.append((mobile, rx_beam, None))
                else:
                    admitted.append((mobile, rx_beam, len(measured)))
                    measured.append((mobile, rx_beam))
            if not admitted:
                continue
            if measured:
                plan.append((station, admitted, len(groups)))
                groups.append((station, self._measure_requests(measured, now)))
            else:
                plan.append((station, admitted, None))
        results = self.links.measure_burst_multi(groups, now) if groups else []
        for station, admitted, group in plan:
            measurements = results[group] if group is not None else ()
            self._deliver_measurements(station, admitted, measurements, now)


class ScriptedListener:
    """Accepts a scripted set of cells per tick; logs every call.

    ``script[tick]`` is ``(accepted cells, interest)``, where interest
    is ``None`` or a superset of the accepted cells.
    """

    def __init__(self, name, log, script, tick_of):
        self.name = name
        self._log = log
        self._script = script
        self._tick_of = tick_of

    def choose_rx_beam(self, cell_id, now_s):
        accepted, _ = self._script[self._tick_of(now_s)]
        beam = accepted.get(cell_id)
        self._log.append(("choose", self.name, cell_id, now_s, beam))
        return beam

    def on_measurement(self, measurement):
        self._log.append(("measure", self.name, measurement))


class ScriptedCandidates(ScriptedListener):
    def candidate_cells(self, now_s):
        return self._script[self._tick_of(now_s)][1]


@st.composite
def scenarios(draw):
    n_cells = draw(st.integers(1, len(CELLS)))
    cells = CELLS[:n_cells]
    zero_length = draw(st.lists(st.booleans(), min_size=n_cells, max_size=n_cells))
    n_ticks = draw(st.integers(1, 4))
    ticks = []
    time_s = 1.0
    for _ in range(n_ticks):
        time_s += draw(st.sampled_from(TICK_STEPS_S))
        order = draw(st.permutations(cells))
        ticks.append((time_s, order[:draw(st.integers(1, n_cells))]))
    mobiles = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["candidates", "candidates", "plain", "none"]))
        script = []
        for _ in range(n_ticks):
            accepted = {
                cell: draw(st.integers(0, len(RX_CODEBOOK) - 1))
                for cell in draw(st.lists(st.sampled_from(cells), unique=True))
            }
            if draw(st.booleans()) and draw(st.booleans()):
                interest = None
            else:
                extra = draw(st.lists(st.sampled_from(cells + ["ghost"])))
                interest = list(accepted) + extra
                # Duplicates, in any order.
                interest += draw(st.lists(st.sampled_from(interest or ["ghost"])))
                interest = draw(st.permutations(interest))
                interest = draw(st.sampled_from([tuple, list, set]))(interest)
            script.append((accepted, interest))
        busy = draw(
            st.one_of(
                st.none(),
                st.tuples(st.floats(0.9, 1.01), st.floats(0.0, 0.02)),
            )
        )
        pruned = draw(st.one_of(st.none(), st.frozensets(st.sampled_from(cells))))
        mobiles.append((kind, script, busy, pruned))
    return cells, zero_length, ticks, mobiles


def _run(deployment_cls, scenario):
    cells, zero_length, ticks, mobile_specs = scenario
    deployment = deployment_cls(
        DeploymentConfig(master_seed=7, channel=ChannelConfig())
    )
    for k, cell in enumerate(cells):
        station = deployment.add_station(
            BaseStation(cell, Pose(Vec3(15.0 * k, 10.0), heading=-math.pi / 2),
                        TX_CODEBOOK)
        )
        if zero_length[k]:
            station.schedule.burst_duration_s = lambda: 0.0
    times = [time_s for time_s, _ in ticks]
    log = []
    candidates = {}
    for k, (kind, script, busy, pruned) in enumerate(mobile_specs):
        mobile = deployment.add_mobile(
            Mobile(f"ue{k}", StaticPose(Pose(Vec3(4.0 * k, 0.0), 0.3 * k)),
                   RX_CODEBOOK)
        )
        if kind != "none":
            listener_cls = ScriptedCandidates if kind == "candidates" else ScriptedListener
            mobile.attach_listener(
                listener_cls(mobile.mobile_id, log, script, times.index)
            )
        if busy is not None:
            mobile.occupy_radio(*busy)
        if pruned is not None:
            candidates[mobile.mobile_id] = pruned
    if candidates:
        deployment._candidates = candidates
    excluded = deployment._excluded

    def logged_excluded(station, mobile, now_s):
        hit = excluded(station, mobile, now_s)
        log.append(("excluded", station.cell_id, mobile.mobile_id, now_s, hit))
        return hit

    deployment._excluded = logged_excluded
    for time_s, order in ticks:
        deployment.sim.run_until(time_s)
        deployment._deliver_tick_batch([deployment.station(c) for c in order])
    counters = [
        (m.bursts_skipped_busy, m.bursts_declined, m.bursts_measured,
         m._busy_until_s)
        for m in deployment.mobiles
    ]
    bursts = {cell: deployment.metrics.counter(f"bursts.{cell}") for cell in cells}
    return log, counters, bursts


def _admitting(log):
    """The log without the ``choose_rx_beam`` calls that returned None."""
    return [entry for entry in log if entry[0] != "choose" or entry[4] is not None]


class TestAgainstFullScan:
    @given(scenario=scenarios())
    @settings(max_examples=200, deadline=None)
    def test_counters_calls_and_deliveries_match(self, scenario):
        log, counters, bursts = _run(Deployment, scenario)
        ref_log, ref_counters, ref_bursts = _run(FullScanDeployment, scenario)
        assert counters == ref_counters
        assert _admitting(log) == _admitting(ref_log)
        assert bursts == ref_bursts
        # The interest index only ever drops calls.
        calls = sum(entry[0] == "choose" for entry in log)
        assert calls <= sum(entry[0] == "choose" for entry in ref_log)


def _deployment_with(listeners):
    deployment = Deployment(
        DeploymentConfig(master_seed=3, channel=DETERMINISTIC)
    )
    for k, cell in enumerate(CELLS[:3]):
        deployment.add_station(
            BaseStation(cell, Pose(Vec3(15.0 * k, 10.0)), TX_CODEBOOK)
        )
    for k, listener in enumerate(listeners):
        mobile = deployment.add_mobile(
            Mobile(f"ue{k}", StaticPose(Pose(Vec3(5.0 * k, 0.0))), RX_CODEBOOK)
        )
        mobile.attach_listener(listener)
    deployment.sim.run_until(1.0)
    return deployment


class TestInterestIndex:
    def test_duplicate_cell_asks_once(self):
        log = []
        script = [({"c1": 2}, ("c1", "c1", "c1"))]
        deployment = _deployment_with([
            ScriptedCandidates("a", log, script, lambda now: 0),
            ScriptedCandidates("b", log, [({}, ())], lambda now: 0),
        ])
        deployment._deliver_tick_batch(deployment.stations)
        assert [entry[:3] for entry in log if entry[0] == "choose"] == [
            ("choose", "a", "c1")
        ]
        a, b = deployment.mobiles
        assert (a.bursts_declined, a.bursts_skipped_busy, a.bursts_measured) == (1, 1, 1)
        # Asked about nothing, so every offered station counts as declined.
        assert (b.bursts_declined, b.bursts_skipped_busy) == (3, 0)

    def test_candidate_cells_read_once_per_tick_for_free_mobiles(self):
        reads = []

        class Counting(ScriptedCandidates):
            def candidate_cells(self, now_s):
                reads.append((self.name, now_s))
                return super().candidate_cells(now_s)

        log = []
        deployment = _deployment_with([
            Counting("a", log, [({"c0": 0}, ("c0",))] * 2, lambda now: 0),
            Counting("b", log, [({}, None)] * 2, lambda now: 0),
        ])
        deployment._deliver_tick_batch(deployment.stations)
        assert reads == [("a", 1.0), ("b", 1.0)]
        # "a" is now busy with c0's burst: the next tick skips it unasked.
        deployment._deliver_tick_batch(deployment.stations)
        assert reads == [("a", 1.0), ("b", 1.0), ("b", 1.0)]


def _chosen(log):
    return [(entry[1], entry[2]) for entry in log if entry[0] == "choose"]


def _delivered(log):
    return [(entry[1], entry[2].cell_id) for entry in log if entry[0] == "measure"]


class TestWildcards:
    """Mobiles whose listener names no cells ride one wildcard list."""

    def test_declining_wildcard_is_asked_later_in_registration_order(self):
        log = []
        deployment = _deployment_with([
            ScriptedCandidates("a", log, [({"c2": 1}, ("c2",))], lambda now: 0),
            ScriptedCandidates("b", log, [({"c2": 2}, None)], lambda now: 0),
            ScriptedCandidates("c", log, [({"c2": 3}, ("c2",))], lambda now: 0),
        ])
        deployment._deliver_tick_batch(deployment.stations)
        assert _chosen(log) == [
            ("b", "c0"), ("b", "c1"), ("a", "c2"), ("b", "c2"), ("c", "c2"),
        ]
        assert _delivered(log) == [("a", "c2"), ("b", "c2"), ("c", "c2")]
        for mobile in deployment.mobiles:
            assert (mobile.bursts_declined, mobile.bursts_skipped_busy,
                    mobile.bursts_measured) == (2, 0, 1)

    def test_zero_length_admission_keeps_wildcard_in_play(self):
        log = []
        deployment = _deployment_with([
            ScriptedCandidates("n", log, [({}, ())], lambda now: 0),
            ScriptedCandidates("w", log, [({"c0": 0, "c1": 1, "c2": 2}, None)],
                               lambda now: 0),
        ])
        deployment.station("c0").schedule.burst_duration_s = lambda: 0.0
        deployment._deliver_tick_batch(deployment.stations)
        # c0's burst leaves the chain free, so c1 is asked and ends the tick.
        assert _chosen(log) == [("w", "c0"), ("w", "c1")]
        assert _delivered(log) == [("w", "c0"), ("w", "c1")]
        _, wildcard = deployment.mobiles
        assert (wildcard.bursts_declined, wildcard.bursts_skipped_busy,
                wildcard.bursts_measured) == (0, 1, 2)

    def test_stopped_wildcard_is_not_asked_again(self):
        log = []
        deployment = _deployment_with([
            ScriptedCandidates("w", log, [({"c0": 0, "c1": 1, "c2": 2}, None)],
                               lambda now: 0),
            ScriptedListener("x", log, [({"c2": 4}, None)], lambda now: 0),
            ScriptedCandidates("n", log, [({"c1": 5}, ("c1", "c2"))],
                               lambda now: 0),
        ])
        deployment._deliver_tick_batch(deployment.stations)
        assert _chosen(log) == [
            ("w", "c0"), ("x", "c0"), ("x", "c1"), ("n", "c1"), ("x", "c2"),
        ]
        w, x, n = deployment.mobiles
        assert (w.bursts_declined, w.bursts_skipped_busy) == (0, 2)
        assert (x.bursts_declined, x.bursts_skipped_busy) == (2, 0)
        assert (n.bursts_declined, n.bursts_skipped_busy) == (1, 1)
