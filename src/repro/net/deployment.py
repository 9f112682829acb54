"""Deployment: wires stations, mobiles, channel and clock together.

One :class:`Deployment` owns everything a run needs — simulator, RNG
registry, channel, link engine, trace, metrics — and drives SSB burst
delivery from each base station to each mobile.  Experiment runners
construct a fresh deployment per trial.

Burst **scheduling** is coalesced: stations whose SSB grids share the
same absolute tick ride one :class:`~repro.sim.engine.BurstScheduler`
event, so a dense K-cell corridor with G phase slots pays G heap events
per period instead of K, and the whole same-tick station group is
delivered (and measured) together by :meth:`Deployment._deliver_tick`.
Protocol watchdogs coalesce the same way on a second scheduler,
:attr:`Deployment.watchdogs`: N arms started together cost one heap
event per monitor period, not N.

Burst **delivery** branches on the population size only:

* with **several mobiles**, arbitration runs station-by-station in tick
  order and mobile-by-mobile in registration order, but each station
  asks only the mobiles whose listener named its cell in
  ``candidate_cells`` at the start of the tick, merged with the
  *wildcard* mobiles (a listener without the method, or answering
  ``None``, such as a neighbour search) that have not yet stopped their
  tick.  A mobile can dwell only on its serving cell and the neighbour
  cells it sweeps or tracks, and a searching mobile stops at the first
  burst it admits, so on a dense corridor a tick costs one interest
  read per free mobile plus about one ``choose_rx_beam`` call per
  admission, not one per (station, mobile) pair.  Decline and busy
  counts follow from where each mobile's tick stopped.  Every admitted
  (station, mobile) link of the tick is evaluated in one
  :meth:`~repro.net.link_engine.LinkEngine.measure_burst_multi` call,
  and the measurements reach the listeners in that same order;
* with **one mobile**, each station's burst is arbitrated by
  :meth:`~repro.net.mobile.Mobile.begin_burst`, measured by the
  single-link :meth:`~repro.net.link_engine.LinkEngine.measure_burst`
  and delivered in turn — the cheaper plan when there is no population
  to batch over.

Both branches draw from each link's own RNG streams in station-then-user
order, and the decode stream is only touched inside listener callbacks,
which run in the same relative order — so a user's outcome does not
depend on which branch delivered its bursts.  With
:attr:`DeploymentConfig.per_link_decode` the decode draws too come from
per-link streams, making every user's outcome independent of the rest
of the population — the property the fleet shard runner relies on.
``tests/data/golden_fleet_*.json`` pin the delivered artifacts.

Dense topologies additionally get a **spatial cell index**
(:mod:`repro.net.cell_index`, ``REPRO_CELL_INDEX`` to force ``off``):
at :meth:`start` each mobile's reachable positions are bounded from its
trajectory, and stations provably outside the link-budget guard radius
are excluded *for the whole run*.  Excluded pairs still run arbitration
and deliver an empty measurement (listener cadence, radio occupancy and
skip accounting unchanged) — only the channel evaluation is skipped,
and since excluded links can never land a dwell above the noise floor,
artifacts are byte-identical with the index on or off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.measure.report import RssMeasurement
from repro.mobility.base import sample_poses
from repro.net.base_station import BaseStation
from repro.net.cell_index import CellIndex, guard_radius_m
from repro.net.link_engine import LinkEngine
from repro.net.mobile import Mobile
from repro.obs import telemetry as _telemetry
from repro.obs.log import get_logger
from repro.phy.channel import Channel, ChannelConfig
from repro.phy.frame import FrameConfig, RachConfig
from repro.sim.engine import BurstMember, BurstScheduler, Simulator
from repro.sim.metrics import MetricsRecorder
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder
from repro.util.switches import switch_value

_log = get_logger("net.deployment")


@dataclass(frozen=True)
class DeploymentConfig:
    """Run-wide configuration shared by all nodes."""

    master_seed: int = 1
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    frame: FrameConfig = field(default_factory=FrameConfig)
    rach: RachConfig = field(default_factory=RachConfig)
    trace_enabled: bool = True
    #: Give every (cell, mobile) link its own decode RNG stream instead
    #: of the historical shared ``"uplink"`` stream.  Makes per-user
    #: outcomes independent of which other users share the deployment —
    #: required by the fleet stack so shard runs are byte-identical to
    #: the unsharded population.
    per_link_decode: bool = False
    #: Absolute simulation time the run will not exceed, when known.
    #: Lets the spatial cell index bound horizon-dependent trajectories
    #: (walks, vehicular passes); running past it with active exclusions
    #: raises.  ``None`` restricts pruning to trajectories with a
    #: horizon-free bound (static, rotation, waypoint paths).
    horizon_s: Optional[float] = None


class Deployment:
    """A bound set of nodes sharing one channel and one clock."""

    def __init__(self, config: Optional[DeploymentConfig] = None) -> None:
        self.config = config or DeploymentConfig()
        self.sim = Simulator()
        self.rng = RngRegistry(self.config.master_seed)
        self.channel = Channel(self.config.channel, self.rng)
        self.links = LinkEngine(
            self.channel, self.rng, per_link_decode=self.config.per_link_decode
        )
        self.trace = TraceRecorder(enabled=self.config.trace_enabled)
        self.metrics = MetricsRecorder()
        #: Ambient telemetry hub (wall-clock spans/counters only — it
        #: can never influence simulation state or RNG streams).
        self.telemetry = _telemetry.current()
        self._stations: Dict[str, BaseStation] = {}
        self._station_view: Mapping[str, BaseStation] = MappingProxyType(
            self._stations
        )
        #: cell_id -> its ``bursts.<cell>`` counter key, built once.
        self._burst_keys: Dict[str, str] = {}
        self._mobiles: Dict[str, Mobile] = {}
        #: Live burst-schedule handles keyed by cell id.
        self._burst_tasks: Dict[str, BurstMember] = {}
        self._burst_scheduler: Optional[BurstScheduler] = None
        #: Protocol watchdogs (:meth:`ProtocolArm.start
        #: <repro.core.arm.ProtocolArm.start>`): arms started at the same
        #: instant share one heap event per monitor period.  Arms own
        #: their members, so :meth:`stop` leaves this scheduler alone.
        self.watchdogs = BurstScheduler(self.sim)
        self._resume_at: Dict[str, float] = {}
        self._started = False
        #: Spatial pruning switch; the index is also self-disabling
        #: whenever safety cannot be proven (see _build_cell_index).
        self.cell_index_enabled = switch_value("REPRO_CELL_INDEX") == "on"
        #: mobile_id -> candidate cell ids (stations it can ever hear).
        #: ``None`` means pruning is off; a missing key means that
        #: mobile could not be bounded and is never pruned.
        self._candidates: Optional[Dict[str, FrozenSet[str]]] = None
        self._index_horizon_s: Optional[float] = None
        #: mobile_id -> (codebook at index build, its peak gain): an
        #: exclusion consulted after a codebook swap re-validates the
        #: receive-gain bound the guard radius was derived from.
        self._codebook_guard: Dict[str, Tuple[object, float]] = {}

    # -------------------------------------------------------------- topology
    def add_station(self, station: BaseStation) -> BaseStation:
        """Register a base station (before :meth:`start`)."""
        if self._started:
            raise RuntimeError("cannot add stations after start()")
        if station.cell_id in self._stations:
            raise ValueError(f"duplicate cell id {station.cell_id!r}")
        self._stations[station.cell_id] = station
        self._burst_keys[station.cell_id] = f"bursts.{station.cell_id}"
        return station

    def add_mobile(self, mobile: Mobile) -> Mobile:
        """Register a mobile (before :meth:`start`)."""
        if self._started:
            raise RuntimeError("cannot add mobiles after start()")
        if mobile.mobile_id in self._mobiles:
            raise ValueError(f"duplicate mobile id {mobile.mobile_id!r}")
        self._mobiles[mobile.mobile_id] = mobile
        return mobile

    def station(self, cell_id: str) -> BaseStation:
        try:
            return self._stations[cell_id]
        except KeyError:
            raise KeyError(f"unknown cell {cell_id!r}") from None

    def mobile(self, mobile_id: str) -> Mobile:
        try:
            return self._mobiles[mobile_id]
        except KeyError:
            raise KeyError(f"unknown mobile {mobile_id!r}") from None

    @property
    def stations(self) -> List[BaseStation]:
        return list(self._stations.values())

    @property
    def station_map(self) -> Mapping[str, BaseStation]:
        """Read-only, live view of the stations keyed by cell id."""
        return self._station_view

    @property
    def mobiles(self) -> List[Mobile]:
        return list(self._mobiles.values())

    # ---------------------------------------------------------- cell index
    def _build_cell_index(self) -> None:
        """Derive per-mobile candidate cell sets, when provably safe.

        Self-disabling: any condition that would make pruning unsound
        (no link-budget inverse, unbounded trajectories, single cell)
        simply leaves :attr:`_candidates` as ``None`` / unpruned, so
        existing short-range deployments are untouched by construction.
        """
        self._candidates = None
        self._index_horizon_s = None
        self._codebook_guard = {}
        if not self.cell_index_enabled:
            return
        if len(self._stations) < 2 or not self._mobiles:
            return
        radius = guard_radius_m(
            self.channel, self._stations.values(), self._mobiles.values()
        )
        if radius is None:
            return
        index = CellIndex(self._stations.values(), bucket_m=max(radius, 1.0))
        horizon = self.config.horizon_s
        candidates: Dict[str, FrozenSet[str]] = {}
        all_cells = frozenset(self._stations)
        horizon_needed = False
        pruned_links = 0
        for mobile in self._mobiles.values():
            bound = mobile.trajectory.position_bound(None)
            if bound is None and horizon is not None:
                bound = mobile.trajectory.position_bound(horizon)
                if bound is not None:
                    horizon_needed = True
            if bound is None:
                continue  # unbounded: this mobile is never pruned
            center, reach = bound
            cells = index.within(center, reach + radius)
            if cells == all_cells:
                continue  # nothing pruned; skip the per-burst lookup
            candidates[mobile.mobile_id] = cells
            pruned_links += len(all_cells) - len(cells)
            self._codebook_guard[mobile.mobile_id] = (
                mobile.codebook, mobile.codebook.max_gain_dbi
            )
        if not candidates:
            return
        self._candidates = candidates
        if horizon_needed:
            self._index_horizon_s = horizon
        self.telemetry.incr("net.cell_index.pruned_links", pruned_links)
        _log.debug(
            "cell index: guard radius %.1fm, %d/%d mobiles bounded, "
            "%d links pruned",
            radius, len(candidates), len(self._mobiles), pruned_links,
        )

    def _excluded(self, station: BaseStation, mobile: Mobile, now_s: float) -> bool:
        """Whether the (station, mobile) channel evaluation is pruned."""
        candidates = self._candidates
        if candidates is None:
            return False
        cells = candidates.get(mobile.mobile_id)
        if cells is None or station.cell_id in cells:
            return False
        # An exclusion is live — re-validate the assumptions it rests on.
        if self._index_horizon_s is not None and now_s > self._index_horizon_s:
            raise RuntimeError(
                f"simulation time {now_s:.3f}s exceeds the cell-index "
                f"horizon {self._index_horizon_s:.3f}s with active spatial "
                f"exclusions; raise DeploymentConfig.horizon_s or set "
                f"REPRO_CELL_INDEX=off"
            )
        guard = self._codebook_guard.get(mobile.mobile_id)
        if guard is not None:
            codebook_ref, gain_bound = guard
            if (
                mobile.codebook is not codebook_ref
                and mobile.codebook.max_gain_dbi > gain_bound
            ):
                raise RuntimeError(
                    f"mobile {mobile.mobile_id!r} swapped to a codebook "
                    f"with peak gain {mobile.codebook.max_gain_dbi:.1f} dBi "
                    f"> the {gain_bound:.1f} dBi bound the spatial index "
                    f"was built with; set REPRO_CELL_INDEX=off"
                )
        return True

    # -------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Begin SSB burst delivery for every station.

        Each station joins the burst schedule at the SSB period,
        phase-offset per its own grid; every burst is offered to every
        mobile (the mobile's RF-chain arbitration decides what actually
        gets measured).  After a :meth:`stop`, calling :meth:`start`
        (or :meth:`run`) re-arms the tasks on the stations' *absolute*
        SSB schedules, so a stop/run cycle never drifts the burst grid.
        """
        if self._started:
            raise RuntimeError("deployment already started")
        self._started = True
        _log.debug(
            "start: %d stations, %d mobiles, t=%.3fs",
            len(self._stations), len(self._mobiles), self.sim.now,
        )
        self._build_cell_index()
        now = self.sim.now
        self._burst_scheduler = BurstScheduler(self.sim, self._deliver_tick)
        for station in self._stations.values():
            # First burst: the next grid point at or after now — but
            # never one that already fired before a stop().  When a
            # stop/start cycle lands exactly on a grid point,
            # next_burst_start(now) is that (already delivered) point;
            # the resume time recorded at stop() skips past it.
            first = station.schedule.next_burst_start(now)
            resume = self._resume_at.get(station.cell_id)
            if resume is not None:
                first = max(first, station.schedule.next_burst_start(resume))
            self._burst_tasks[station.cell_id] = self._burst_scheduler.add(
                station.frame.ssb_period_s,
                station,
                start_delay=first - now,
                label=f"ssb.{station.cell_id}",
            )

    # -------------------------------------------------------------- delivery
    def _deliver_tick(self, stations: List[BaseStation]) -> None:
        """Deliver one coalesced tick: every station due right now.

        Stations arrive in scheduler registration order.  Several
        mobiles take the batched multi-station path; a lone mobile
        takes the single-link path, station by station.
        """
        if len(self._mobiles) > 1:
            self._deliver_tick_batch(stations)
            return
        with self.telemetry.span("net.burst_single"):
            burst_keys = self._burst_keys
            for station in stations:
                self.metrics.incr(burst_keys[station.cell_id])
                for mobile in self._mobiles.values():
                    self._deliver_burst_single(station, mobile)

    def _deliver_tick_batch(self, stations: List[BaseStation]) -> None:
        """Multi-station batched delivery for one coalesced tick.

        Arbitration runs station-by-station in tick order, then the
        whole tick's (station, user) link rows are evaluated in a
        single ``measure_burst_multi`` call, then listeners are
        notified in station-then-user order.

        Arbitration asks each mobile only about the cells it can take
        (:meth:`_interest_queues`): its listener's ``candidate_cells``
        answer, read once at the start of the tick, promises ``None``
        from every other ``choose_rx_beam`` call.  A mobile that names
        no cells (a *wildcard*) is asked by every station until its
        tick stops.  A mobile busy at tick start skips the whole group,
        since every station on the tick shares the same ``now`` and a
        busy window only ever grows.  A mobile that admits a burst of
        non-zero length is busy for the group's remainder, and a
        wildcard leaves the wildcard list there.  Each station visits
        its narrowed queue merged with the wildcards still free, in
        registration order, so a tick costs one ``choose_rx_beam`` call
        per narrowed entry and per (station, free wildcard) pair:
        searching mobiles that admit their first station cost about one
        call each, not one per station.

        A mobile's counts follow from where its tick stopped:

        * ``declined += offered_while_active - admissions``;
        * ``skipped_busy += n_stations - offered_while_active``.

        They are settled incrementally: a free mobile starts the tick
        with every station counted as declined, each admission takes
        one back, and the admission that ends its tick moves the
        stations after it from declined to skipped-busy.

        The non-``None`` ``choose_rx_beam`` calls, their order, the
        counters and the measurements delivered are exactly those of
        calling :meth:`Mobile.begin_burst` per station and mobile.
        """
        with self.telemetry.span("net.burst_batch"):
            now = self.sim.now
            n_stations = len(stations)
            active: List[Mobile] = []
            for mobile in self._mobiles.values():
                if mobile._listener is None:
                    continue
                if now < mobile._busy_until_s:  # Mobile.radio_busy, inline
                    mobile.bursts_skipped_busy += n_stations
                else:
                    mobile.bursts_declined += n_stations
                    active.append(mobile)
            queues, wildcards = self._interest_queues(stations, active, now)
            # Ranks (positions in ``active``) busy for the rest of the tick.
            stopped: Set[int] = set()
            burst_keys = self._burst_keys
            plan = []  # (station, admitted, group index or None)
            groups = []  # only stations with measured rows
            for index, station in enumerate(stations):
                self.metrics.incr(burst_keys[station.cell_id])
                narrowed = queues[index] if queues is not None else None
                if not narrowed:
                    queue = wildcards
                elif wildcards:
                    # Two ascending runs: a linear merge.
                    queue = sorted(narrowed + wildcards)
                else:
                    queue = narrowed
                admitted = []
                measured = []
                if queue:
                    n_stopped = len(stopped)
                    cell_id = station.cell_id
                    burst_s = station.schedule.burst_duration_s()
                    for rank in queue:
                        if rank in stopped:
                            continue
                        mobile = active[rank]
                        rx_beam = mobile._listener.choose_rx_beam(cell_id, now)
                        if rx_beam is None:
                            continue
                        mobile.occupy_radio(now, burst_s)
                        mobile.bursts_declined -= 1
                        # A zero-length burst never occupies the chain.
                        if burst_s > 0.0:
                            remaining = n_stations - index - 1
                            mobile.bursts_declined -= remaining
                            mobile.bursts_skipped_busy += remaining
                            stopped.add(rank)
                        if self._excluded(station, mobile, now):
                            admitted.append((mobile, rx_beam, None))
                        else:
                            admitted.append((mobile, rx_beam, len(measured)))
                            measured.append((mobile, rx_beam))
                    if (
                        wildcards
                        and len(stopped) > n_stopped
                        and index + 1 < n_stations
                    ):
                        # Costs no more than the visits just made.
                        wildcards = [
                            rank for rank in wildcards if rank not in stopped
                        ]
                self.telemetry.observe("net.burst_batch_size", len(admitted))
                if not admitted:
                    continue
                if measured:
                    plan.append((station, admitted, len(groups)))
                    groups.append(
                        (station, self._measure_requests(measured, now))
                    )
                else:  # every admitted link spatially pruned
                    plan.append((station, admitted, None))
            results = (
                self.links.measure_burst_multi(groups, now) if groups else []
            )
            for station, admitted, group in plan:
                measurements = results[group] if group is not None else ()
                self._deliver_measurements(station, admitted, measurements, now)

    @staticmethod
    def _interest_queues(
        stations: List[BaseStation], active: List[Mobile], now: float
    ) -> Tuple[Optional[List[List[int]]], Sequence[int]]:
        """Who each tick position asks: ``(queues, wildcards)``.

        Mobiles are named by rank, their position in ``active``
        (registration order).  ``queues[i]`` lists, ascending and each
        at most once however often its listener names the cell, the
        mobiles whose ``candidate_cells`` answer names station ``i``'s
        cell; ``queues`` is ``None`` when no mobile narrows its
        interest.  ``wildcards`` lists, ascending, the mobiles whose
        listener answers ``None`` (or has no ``candidate_cells``):
        every station asks them until their tick stops.  A one-station
        tick reads no interests, since reading one costs about what the
        one call it could save does: every active mobile is a wildcard.

        Cost: one ``candidate_cells`` read per active mobile and one
        append per cell it names on the tick; a wildcard is listed once,
        not once per station.
        """
        if len(stations) < 2:
            return None, range(len(active))
        position: Optional[Dict[str, int]] = None
        queues: Optional[List[List[int]]] = None
        wildcards: List[int] = []
        for rank, mobile in enumerate(active):
            candidate_cells = mobile._candidate_cells
            cells = None if candidate_cells is None else candidate_cells(now)
            if cells is None:
                wildcards.append(rank)
                continue
            if position is None:
                position = {
                    station.cell_id: index
                    for index, station in enumerate(stations)
                }
                queues = [[] for _ in stations]
            for cell in cells:
                index = position.get(cell)
                if index is None:
                    continue
                queue = queues[index]
                if not queue or queue[-1] != rank:
                    queue.append(rank)
        return queues, wildcards

    @staticmethod
    def _measure_requests(measured, now: float):
        """Link-engine request rows for the measured (mobile, beam) pairs.

        Each mobile keeps the sampled pose and its gain function for
        messages sent at the same instant (:meth:`Mobile.geometry_at`).
        """
        poses = sample_poses([mobile.trajectory for mobile, _ in measured], now)
        return [
            (mobile.mobile_id, pose, mobile.geometry_at(now, pose)[1], rx_beam)
            for (mobile, rx_beam), pose in zip(measured, poses)
        ]

    def _deliver_measurements(
        self, station: BaseStation, admitted, measurements, now: float
    ) -> None:
        """Listener delivery in arbitration order, synthesizing the
        (provably empty) measurement for spatially pruned links.

        Measurements are immutable records, so the pruned links that
        hold the same receive beam share one empty record.
        """
        empty: Dict[int, RssMeasurement] = {}
        for mobile, rx_beam, index in admitted:
            if index is None:
                measurement = empty.get(rx_beam)
                if measurement is None:
                    measurement = empty[rx_beam] = RssMeasurement(
                        now, station.cell_id, rx_beam
                    )
                mobile.complete_burst(measurement)
            else:
                mobile.complete_burst(measurements[index])

    def _deliver_burst_single(self, station: BaseStation, mobile: Mobile) -> None:
        """One station's burst to one mobile: arbitration, the spatial
        pruning branch (which skips only the channel evaluation), the
        single-link measurement and listener delivery."""
        now = self.sim.now
        rx_beam = mobile.begin_burst(station, now)
        if rx_beam is None:
            return
        if self._excluded(station, mobile, now):
            mobile.complete_burst(RssMeasurement(now, station.cell_id, rx_beam))
            return
        pose, rx_gain_fn = mobile.geometry_at(now)
        measurement = self.links.measure_burst(
            station, mobile.mobile_id, pose, rx_gain_fn, rx_beam, now
        )
        mobile.complete_burst(measurement)

    def run(self, duration_s: float) -> None:
        """Start (if needed) and advance simulated time by ``duration_s``.

        A stopped deployment re-arms its burst tasks here, so
        ``run(); stop(); run()`` keeps delivering bursts (on the
        original absolute schedule) instead of silently advancing time
        with zero bursts.
        """
        if not self._started:
            self.start()
        self.sim.run_until(self.sim.now + duration_s)

    def stop(self) -> None:
        """Stop all burst tasks (the simulator itself can keep running).

        Clears the started flag so a subsequent :meth:`run` re-arms
        burst delivery rather than running a burst-less clock, and
        records each station's next unfired burst so the restart never
        delivers a boundary burst twice.  Tasks are keyed by cell id,
        so resume times survive any registration/teardown ordering.

        The simulator's queue is left alone, so a deployment still
        resumes after ``stop()``.  The cancelled burst events release
        their callbacks, and a stopped arm (``ProtocolArm.stop``) no
        longer hangs off its mobile: once its arms are stopped too, the
        deployment holds no reference cycle and is freed as soon as the
        last reference to it goes.
        """
        for cell_id, task in self._burst_tasks.items():
            self._resume_at[cell_id] = task.next_fire_s
            task.stop()
        self._burst_tasks.clear()
        self._burst_scheduler = None
        self._started = False
        _log.debug("stop: t=%.3fs, %d events fired",
                   self.sim.now, self.sim.events_fired)
