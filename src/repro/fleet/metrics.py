"""Population metrics: per-user event logs -> fleet-level distributions.

Single-UE experiments report one trial's numbers; a fleet reports the
*distribution* of those numbers over a user population — the regime
where systems behavior emerges.  :func:`user_result` compresses one
user's run (protocol handover log, search timelines, burst counters)
into a JSON-safe :class:`FleetUserResult`; :class:`FleetAccumulator`
folds a population of them — streamed one user at a time, mergeable
across shards — into summary statistics and empirical CDFs via
:mod:`repro.analysis.stats`.

Aggregation has two regimes with one output shape:

* **exact** (``capacity=None``, the default at small N): every metric
  sample is retained, and the payload reproduces the batch
  :func:`~repro.analysis.stats.summarize` /
  :func:`~repro.analysis.stats.empirical_cdf` arithmetic bit for bit —
  a pure function of the sample multiset, so shard-merged aggregates
  are byte-identical to the unsharded run.
* **streaming** (bounded ``capacity``): counts/mean/stddev/min/max stay
  exact via :class:`~repro.analysis.stats.StreamingMoments`, while
  quantiles/CDFs come from the deterministic
  :class:`~repro.analysis.stats.QuantileReservoir` — memory stays flat
  as N grows, and accuracy is gated by statistical-tolerance tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.stats import QuantileReservoir, StreamingMoments, summarize
from repro.campaign.spec import SpecError
from repro.fleet.spec import UserSpec


@dataclass(frozen=True)
class FleetUserResult:
    """One user's per-run event summary.

    ``search_latencies_s`` are beam-search acquisition latencies (edge B
    to neighbor-found) of every search episode the user's protocol
    completed; ``completion_times_s`` are trigger-to-completion handover
    latencies; ``outage_s`` is the summed data-plane interruption.
    """

    user_id: str
    profile: str
    scenario: str
    codebook: str
    protocol: str
    seed: int
    start_x: float
    start_offset_s: float
    serving_cell_initial: str
    serving_cell_final: Optional[str]
    bursts_measured: int
    bursts_skipped_busy: int
    bursts_declined: int
    searches_started: int
    search_latencies_s: List[float] = field(default_factory=list)
    handovers_completed: int = 0
    handovers_failed: int = 0
    soft_handovers: int = 0
    hard_handovers: int = 0
    ping_pongs: int = 0
    completion_times_s: List[float] = field(default_factory=list)
    outage_s: float = 0.0
    outage_fraction: float = 0.0

    def to_dict(self) -> dict:
        import dataclasses

        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, record: Mapping) -> "FleetUserResult":
        return cls(**record)


def user_result(
    user: UserSpec, mobile, protocol, duration_s: float
) -> FleetUserResult:
    """Extract one user's :class:`FleetUserResult` from a finished run.

    Works for any registered protocol arm: the handover log and search
    timelines are read when the protocol exposes them (the
    :data:`repro.registry.PROTOCOLS` contract requires a ``handover_log``
    only for comparison-style arms) and degrade to empty otherwise.
    """
    from repro.experiments.pingpong import count_ping_pongs
    from repro.net.handover import HandoverOutcome

    log = getattr(protocol, "handover_log", None)
    records = log.records if log is not None else []
    completed = [r for r in records if r.complete_s is not None]
    timelines = getattr(protocol, "timelines", None) or []
    search_latencies = [
        t.found_s - t.search_start_s for t in timelines if t.found_s is not None
    ]
    outage_s = sum(r.interruption_s for r in records)
    return FleetUserResult(
        user_id=user.user_id,
        profile=user.profile,
        scenario=user.scenario,
        codebook=user.codebook,
        protocol=user.protocol,
        seed=user.seed,
        start_x=user.start_x,
        start_offset_s=user.start_offset_s,
        serving_cell_initial=user.serving_cell,
        serving_cell_final=mobile.connection.serving_cell,
        bursts_measured=mobile.bursts_measured,
        bursts_skipped_busy=mobile.bursts_skipped_busy,
        bursts_declined=mobile.bursts_declined,
        searches_started=len(timelines),
        search_latencies_s=search_latencies,
        handovers_completed=len(completed),
        handovers_failed=sum(
            1 for r in records if r.outcome is HandoverOutcome.FAILED
        ),
        soft_handovers=sum(
            1 for r in records if r.outcome is HandoverOutcome.SOFT
        ),
        hard_handovers=sum(
            1 for r in records if r.outcome is HandoverOutcome.HARD
        ),
        ping_pongs=count_ping_pongs(records),
        completion_times_s=[r.completion_time_s for r in completed],
        outage_s=outage_s,
        outage_fraction=outage_s / duration_s if duration_s > 0.0 else 0.0,
    )


#: Population-wide integer counts summed into ``aggregates["totals"]``.
TOTAL_FIELDS = (
    "bursts_measured",
    "bursts_skipped_busy",
    "searches_started",
    "handovers_completed",
    "handovers_failed",
    "soft_handovers",
    "hard_handovers",
    "ping_pongs",
)

#: Distribution metrics summarized in ``aggregates["summary"]``.
METRIC_KEYS = (
    "search_latency_s",
    "completion_time_s",
    "handover_rate_per_min",
    "ping_pong_rate_per_min",
    "outage_fraction",
)

#: The subset of metrics that also get CDF series (the Fig. 2c plots).
CDF_KEYS = ("search_latency_s", "completion_time_s", "outage_fraction")


class MetricAccumulator:
    """One metric's streaming state: exact moments + quantile sketch."""

    __slots__ = ("moments", "reservoir")

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.moments = StreamingMoments()
        self.reservoir = QuantileReservoir(capacity)

    def extend(self, values: Sequence[float]) -> None:
        self.moments.extend(values)
        self.reservoir.extend(values)

    def merge(self, other: "MetricAccumulator") -> None:
        self.moments.merge(other.moments)
        self.reservoir.merge(other.reservoir)

    def summary(self) -> Dict[str, float]:
        """:func:`summarize`-shaped dict — bit-identical to the batch
        helper while the reservoir is exact, streaming moments plus
        sketch quantiles after."""
        if self.reservoir.exact:
            return summarize(self.reservoir.values())
        return {
            "count": self.moments.count,
            "mean": self.moments.mean,
            "stddev": self.moments.stddev,
            "min": self.moments.min,
            "p10": self.reservoir.quantile(0.10),
            "p50": self.reservoir.quantile(0.50),
            "p90": self.reservoir.quantile(0.90),
            "max": self.moments.max,
        }

    def cdf_payload(self) -> Optional[dict]:
        """``{"xs": ..., "ps": ...}`` series, or ``None`` when empty."""
        if self.reservoir.count == 0:
            return None
        xs, ps = self.reservoir.cdf()
        return {"xs": list(xs), "ps": list(ps)}

    def to_dict(self) -> dict:
        return {
            "moments": self.moments.to_dict(),
            "reservoir": self.reservoir.to_dict(),
        }

    @classmethod
    def from_dict(cls, record: Mapping) -> "MetricAccumulator":
        accumulator = cls.__new__(cls)
        accumulator.moments = StreamingMoments.from_dict(record["moments"])
        accumulator.reservoir = QuantileReservoir.from_dict(record["reservoir"])
        return accumulator


class FleetAccumulator:
    """Mergeable fleet-level aggregation state.

    Users are folded in one at a time (:meth:`add_user`) so a shard
    worker never needs the whole population in memory, and per-shard
    accumulators merge into the population-wide aggregates
    (:meth:`merge`).  With ``capacity=None`` every metric sample is
    retained and :meth:`aggregates` is a pure function of the user
    multiset — byte-identical however the population was sharded; with
    a bounded capacity memory stays flat in N (see the module
    docstring).
    """

    def __init__(
        self, duration_s: float, capacity: Optional[int] = None
    ) -> None:
        self.duration_s = float(duration_s)
        self.capacity = capacity
        self.users = 0
        self.totals: Dict[str, int] = {name: 0 for name in TOTAL_FIELDS}
        self.metrics: Dict[str, MetricAccumulator] = {
            key: MetricAccumulator(capacity) for key in METRIC_KEYS
        }

    def add_user(self, user: FleetUserResult) -> None:
        self.users += 1
        for name in TOTAL_FIELDS:
            self.totals[name] += getattr(user, name)
        per_minute = 60.0 / self.duration_s if self.duration_s > 0.0 else 0.0
        self.metrics["search_latency_s"].extend(user.search_latencies_s)
        self.metrics["completion_time_s"].extend(user.completion_times_s)
        self.metrics["handover_rate_per_min"].extend(
            [user.handovers_completed * per_minute]
        )
        self.metrics["ping_pong_rate_per_min"].extend(
            [user.ping_pongs * per_minute]
        )
        self.metrics["outage_fraction"].extend([user.outage_fraction])

    def add_users(self, users: Sequence[FleetUserResult]) -> None:
        for user in users:
            self.add_user(user)

    def merge(self, other: "FleetAccumulator") -> None:
        """Fold another shard's accumulator in (any grouping order)."""
        if other.duration_s != self.duration_s:
            raise SpecError(
                f"cannot merge fleet aggregates of duration "
                f"{other.duration_s!r}s into {self.duration_s!r}s"
            )
        if other.capacity != self.capacity:
            raise SpecError(
                f"cannot merge fleet aggregates of reservoir capacity "
                f"{other.capacity!r} into {self.capacity!r}"
            )
        self.users += other.users
        for name in TOTAL_FIELDS:
            self.totals[name] += other.totals[name]
        for key in METRIC_KEYS:
            self.metrics[key].merge(other.metrics[key])

    @property
    def exact(self) -> bool:
        """True while every metric reservoir still retains its sample."""
        return all(self.metrics[key].reservoir.exact for key in METRIC_KEYS)

    def aggregates(self) -> Dict[str, object]:
        """The fleet ``aggregates`` payload (totals / summary / cdf)."""
        totals: Dict[str, int] = {"users": self.users}
        totals.update(self.totals)
        return {
            "exact": self.exact,
            "totals": totals,
            "summary": {
                key: self.metrics[key].summary() for key in METRIC_KEYS
            },
            "cdf": {
                key: self.metrics[key].cdf_payload() for key in CDF_KEYS
            },
        }

    # -------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """JSON-safe state for shard artifacts (mergeable on load)."""
        return {
            "duration_s": self.duration_s,
            "capacity": self.capacity,
            "users": self.users,
            "totals": dict(self.totals),
            "metrics": {
                key: self.metrics[key].to_dict() for key in METRIC_KEYS
            },
        }

    @classmethod
    def from_dict(cls, record: Mapping) -> "FleetAccumulator":
        accumulator = cls(record["duration_s"], record["capacity"])
        accumulator.users = int(record["users"])
        for name in TOTAL_FIELDS:
            accumulator.totals[name] = int(record["totals"][name])
        accumulator.metrics = {
            key: MetricAccumulator.from_dict(record["metrics"][key])
            for key in METRIC_KEYS
        }
        return accumulator


def aggregate_users(
    users: Sequence[FleetUserResult], duration_s: float
) -> Dict[str, object]:
    """Fleet-level aggregates over a fully-retained population.

    The exact-mode convenience wrapper around :class:`FleetAccumulator`:

    * ``totals`` — population-wide counts;
    * ``summary`` — per-metric :func:`summarize` dicts (search latency,
      handover completion time, per-user handover/ping-pong rates per
      minute, per-user outage fraction);
    * ``cdf`` — the fleet CDF series Fig. 2c-style plots need (search
      latency, completion time, outage fraction).
    """
    accumulator = FleetAccumulator(duration_s, capacity=None)
    accumulator.add_users(users)
    return accumulator.aggregates()
