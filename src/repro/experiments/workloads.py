"""Workload generation: canned RSS traces and protocol replay.

Two uses:

* **Offline protocol study** — generate the RSS time-series a mobile
  would observe on a given beam toward a given cell under a scenario,
  without running the event loop.  This is the "workload generator"
  behind the calibration plots and several unit tests.
* **Replay** — drive a decision engine (BeamSurfer / NeighborTracker)
  from a canned or hand-crafted trace, so protocol corner cases can be
  scripted precisely and replayed deterministically.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.api import Session, TrialSpec
from repro.campaign.aggregate import group_trials
from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.experiments.scenarios import SCENARIO_NAMES
from repro.measure.report import RssMeasurement
from repro.registry import UnknownNameError, register_experiment

#: The receive-beam policies of the workload generator (its campaign
#: ``protocols`` axis).
RX_BEAM_POLICIES = ("best", "fixed")


@dataclass(frozen=True)
class RssTracePoint:
    """One point of a generated RSS workload."""

    time_s: float
    rss_dbm: Optional[float]  # None = below detection floor
    snr_db: Optional[float]
    tx_beam: Optional[int]
    rx_beam: int
    distance_m: float


def generate_rss_trace(
    cell_id: str = "cellB",
    scenario: str = "walk",
    seed: int = 1,
    duration_s: float = 4.0,
    period_s: float = 0.020,
    rx_beam_policy: str = "best",
    fixed_rx_beam: int = 0,
) -> List[RssTracePoint]:
    """The RSS a mobile would measure toward ``cell_id`` over time.

    ``rx_beam_policy`` is ``"best"`` (genie-pointed every sample — the
    upper envelope a perfect tracker could achieve) or ``"fixed"``
    (hold ``fixed_rx_beam`` throughout — shows how motion walks the
    signal out of a static beam, the dynamic the 3 dB rule reacts to).
    """
    if rx_beam_policy not in RX_BEAM_POLICIES:
        raise UnknownNameError("rx-beam policy", rx_beam_policy, RX_BEAM_POLICIES)
    with Session(TrialSpec(scenario=scenario, seed=seed)) as session:
        mobile = session.mobile
        station = session.deployment.station(cell_id)
        trace: List[RssTracePoint] = []
        steps = int(duration_s / period_s)
        for k in range(steps):
            t = k * period_s
            if rx_beam_policy == "best":
                rx_beam = mobile.best_rx_beam_towards(station, t)
            else:
                rx_beam = fixed_rx_beam
            measurement = session.deployment.links.measure_burst(
                station,
                mobile.mobile_id,
                mobile.pose_at(t),
                mobile.rx_gain_fn(t),
                rx_beam,
                t,
            )
            trace.append(
                RssTracePoint(
                    time_s=t,
                    rss_dbm=measurement.rss_dbm,
                    snr_db=measurement.snr_db,
                    tx_beam=measurement.tx_beam,
                    rx_beam=rx_beam,
                    distance_m=mobile.pose_at(t).distance_to(station.pose.position),
                )
            )
    return trace


# ----------------------------------------------------------- experiment kind
def _decode_workload(payload: dict) -> List[RssTracePoint]:
    return [RssTracePoint(**point) for point in payload["points"]]


def workload_headline(traces) -> dict:
    """Detection duty cycle of one policy arm: per trace, and its mean."""
    duties = tuple(detection_duty_cycle(trace) for trace in traces)
    return {
        "traces": len(traces),
        "points": sum(len(trace) for trace in traces),
        "mean_duty_cycle": sum(duties) / len(duties),
        "duty_cycles": duties,
    }


@register_experiment(
    "workload",
    decode=_decode_workload,
    headline=workload_headline,
    columns=(
        ("mean duty cycle", "mean_duty_cycle"),
        ("points", "points"),
    ),
    axis="custom",
    protocol_axis="rx-beam policy",
    protocol_names=lambda: RX_BEAM_POLICIES,
    default_protocols=RX_BEAM_POLICIES,
    description="canned RSS traces (genie-pointed vs fixed receive beam)",
)
def _run_workload_cell(cell) -> dict:
    trace = generate_rss_trace(
        cell_id=str(cell.params.get("cell", "cellB")),
        scenario=cell.scenario,
        seed=cell.seed,
        duration_s=float(cell.params.get("duration_s", 4.0)),
        period_s=float(cell.params.get("period_s", 0.020)),
        rx_beam_policy=cell.protocol,
        fixed_rx_beam=int(cell.params.get("fixed_rx_beam", 0)),
    )
    return {
        "points": [dataclasses.asdict(point) for point in trace],
        "duty_cycle": detection_duty_cycle(trace),
    }


def workload_spec(
    scenarios: Sequence[str] = SCENARIO_NAMES,
    policies: Sequence[str] = RX_BEAM_POLICIES,
    n_traces: int = 1,
    base_seed: int = 1,
    cell_id: str = "cellB",
    duration_s: float = 4.0,
    period_s: float = 0.020,
    fixed_rx_beam: int = 0,
    name: str = "workload",
) -> CampaignSpec:
    """An RSS-workload sweep as a campaign grid (scenario x policy x seed)."""
    return CampaignSpec(
        name=name,
        experiment="workload",
        scenarios=tuple(scenarios),
        protocols=tuple(policies),
        seeds=n_traces,
        base_seed=base_seed,
        params={
            "cell": cell_id,
            "duration_s": duration_s,
            "period_s": period_s,
            "fixed_rx_beam": fixed_rx_beam,
        },
    )


def run_workload_sweep(
    scenarios: Sequence[str] = SCENARIO_NAMES,
    policies: Sequence[str] = RX_BEAM_POLICIES,
    n_traces: int = 1,
    base_seed: int = 1,
    cell_id: str = "cellB",
    duration_s: float = 4.0,
    period_s: float = 0.020,
    fixed_rx_beam: int = 0,
    workers: int = 1,
) -> Dict[str, Dict[str, List[List[RssTracePoint]]]]:
    """Generate RSS workloads over the full scenario x policy grid.

    Thin wrapper over :func:`repro.campaign.runner.run_campaign` on the
    :func:`workload_spec` grid; :func:`generate_rss_trace` remains the
    one-shot single-trace entry point.  Returns
    ``{scenario: {policy: [trace, ...]}}`` with traces in seed order.
    """
    spec = workload_spec(
        scenarios=scenarios,
        policies=policies,
        n_traces=n_traces,
        base_seed=base_seed,
        cell_id=cell_id,
        duration_s=duration_s,
        period_s=period_s,
        fixed_rx_beam=fixed_rx_beam,
    )
    result = run_campaign(spec, workers=workers)
    grouped: Dict[str, Dict[str, List[List[RssTracePoint]]]] = {}
    for (scenario, policy), traces in group_trials(
        result.results_in_order(), "scenario", "protocol"
    ).items():
        grouped.setdefault(scenario, {})[policy] = traces
    return grouped


def trace_to_measurements(
    trace: Sequence[RssTracePoint], cell_id: str
) -> List[RssMeasurement]:
    """Convert a workload trace into protocol-consumable measurements."""
    return [
        RssMeasurement(
            point.time_s,
            cell_id,
            point.rx_beam,
            tx_beam=point.tx_beam,
            rss_dbm=point.rss_dbm,
            snr_db=point.snr_db,
        )
        for point in trace
    ]


def replay_into(
    measurements: Sequence[RssMeasurement],
    on_measurement: Callable[[RssMeasurement, float], None],
) -> int:
    """Feed a measurement sequence to a decision engine.

    ``on_measurement(measurement, now_s)`` matches the signature of
    :meth:`BeamSurfer.on_serving_measurement` and
    :meth:`NeighborTracker.on_measurement`.  Returns the number of
    measurements replayed.  Measurements must be time-ordered.
    """
    last_time = float("-inf")
    count = 0
    for measurement in measurements:
        if measurement.time_s < last_time:
            raise ValueError(
                f"measurements out of order at t={measurement.time_s!r}"
            )
        last_time = measurement.time_s
        on_measurement(measurement, measurement.time_s)
        count += 1
    return count


def detection_duty_cycle(trace: Sequence[RssTracePoint]) -> float:
    """Fraction of workload samples above the detection floor."""
    if not trace:
        raise ValueError("empty trace")
    return sum(1 for p in trace if p.rss_dbm is not None) / len(trace)
