"""Workload generation: canned RSS traces.

Generates the RSS time-series a mobile would observe on a given beam
toward a given cell under a scenario, without running the event loop.
This is the "workload generator" behind the calibration plots and the
``workload`` experiment kind.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.api import Session, TrialSpec
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


def detection_duty_cycle(trace: Sequence[RssTracePoint]) -> float:
    """Fraction of workload samples above the detection floor."""
    if not trace:
        raise ValueError("empty trace")
    return sum(1 for p in trace if p.rss_dbm is not None) / len(trace)
