"""The paper's cell-edge testbed, as a simulator scenario.

Geometry (meters)::

        cellA (0,10)        cellB (20,10)        cellC (40,10)
           |                    |                    |
    ----------------- street (y = 0) ------------------->  x
              mobile moves / rotates on the street

The mobile operates at ~10-14 m from the base stations — the paper's
"cell edge, 10 m from the base station" setting.  The A/B boundary
(equal path loss) is at x = 10; the handover margin T is reached a
couple of meters beyond it.

Base stations transmit at 0 dBm (SDR-class EIRP before beamforming)
through 20-degree beams; with the mobile's codebook gain this leaves a
comfortable margin for narrow beams, a slimmer one for 60-degree wide
beams, and puts a bare omni receiver right at the detection floor —
reproducing the Fig. 2a success-rate ordering from first principles.

The mobility scenarios and mobile codebook kinds defined here are the
*built-in* entries of :data:`repro.registry.SCENARIOS` and
:data:`repro.registry.CODEBOOKS`; custom scenarios register through the
same decorators and run through every experiment unchanged.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Tuple

from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3
from repro.mobility.base import Trajectory
from repro.mobility.rotation import DeviceRotation
from repro.mobility.vehicular import VehicularDriveBy
from repro.mobility.walk import HumanWalk
from repro.net.base_station import BaseStation
from repro.net.deployment import Deployment, DeploymentConfig
from repro.net.mobile import Mobile
from repro.phy.codebook import Codebook
from repro.registry import (
    SCENARIOS,
    make_codebook,
    register_codebook,
    register_scenario,
)
from repro.util.units import deg_per_s_to_rad_per_s, mph_to_mps

#: Paper mobility parameters.
WALK_SPEED_MPS = 1.4
ROTATION_RATE_DEG_S = 120.0
VEHICLE_SPEED_MPH = 20.0

#: The paper's scenarios, in presentation order.  New scenarios are
#: *registered* (see :func:`repro.registry.register_scenario`), not
#: added here; query ``SCENARIOS.names()`` for the live set.
SCENARIO_NAMES = ("walk", "rotation", "vehicular")

#: Base-station grid.
STATION_POSITIONS = {
    "cellA": Vec3(0.0, 10.0),
    "cellB": Vec3(20.0, 10.0),
    "cellC": Vec3(40.0, 10.0),
}
#: SSB phase stagger keeps the three cells' bursts non-overlapping so a
#: one-RF-chain mobile can visit all of them each period.
STATION_PHASES_S = {"cellA": 0.000, "cellB": 0.005, "cellC": 0.010}

BS_TX_POWER_DBM = 0.0
BS_BEAMWIDTH_DEG = 20.0

#: The paper's mobile codebook kinds; query ``CODEBOOKS.names()`` for
#: the live set including plugins.
CODEBOOK_KINDS = ("narrow", "wide", "omni")


# ------------------------------------------------------------- codebook arms
@register_codebook("narrow")
def _narrow_codebook() -> Codebook:
    """20-degree beams, 18 around the circle (the paper's default)."""
    return Codebook.uniform_azimuth(20.0, name="narrow-20deg")


@register_codebook("wide")
def _wide_codebook() -> Codebook:
    """60-degree beams, 6 around the circle."""
    return Codebook.uniform_azimuth(60.0, name="wide-60deg")


@register_codebook("omni")
def _omni_codebook() -> Codebook:
    """A single isotropic antenna (no beamforming gain)."""
    return Codebook.omni()


def make_mobile_codebook(kind: str) -> Codebook:
    """The mobile receive codebook for a Fig. 2a arm.

    ``kind`` is any registered codebook name — built-ins ``narrow`` (20
    degree), ``wide`` (60 degree), ``omni`` — resolved through
    :data:`repro.registry.CODEBOOKS`.
    """
    return make_codebook(kind)


# ------------------------------------------------------------ scenario arms
@register_scenario(
    "walk",
    duration_s=10.0,
    default_start_x=10.0,
    description="pedestrian walk along the street at 1.4 m/s",
)
def _build_walk(rng, start_x: float) -> Trajectory:
    return HumanWalk(
        Vec3(start_x, 0.0),
        Vec3(WALK_SPEED_MPS, 0.0),
        rng=rng,
    )


@register_scenario(
    "rotation",
    duration_s=8.0,
    default_start_x=14.0,
    description="stationary device rotating at 120 deg/s",
)
def _build_rotation(rng, start_x: float) -> Trajectory:
    return DeviceRotation(
        Vec3(start_x, 0.0),
        deg_per_s_to_rad_per_s(ROTATION_RATE_DEG_S),
        start_heading=0.0,
        rng=rng,
    )


@register_scenario(
    "vehicular",
    duration_s=4.0,
    default_start_x=7.0,
    description="vehicle drive-by at 20 mph",
)
def _build_vehicular(rng, start_x: float) -> Trajectory:
    return VehicularDriveBy(
        Vec3(start_x, 0.0),
        heading_rad=0.0,
        speed_mps=mph_to_mps(VEHICLE_SPEED_MPH),
        rng=rng,
    )


def make_trajectory(
    scenario: str,
    rng=None,
    start_x: Optional[float] = None,
) -> Trajectory:
    """The mobility model for a registered scenario.

    Default starting points put the mobile just short of the A/B
    handover boundary so a full soft-handover episode (search, track,
    trigger, random access) plays out within a couple of seconds —
    matching the regime Fig. 2c reports.
    """
    return SCENARIOS.get(scenario).make_trajectory(rng=rng, start_x=start_x)


def build_street_grid_deployment(
    seed: int,
    config: Optional[DeploymentConfig] = None,
    n_cells: int = 3,
    bs_beamwidth_deg: Optional[float] = None,
) -> Deployment:
    """The paper's street grid of 60 GHz base stations, no mobiles yet.

    The shared substrate of the single-UE cell-edge testbed and the
    population-scale :mod:`repro.fleet` runs: stations, phases and power
    are identical, only the attached population differs.
    """
    if not 2 <= n_cells <= len(STATION_POSITIONS):
        raise ValueError(
            f"n_cells must be in [2, {len(STATION_POSITIONS)}], got {n_cells!r}"
        )
    base = config or DeploymentConfig()
    deployment = Deployment(
        DeploymentConfig(
            master_seed=seed,
            channel=base.channel,
            frame=base.frame,
            rach=base.rach,
            trace_enabled=base.trace_enabled,
            per_link_decode=base.per_link_decode,
            horizon_s=base.horizon_s,
        )
    )
    beamwidth = BS_BEAMWIDTH_DEG if bs_beamwidth_deg is None else bs_beamwidth_deg
    cell_ids = list(STATION_POSITIONS)[:n_cells]
    for cell_id in cell_ids:
        position = STATION_POSITIONS[cell_id]
        deployment.add_station(
            BaseStation(
                cell_id,
                # Base stations face the street (heading -y); with a full
                # 360-degree codebook the heading only fixes beam indexing.
                Pose(position, heading=-math.pi / 2.0),
                Codebook.uniform_azimuth(beamwidth, name=f"bs-{cell_id}"),
                tx_power_dbm=BS_TX_POWER_DBM,
                frame=base.frame,
                ssb_phase_s=STATION_PHASES_S[cell_id],
            )
        )
    return deployment


def build_corridor_deployment(
    seed: int,
    config: Optional[DeploymentConfig] = None,
    n_cells: int = 64,
    cell_pitch_m: float = 50.0,
    phase_slots: int = 8,
    pathloss_exponent: float = 3.2,
    bs_beamwidth_deg: Optional[float] = None,
) -> Deployment:
    """A dense urban corridor: ``n_cells`` stations along one street.

    The scale-out counterpart of :func:`build_street_grid_deployment`:
    stations sit every ``cell_pitch_m`` meters at the paper's 10 m
    setback, cycling through ``phase_slots`` SSB phase offsets, with an
    NLoS-grade path-loss exponent (default 3.2) so distant cells fall
    below the detection floor — the regime the spatial cell index and
    coalesced burst scheduling are built for.

    Phase offsets are placed at *half-slot* positions,
    ``(slot + 0.5) * period / phase_slots``, and validated to be
    non-integer-millisecond: every protocol-layer delay (RACH, handover
    timers) lives on an integer-millisecond lattice, so no foreign
    event can land exactly on a shared burst tick — the condition under
    which coalesced multi-station delivery is provably byte-identical
    to per-station scheduling.
    """
    if n_cells < 2:
        raise ValueError(f"need at least 2 cells, got {n_cells!r}")
    if cell_pitch_m <= 0.0:
        raise ValueError(f"cell pitch must be positive, got {cell_pitch_m!r}")
    if phase_slots < 1:
        raise ValueError(f"need at least 1 phase slot, got {phase_slots!r}")
    base = config or DeploymentConfig()
    channel = dataclasses.replace(
        base.channel, pathloss_exponent=pathloss_exponent
    )
    period_s = base.frame.ssb_period_s
    phases = [
        (slot + 0.5) * period_s / phase_slots for slot in range(phase_slots)
    ]
    for phase in phases:
        ms = phase * 1e3
        if abs(ms - round(ms)) < 1e-9:
            raise ValueError(
                f"phase_slots={phase_slots} puts an SSB phase at "
                f"{ms:.3f} ms — an integer-millisecond offset can collide "
                f"with protocol events on a shared coalesced tick; choose "
                f"a slot count whose half-slot phases are off-lattice"
            )
    deployment = Deployment(
        DeploymentConfig(
            master_seed=seed,
            channel=channel,
            frame=base.frame,
            rach=base.rach,
            trace_enabled=base.trace_enabled,
            per_link_decode=base.per_link_decode,
            horizon_s=base.horizon_s,
        )
    )
    beamwidth = BS_BEAMWIDTH_DEG if bs_beamwidth_deg is None else bs_beamwidth_deg
    for i in range(n_cells):
        deployment.add_station(
            BaseStation(
                f"cell{i:04d}",
                Pose(Vec3(i * cell_pitch_m, 10.0), heading=-math.pi / 2.0),
                Codebook.uniform_azimuth(beamwidth, name=f"bs-cell{i:04d}"),
                tx_power_dbm=BS_TX_POWER_DBM,
                frame=base.frame,
                ssb_phase_s=phases[i % phase_slots],
            )
        )
    return deployment


def build_cell_edge_deployment(
    seed: int,
    mobile_codebook: str = "narrow",
    scenario: str = "walk",
    config: Optional[DeploymentConfig] = None,
    n_cells: int = 3,
    start_x: Optional[float] = None,
    bs_beamwidth_deg: Optional[float] = None,
) -> Tuple[Deployment, Mobile]:
    """The paper's testbed: one mobile, three 60 GHz base stations.

    Returns the (not yet started) deployment and the mobile.  The caller
    attaches a protocol and runs the simulator — or lets
    :class:`repro.api.Session` own that lifecycle.  ``bs_beamwidth_deg``
    overrides the stations' codebook beamwidth (the bench suites use
    10-degree beams for SSB-dense variants).
    """
    deployment = build_street_grid_deployment(
        seed, config=config, n_cells=n_cells, bs_beamwidth_deg=bs_beamwidth_deg
    )
    trajectory = make_trajectory(
        scenario, rng=deployment.rng.stream("mobility"), start_x=start_x
    )
    mobile = deployment.add_mobile(
        Mobile("ue0", trajectory, make_mobile_codebook(mobile_codebook))
    )
    return deployment, mobile
