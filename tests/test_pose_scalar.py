"""Scalar ``pose_at`` of the walk and drive-by models, bit for bit.

``HumanWalk.pose_at`` and ``VehicularDriveBy.pose_at`` build their
position from float maths instead of a chain of ``Vec3`` operators.  The
oracles below keep the operator formulation; every component must match
it exactly, since poses feed the byte-identical fleet artifacts.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.angles import wrap_to_pi
from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3
from repro.mobility.vehicular import JITTER_AMPLITUDE_RAD, VehicularDriveBy
from repro.mobility.walk import (
    SWAY_AMPLITUDE_M,
    WOBBLE_AMPLITUDE_RAD,
    HumanWalk,
)


def walk_pose_oracle(walk: HumanWalk, time_s: float) -> Pose:
    along = walk._start + walk._velocity * time_s
    sway = SWAY_AMPLITUDE_M * math.sin(
        2.0 * math.pi * walk._gait_hz * time_s + walk._sway_phase
    )
    position = along + walk._lateral * sway
    wobble = WOBBLE_AMPLITUDE_RAD * (
        0.7 * math.sin(2.0 * math.pi * walk._gait_hz * time_s + walk._wobble_phase)
        + 0.3 * math.sin(2.0 * math.pi * 0.2 * time_s + walk._wander_phase)
    )
    return Pose(position, wrap_to_pi(walk._travel_heading + wobble))


def drive_pose_oracle(drive: VehicularDriveBy, time_s: float) -> Pose:
    position = drive._start + drive._velocity * time_s
    jitter = JITTER_AMPLITUDE_RAD * (
        0.6 * math.sin(2.0 * math.pi * 1.7 * time_s + drive._jitter_phases[0])
        + 0.4 * math.sin(2.0 * math.pi * 4.3 * time_s + drive._jitter_phases[1])
    )
    return Pose(position, wrap_to_pi(drive._heading + jitter))


def _bits(pose: Pose):
    p = pose.position
    return tuple(float(v).hex() for v in (p.x, p.y, p.z, pose.heading))


seeds = st.integers(0, 2**31 - 1)
coords = st.floats(-200.0, 200.0)
times = st.lists(st.floats(0.0, 600.0), min_size=1, max_size=20)


class TestWalkPose:
    @given(seeds, coords, coords, st.floats(-1.0, 3.0), times)
    @settings(max_examples=100, deadline=None)
    def test_matches_operator_formulation(self, seed, x, y, z, ts):
        rng = np.random.default_rng(seed)
        speed = float(rng.uniform(0.3, 3.0))
        heading = float(rng.uniform(-math.pi, math.pi))
        walk = HumanWalk(
            Vec3(x, y, z),
            Vec3(speed * math.cos(heading), speed * math.sin(heading),
                 float(rng.choice([0.0, -0.0, 0.05]))),
            rng=rng,
        )
        for t in ts:
            assert _bits(walk.pose_at(t)) == _bits(walk_pose_oracle(walk, t))

    def test_canonical_gait_without_rng(self):
        walk = HumanWalk(Vec3(10.0, 0.0), Vec3(1.4, 0.0))
        for t in np.linspace(0.0, 10.0, 101):
            assert _bits(walk.pose_at(t)) == _bits(walk_pose_oracle(walk, t))


class TestDriveByPose:
    @given(seeds, coords, coords, st.floats(-1.0, 3.0), times)
    @settings(max_examples=100, deadline=None)
    def test_matches_operator_formulation(self, seed, x, y, z, ts):
        rng = np.random.default_rng(seed)
        drive = VehicularDriveBy(
            Vec3(x, y, z),
            heading_rad=float(rng.uniform(-math.pi, math.pi)),
            speed_mps=float(rng.uniform(1.0, 30.0)),
            rng=rng,
        )
        for t in ts:
            assert _bits(drive.pose_at(t)) == _bits(drive_pose_oracle(drive, t))
