"""Trajectory interface and trivial implementations."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence, Tuple

from repro.geometry.pose import Pose
from repro.geometry.vectors import Vec3


class Trajectory(ABC):
    """A pure function from time to pose.

    Implementations must be deterministic: ``pose_at(t)`` returns the
    same pose for the same ``t`` no matter how many times or in what
    order it is called.
    """

    @abstractmethod
    def pose_at(self, time_s: float) -> Pose:
        """Pose at simulated time ``time_s`` (seconds, may be any >= 0)."""

    def position_bound(
        self, horizon_s: Optional[float] = None
    ) -> Optional[Tuple[Vec3, float]]:
        """A ``(center, radius_m)`` circle provably containing
        ``pose_at(t).position`` for every ``t`` in ``[0, horizon_s]``.

        The spatial cell index derives candidate base-station sets from
        this bound, so implementations must be *conservative*: every
        reachable position within the horizon lies inside the circle.
        ``horizon_s=None`` asks for a bound valid for **all** ``t >= 0``;
        models with unbounded motion return ``None`` in that case (and
        the index simply keeps every station as a candidate for them).
        The default is ``None`` — unknown motion is never pruned.
        """
        return None


def sample_poses(trajectories: Sequence["Trajectory"], time_s: float) -> List[Pose]:
    """Poses of a whole population at one instant, in input order.

    The cross-user pose-sampling entry point of the fleet burst path.
    Trajectory models are heterogeneous Python objects, so this is a
    plain ordered loop today; it exists so population-wide pose
    evaluation has one seam to optimize (per-model vectorization,
    caching) without touching the delivery code.
    """
    return [trajectory.pose_at(time_s) for trajectory in trajectories]


class StaticPose(Trajectory):
    """A node that never moves (base stations, parked devices)."""

    def __init__(self, pose: Pose) -> None:
        self._pose = pose

    def pose_at(self, time_s: float) -> Pose:
        return self._pose

    def position_bound(
        self, horizon_s: Optional[float] = None
    ) -> Optional[Tuple[Vec3, float]]:
        return (self._pose.position, 0.0)


class TimeShifted(Trajectory):
    """Wraps another trajectory with a time offset.

    ``TimeShifted(inner, 5.0).pose_at(t) == inner.pose_at(t - 5.0)``
    (clamped at the inner trajectory's origin).  Experiment runners use
    this to start a canned motion mid-run.
    """

    def __init__(self, inner: Trajectory, offset_s: float) -> None:
        self._inner = inner
        self._offset_s = offset_s

    def pose_at(self, time_s: float) -> Pose:
        return self._inner.pose_at(max(0.0, time_s - self._offset_s))

    def position_bound(
        self, horizon_s: Optional[float] = None
    ) -> Optional[Tuple[Vec3, float]]:
        # The shifted clock ``max(0, t - offset)`` over ``[0, horizon]``
        # covers a subset of the inner trajectory's ``[0, horizon]``
        # window (for non-negative offsets), so the inner bound is
        # conservative as-is.
        if self._offset_s < 0.0:
            return self._inner.position_bound(None)
        return self._inner.position_bound(horizon_s)
