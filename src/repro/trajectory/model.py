"""Trajectory data model: time-stamped point sequences and trip splitting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.errors import TrajectoryError
from repro.geo import BoundingBox, GeoPoint, Polyline
from repro.geo.geodesy import haversine_m
from repro.spatialdb.tracking_store import GpsFix
from repro.util.timeutils import time_of_day_bucket


@dataclass(frozen=True)
class TrajectoryPoint:
    """A time-stamped position sample inside a trajectory."""

    timestamp_s: float
    position: GeoPoint
    speed_mps: float = 0.0


class Trajectory:
    """A time-ordered sequence of position samples for one user.

    Unlike a :class:`~repro.geo.polyline.Polyline`, a trajectory carries
    time, so speed profiles and stop detection are meaningful.  It is
    immutable (``points`` hands out a copy), so derived values such as
    :attr:`length_m` are computed once and kept.
    """

    def __init__(self, user_id: str, points: Sequence[TrajectoryPoint]) -> None:
        if not points:
            raise TrajectoryError("a trajectory requires at least one point")
        for earlier, later in zip(points, points[1:]):
            if later.timestamp_s < earlier.timestamp_s:
                raise TrajectoryError("trajectory points must be time-ordered")
        self._user_id = user_id
        self._points: List[TrajectoryPoint] = list(points)
        self._length_m: Optional[float] = None

    @classmethod
    def from_fixes(cls, user_id: str, fixes: Iterable[GpsFix]) -> "Trajectory":
        """Build a trajectory from tracking-store fixes."""
        points = [
            TrajectoryPoint(fix.timestamp_s, fix.position, fix.speed_mps) for fix in fixes
        ]
        return cls(user_id, points)

    @property
    def user_id(self) -> str:
        """Owner of the trajectory."""
        return self._user_id

    @property
    def points(self) -> List[TrajectoryPoint]:
        """Copy of the sample list."""
        return list(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def __getitem__(self, index: int) -> TrajectoryPoint:
        return self._points[index]

    @property
    def start(self) -> TrajectoryPoint:
        """First sample."""
        return self._points[0]

    @property
    def end(self) -> TrajectoryPoint:
        """Last sample."""
        return self._points[-1]

    @property
    def origin(self) -> GeoPoint:
        """First position."""
        return self._points[0].position

    @property
    def destination(self) -> GeoPoint:
        """Last position."""
        return self._points[-1].position

    @property
    def duration_s(self) -> float:
        """Elapsed time from first to last sample."""
        return self._points[-1].timestamp_s - self._points[0].timestamp_s

    @property
    def length_m(self) -> float:
        """Path length over all samples (summed on first read, then kept).

        Route clusters read every member's length on each context build,
        so re-summing the haversines per read dominated that path.
        """
        if self._length_m is None:
            total = 0.0
            for earlier, later in zip(self._points, self._points[1:]):
                total += haversine_m(earlier.position, later.position)
            self._length_m = total
        return self._length_m

    @property
    def mean_speed_mps(self) -> float:
        """Length divided by duration (0 if the trajectory has no duration)."""
        duration = self.duration_s
        if duration <= 0:
            return 0.0
        return self.length_m / duration

    @property
    def start_time_of_day(self) -> str:
        """Name of the time-of-day bucket in which the trajectory starts."""
        return time_of_day_bucket(self._points[0].timestamp_s).name

    def positions(self) -> List[GeoPoint]:
        """All positions in order."""
        return [point.position for point in self._points]

    def to_polyline(self) -> Polyline:
        """Geometry of the trajectory."""
        return Polyline(self.positions())

    def bounding_box(self) -> BoundingBox:
        """Smallest box covering the trajectory."""
        return BoundingBox.from_points(self.positions())

    def slice_time(self, start_s: float, end_s: float) -> "Trajectory":
        """Sub-trajectory restricted to ``[start_s, end_s)``."""
        points = [p for p in self._points if start_s <= p.timestamp_s < end_s]
        if not points:
            raise TrajectoryError(
                f"time slice [{start_s}, {end_s}) contains no trajectory points"
            )
        return Trajectory(self._user_id, points)

    def displacement_m(self) -> float:
        """Straight-line distance between origin and destination."""
        return haversine_m(self.origin, self.destination)

    def speeds_mps(self) -> List[float]:
        """Per-segment speeds derived from consecutive samples."""
        speeds: List[float] = []
        for earlier, later in zip(self._points, self._points[1:]):
            dt = later.timestamp_s - earlier.timestamp_s
            if dt <= 0:
                speeds.append(0.0)
            else:
                speeds.append(haversine_m(earlier.position, later.position) / dt)
        return speeds


def split_into_trips(
    trajectory: Trajectory,
    *,
    stop_duration_s: float = 300.0,
    stop_radius_m: float = 75.0,
    max_gap_s: float = 300.0,
    min_trip_points: int = 5,
    min_trip_length_m: float = 400.0,
) -> List[Trajectory]:
    """Split a long trace into individual trips separated by stops.

    A trip boundary occurs when either

    * the device goes silent for more than ``max_gap_s`` (the phone stops
      reporting because the car is parked), or
    * the user dwells for at least ``stop_duration_s`` within
      ``stop_radius_m`` of one spot while fixes keep arriving.

    Trips shorter than ``min_trip_points`` samples or ``min_trip_length_m``
    meters are discarded as noise.
    """
    points = trajectory.points
    if len(points) < 2:
        return []
    trips: List[Trajectory] = []
    current: List[TrajectoryPoint] = [points[0]]
    index = 1
    while index < len(points):
        point = points[index]
        anchor = current[-1]
        # Boundary 1: a long reporting gap means the drive ended.
        if point.timestamp_s - anchor.timestamp_s > max_gap_s:
            _maybe_append_trip(trips, trajectory.user_id, current, min_trip_points, min_trip_length_m)
            current = [point]
            index += 1
            continue
        # Boundary 2: a dwell period while fixes keep arriving.
        lookahead = index
        while (
            lookahead < len(points)
            and haversine_m(anchor.position, points[lookahead].position) <= stop_radius_m
        ):
            lookahead += 1
        stopped_duration = (
            points[lookahead - 1].timestamp_s - anchor.timestamp_s if lookahead > index else 0.0
        )
        if stopped_duration >= stop_duration_s:
            # Close the current trip at the anchor and skip the stop.
            _maybe_append_trip(trips, trajectory.user_id, current, min_trip_points, min_trip_length_m)
            current = [points[lookahead - 1]]
            index = lookahead
        else:
            current.append(point)
            index += 1
    _maybe_append_trip(trips, trajectory.user_id, current, min_trip_points, min_trip_length_m)
    return trips


def _maybe_append_trip(
    trips: List[Trajectory],
    user_id: str,
    points: List[TrajectoryPoint],
    min_trip_points: int,
    min_trip_length_m: float,
) -> None:
    if len(points) < min_trip_points:
        return
    candidate = Trajectory(user_id, points)
    if candidate.length_m < min_trip_length_m:
        return
    trips.append(candidate)
