"""Higher-level spatial queries over the tracking store.

These are the queries the recommender and the control dashboard issue:
"which listeners are currently near this point of interest", "how far has
this listener driven in the last N minutes", "what area does this listener's
recent movement cover".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import NotFoundError
from repro.geo import BoundingBox, GeoPoint
from repro.geo.geodesy import haversine_m, path_length_m
from repro.spatialdb.tracking_store import GpsFix, TrackingStore


@dataclass(frozen=True)
class MovementSummary:
    """Summary of a listener's recent movement used by the dashboard."""

    user_id: str
    fix_count: int
    distance_m: float
    duration_s: float
    mean_speed_mps: float
    bounding_box: Optional[BoundingBox]

    @property
    def is_moving(self) -> bool:
        """Heuristic: the listener is moving if mean speed exceeds 1 m/s."""
        return self.mean_speed_mps > 1.0


class SpatialQueryEngine:
    """Read-only analytical queries over a :class:`TrackingStore`."""

    def __init__(self, store: TrackingStore) -> None:
        self._store = store

    def listeners_near(self, center: GeoPoint, radius_m: float) -> List[str]:
        """User ids whose latest position is within the radius, nearest first."""
        return self._store.users_within(center, radius_m)

    def distance_travelled_m(
        self, user_id: str, *, start_s: Optional[float] = None, end_s: Optional[float] = None
    ) -> float:
        """Path length of a user's fixes in the given time range."""
        fixes = self._store.fixes_for(user_id, start_s=start_s, end_s=end_s)
        return path_length_m(fix.position for fix in fixes)

    def movement_summary(
        self, user_id: str, *, window_s: Optional[float] = None
    ) -> MovementSummary:
        """Summarize a user's recent movement.

        ``window_s`` restricts the summary to the trailing window ending at
        the user's latest fix; ``None`` summarizes the full history.
        """
        all_fixes = self._store.fixes_for(user_id)
        if not all_fixes:
            raise NotFoundError(f"no tracking data for user {user_id!r}")
        if window_s is not None:
            cutoff = all_fixes[-1].timestamp_s - window_s
            fixes = [fix for fix in all_fixes if fix.timestamp_s >= cutoff]
        else:
            fixes = all_fixes
        distance = path_length_m(fix.position for fix in fixes)
        duration = fixes[-1].timestamp_s - fixes[0].timestamp_s if len(fixes) > 1 else 0.0
        mean_speed = distance / duration if duration > 0 else 0.0
        box = BoundingBox.from_points(fix.position for fix in fixes) if fixes else None
        return MovementSummary(
            user_id=user_id,
            fix_count=len(fixes),
            distance_m=distance,
            duration_s=duration,
            mean_speed_mps=mean_speed,
            bounding_box=box,
        )

    def displacement_m(self, user_id: str, window_s: float) -> float:
        """Straight-line displacement over the trailing window.

        A small displacement with a large travelled distance indicates the
        user is circling (e.g. looking for parking), which the proactive
        recommender treats differently from a commute.
        """
        fixes = self._store.fixes_for(user_id)
        if not fixes:
            raise NotFoundError(f"no tracking data for user {user_id!r}")
        cutoff = fixes[-1].timestamp_s - window_s
        window_fixes = [fix for fix in fixes if fix.timestamp_s >= cutoff]
        if len(window_fixes) < 2:
            return 0.0
        return haversine_m(window_fixes[0].position, window_fixes[-1].position)

    def current_speed_mps(self, user_id: str, *, smoothing_fixes: int = 3) -> float:
        """Estimate the user's current speed from the trailing fixes."""
        recent: List[GpsFix] = self._store.recent_fixes(user_id, max(2, smoothing_fixes))
        if len(recent) < 2:
            return recent[-1].speed_mps
        distance = path_length_m(fix.position for fix in recent)
        duration = recent[-1].timestamp_s - recent[0].timestamp_s
        if duration <= 0:
            return recent[-1].speed_mps
        return distance / duration
