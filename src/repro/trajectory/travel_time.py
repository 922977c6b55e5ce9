"""Travel-time (ΔT) prediction.

Once a destination is predicted, the recommender needs the remaining
available time ΔT to "allocate the most relevant content for the available
time" (paper Figure 2).  The predictor blends two estimates:

* history: the median duration of the matching route cluster, scaled by the
  fraction of the route not yet driven;
* road network: the planner's travel time from the current position to the
  destination, with a congestion profile by time of day.

The blend weight moves toward the history estimate as the cluster support
grows.  The estimate carries an uncertainty band derived from the cluster's
duration spread, which the scheduler uses to avoid over-filling ΔT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import NotFoundError, PredictionError
from repro.geo import GeoPoint
from repro.roadnet.routing import RoutePlanner
from repro.trajectory.clustering import RouteCluster
from repro.util.timeutils import time_of_day_bucket

#: Default congestion multipliers by time-of-day bucket.
DEFAULT_CONGESTION: Dict[str, float] = {
    "night": 1.0,
    "morning": 1.35,
    "afternoon": 1.2,
    "evening": 1.4,
}


@dataclass(frozen=True)
class TravelTimeEstimate:
    """A ΔT estimate with an uncertainty band."""

    expected_s: float
    low_s: float
    high_s: float
    history_component_s: Optional[float]
    network_component_s: Optional[float]
    history_weight: float

    @property
    def usable_s(self) -> float:
        """Conservative available time the scheduler should plan against.

        Planning against the lower bound keeps the recommended block from
        outlasting the drive, mirroring the paper's goal of fitting content
        to the available time.
        """
        return self.low_s


class TravelTimePredictor:
    """Blends historical and road-network travel time estimates."""

    def __init__(
        self,
        planner: Optional[RoutePlanner] = None,
        *,
        congestion: Optional[Dict[str, float]] = None,
        min_history_support: int = 2,
    ) -> None:
        self._planner = planner
        self._congestion = dict(DEFAULT_CONGESTION)
        if congestion:
            self._congestion.update(congestion)
        self._min_history_support = min_history_support

    def estimate(
        self,
        current_position: GeoPoint,
        destination: GeoPoint,
        *,
        now_s: float,
        cluster: Optional[RouteCluster] = None,
        fraction_completed: Optional[float] = None,
    ) -> TravelTimeEstimate:
        """Estimate the remaining travel time from the current position.

        ``cluster`` is the matched historical route cluster, if any;
        ``fraction_completed`` is the share of that route already driven
        (estimated by the caller from distance along the representative
        route).  At least one of the two evidence sources must be available.
        """
        history_s: Optional[float] = None
        history_spread_s = 0.0
        if cluster is not None and cluster.support >= self._min_history_support:
            remaining_fraction = 1.0 - min(1.0, max(0.0, fraction_completed or 0.0))
            history_s = cluster.median_duration_s * remaining_fraction
            history_spread_s = cluster.duration_stddev_s * max(0.25, remaining_fraction)

        network_s: Optional[float] = None
        if self._planner is not None:
            bucket = time_of_day_bucket(now_s).name
            factor = self._congestion.get(bucket, 1.0)
            try:
                network_s = self._planner.travel_time_s(current_position, destination) * factor
            except NotFoundError:  # no route is a legitimate outcome
                network_s = None

        if history_s is None and network_s is None:
            raise PredictionError(
                "travel time estimation needs either a route cluster or a road network"
            )

        if history_s is not None and network_s is not None:
            support = cluster.support if cluster is not None else 0
            history_weight = min(0.85, support / (support + 3.0))
            expected = history_weight * history_s + (1.0 - history_weight) * network_s
        elif history_s is not None:
            history_weight = 1.0
            expected = history_s
        else:
            history_weight = 0.0
            expected = float(network_s)

        spread = max(history_spread_s, 0.12 * expected)
        low = max(0.0, expected - spread)
        high = expected + spread
        return TravelTimeEstimate(
            expected_s=expected,
            low_s=low,
            high_s=high,
            history_component_s=history_s,
            network_component_s=network_s,
            history_weight=history_weight,
        )

    def relative_error(self, estimate: TravelTimeEstimate, actual_s: float) -> float:
        """Absolute relative error of an estimate against the realized duration."""
        if actual_s <= 0:
            raise PredictionError("actual_s must be > 0")
        return abs(estimate.expected_s - actual_s) / actual_s
