"""Clustering of a user's historical trips into recurring routes.

The proactive recommender needs to recognise "this looks like the usual
morning commute" from the first minutes of a drive.  We group historical
trips by (origin stay point, destination stay point) and, within a group,
verify geometric coherence with the route-similarity measure.  Each cluster
keeps summary statistics (typical departure time, typical duration and its
spread) that the travel-time predictor uses.

Coherence used to be the last O(trips²)-with-resampling path on the ingest
loop: every pairwise :func:`~repro.trajectory.features.route_similarity`
call re-sampled both polylines.  Clusters now maintain a *running* pairwise
similarity sum over cached per-trip
:class:`~repro.trajectory.features.RouteSignature` objects, so
:meth:`RouteCluster.geometric_coherence` needs no similarity work to read
once the sum is synced (only an O(members) pointer-identity check that the
trip list was not mutated directly), updates in O(members) when a trip
joins via :meth:`RouteCluster.add_trip`, and the per-pair scores stay
bit-identical to the reference measure.  :class:`RouteClusterIndex` additionally replaces
the linear (origin, destination) scan of :func:`find_cluster` with a dict
lookup for callers that resolve clusters per trip.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import TrajectoryError
from repro.trajectory.features import route_signature, route_similarity_signatures
from repro.trajectory.model import Trajectory
from repro.trajectory.staypoints import StayPoint, nearest_by_trig, stay_point_trig
from repro.util.timeutils import SECONDS_PER_DAY


@dataclass
class RouteCluster:
    """A group of similar historical trips between two stay points.

    ``trips`` stays a plain public list for compatibility, but callers on
    hot paths should append through :meth:`add_trip`, which keeps the
    running pairwise-similarity sum maintained (O(members) per join once
    coherence is being consumed, a plain append before that).  Trips
    appended directly are folded in lazily on the next
    :meth:`geometric_coherence` read.
    """

    cluster_id: int
    origin_stay_point: int
    destination_stay_point: int
    trips: List[Trajectory] = field(default_factory=list)
    #: Running sum of pairwise route similarities over the trips already
    #: folded in (see ``_synced_trips``); derived-only state, never passed
    #: to the constructor and excluded from equality/repr.
    _similarity_sum: float = field(default=0.0, init=False, compare=False, repr=False)
    #: The trip *objects* folded into ``_similarity_sum``, in list order, so
    #: direct ``trips`` mutations are detected (by identity, immune to
    #: ``id()`` reuse after garbage collection) and re-synced lazily.
    _synced_trips: List[Trajectory] = field(
        default_factory=list, init=False, compare=False, repr=False
    )
    #: Set on the first ``geometric_coherence`` read.  Until then joins stay
    #: plain appends (pure ingest pays nothing for a sum nobody reads);
    #: afterwards ``add_trip`` folds each join eagerly so reads are O(1).
    _sum_consumed: bool = field(default=False, init=False, compare=False, repr=False)

    @property
    def support(self) -> int:
        """Number of trips in the cluster."""
        return len(self.trips)

    @property
    def representative(self) -> Trajectory:
        """The trip whose duration is closest to the cluster median."""
        if not self.trips:
            raise TrajectoryError("route cluster has no trips")
        median = self.median_duration_s
        return min(self.trips, key=lambda trip: abs(trip.duration_s - median))

    @property
    def median_duration_s(self) -> float:
        """Median trip duration."""
        return statistics.median(trip.duration_s for trip in self.trips)

    @property
    def duration_stddev_s(self) -> float:
        """Standard deviation of trip duration (0 for fewer than 2 trips)."""
        if len(self.trips) < 2:
            return 0.0
        return statistics.pstdev(trip.duration_s for trip in self.trips)

    @property
    def median_length_m(self) -> float:
        """Median trip length."""
        return statistics.median(trip.length_m for trip in self.trips)

    @property
    def typical_departure_s(self) -> float:
        """Circular mean of departure second-of-day across the trips."""
        angles = [
            2.0 * math.pi * (trip.start.timestamp_s % SECONDS_PER_DAY) / SECONDS_PER_DAY
            for trip in self.trips
        ]
        sin_sum = sum(math.sin(angle) for angle in angles)
        cos_sum = sum(math.cos(angle) for angle in angles)
        if sin_sum == 0.0 and cos_sum == 0.0:
            return self.trips[0].start.timestamp_s % SECONDS_PER_DAY
        mean_angle = math.atan2(sin_sum, cos_sum) % (2.0 * math.pi)
        return mean_angle / (2.0 * math.pi) * SECONDS_PER_DAY

    @property
    def time_of_day_histogram(self) -> Dict[str, int]:
        """Trips per time-of-day bucket."""
        histogram: Dict[str, int] = {}
        for trip in self.trips:
            bucket = trip.start_time_of_day
            histogram[bucket] = histogram.get(bucket, 0) + 1
        return histogram

    def add_trip(self, trip: Trajectory) -> None:
        """Append a trip, keeping the running similarity sum maintained.

        Until the first :meth:`geometric_coherence` read this is a plain
        append — pure ingest never pays for a sum nobody consumes.  Once
        coherence is being read, each join folds the new trip eagerly: one
        cached signature lookup plus one flattened similarity per existing
        member (O(members)), so reads between joins stay O(1) — never the
        O(members²) recompute the seed performed per read.
        """
        if not self._sum_consumed:
            self.trips.append(trip)
            return
        self._sync_similarity()
        signature = route_signature(trip)
        total = self._similarity_sum
        for member in self.trips:
            total += route_similarity_signatures(route_signature(member), signature)
        self._similarity_sum = total
        self.trips.append(trip)
        self._synced_trips.append(trip)

    def _sync_similarity(self) -> None:
        """Fold trips appended directly to ``trips`` into the running sum.

        The synced prefix is identified by trip identity (comparing the
        retained trip objects themselves, not ``id()`` values that could be
        reused after garbage collection); any other mutation (removal,
        reorder, replacement) resets the sum and re-accumulates — still over
        cached signatures, so a full resync is O(pairs) flattened loops, not
        O(pairs) polyline resamples.
        """
        trips = self.trips
        synced = self._synced_trips
        prefix_intact = len(synced) <= len(trips) and all(
            synced_trip is trip for synced_trip, trip in zip(synced, trips)
        )
        if not prefix_intact:
            self._similarity_sum = 0.0
            self._synced_trips = synced = []
        for index in range(len(synced), len(trips)):
            signature = route_signature(trips[index])
            total = self._similarity_sum
            for member in trips[:index]:
                total += route_similarity_signatures(route_signature(member), signature)
            self._similarity_sum = total
            synced.append(trips[index])

    def copy(self) -> "RouteCluster":
        """A snapshot-grade copy that carries the running similarity state."""
        clone = RouteCluster(
            cluster_id=self.cluster_id,
            origin_stay_point=self.origin_stay_point,
            destination_stay_point=self.destination_stay_point,
            trips=list(self.trips),
        )
        clone._similarity_sum = self._similarity_sum
        clone._synced_trips = list(self._synced_trips)
        clone._sum_consumed = self._sum_consumed
        return clone

    def geometric_coherence(self) -> float:
        """Mean pairwise route similarity of the trips (1 trip → 1.0).

        Reads the maintained sum: no similarity work when every trip joined
        through :meth:`add_trip` since the last read (the read still pays an
        O(members) pointer-identity validation of the trip list); trips
        appended before the first read (or directly to ``trips``) are
        folded in lazily over the shared signature cache.  Per-pair scores
        are bit-identical to the reference :func:`route_similarity` loop
        the seed computed here, only the summation order differs.
        """
        self._sum_consumed = True
        if len(self.trips) < 2:
            return 1.0
        self._sync_similarity()
        pairs = len(self.trips) * (len(self.trips) - 1) // 2
        return self._similarity_sum / pairs


def cluster_trips(
    trips: Sequence[Trajectory],
    stay_points: Sequence[StayPoint],
    *,
    max_endpoint_distance_m: float = 500.0,
    min_support: int = 1,
) -> List[RouteCluster]:
    """Group trips by their (origin, destination) stay-point pair.

    Trips whose endpoints do not match any stay point are dropped (they are
    one-off journeys the proactive model cannot learn from yet).  Clusters
    are returned ordered by decreasing support.
    """
    if min_support < 1:
        raise TrajectoryError("min_support must be >= 1")
    groups: Dict[Tuple[int, int], List[Trajectory]] = {}
    trig = stay_point_trig(stay_points)
    for trip in trips:
        origin_sp = nearest_by_trig(
            trig, trip.origin, max_distance_m=max_endpoint_distance_m
        )
        destination_sp = nearest_by_trig(
            trig, trip.destination, max_distance_m=max_endpoint_distance_m
        )
        if origin_sp is None or destination_sp is None:
            continue
        if origin_sp.stay_point_id == destination_sp.stay_point_id:
            continue
        key = (origin_sp.stay_point_id, destination_sp.stay_point_id)
        groups.setdefault(key, []).append(trip)

    clusters: List[RouteCluster] = []
    for (origin_id, destination_id), members in groups.items():
        if len(members) < min_support:
            continue
        clusters.append(
            RouteCluster(
                cluster_id=len(clusters),
                origin_stay_point=origin_id,
                destination_stay_point=destination_id,
                trips=list(members),
            )
        )
    clusters.sort(key=lambda cluster: cluster.support, reverse=True)
    for rank, cluster in enumerate(clusters):
        cluster.cluster_id = rank
    return clusters


class RouteClusterIndex:
    """Secondary index mapping (origin, destination) stay-point pairs to clusters.

    Callers resolving a cluster per trip (streaming ingest, context
    building) used to linear-scan the cluster list per lookup; this keeps a
    dict keyed by the endpoint pair instead.  First registration wins for a
    duplicate pair, matching :func:`find_cluster`'s first-match scan.
    """

    __slots__ = ("_by_endpoints",)

    def __init__(self, clusters: Iterable[RouteCluster] = ()) -> None:
        self._by_endpoints: Dict[Tuple[int, int], RouteCluster] = {}
        for cluster in clusters:
            self.add(cluster)

    def add(self, cluster: RouteCluster) -> None:
        """Register a cluster under its endpoint pair (first add wins)."""
        key = (cluster.origin_stay_point, cluster.destination_stay_point)
        self._by_endpoints.setdefault(key, cluster)

    def find(
        self, origin_stay_point: int, destination_stay_point: int
    ) -> Optional[RouteCluster]:
        """The cluster for an endpoint pair, or None."""
        return self._by_endpoints.get((origin_stay_point, destination_stay_point))

    def __len__(self) -> int:
        return len(self._by_endpoints)


def find_cluster(
    clusters: Sequence[RouteCluster],
    origin_stay_point: int,
    destination_stay_point: int,
    *,
    index: Optional[RouteClusterIndex] = None,
) -> Optional[RouteCluster]:
    """Look up the cluster for an (origin, destination) stay-point pair.

    With an ``index`` (a :class:`RouteClusterIndex` built over the same
    clusters) the lookup is O(1); without one it falls back to the linear
    reference scan.
    """
    if index is not None:
        return index.find(origin_stay_point, destination_stay_point)
    for cluster in clusters:
        if (
            cluster.origin_stay_point == origin_stay_point
            and cluster.destination_stay_point == destination_stay_point
        ):
            return cluster
    return None
