"""Stay-point detection via density-based clustering (DBSCAN).

The paper computes "major staying points on the driving paths ... using a
density based location clustering", citing Ester et al.'s DBSCAN.  This
module implements DBSCAN from scratch over geographic points (distance in
meters via haversine) and uses it to turn a user's trip endpoints and dwell
locations into named stay points (home, work, ...) for the mobility model.

Both hot loops are flattened: DBSCAN's eps-neighbourhoods come from one
latitude sweep over per-point trig terms, and endpoint-to-stay-point
assignment evaluates the haversine expression inline over each stay
point's trig terms.  Every neighbour test and every distance gives the
verdict :func:`~repro.geo.geodesy.haversine_m`'s own expression gives, so
labels, stay points and assignments are those of the plain per-pair
``haversine_m`` loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import TrajectoryError
from repro.geo import GeoPoint
from repro.geo.geodesy import EARTH_RADIUS_M, centroid
from repro.trajectory.model import Trajectory

#: Cluster label assigned by DBSCAN to noise points.
NOISE = -1

#: Relative widening of the latitude sweep's band: great-circle distance
#: is at least ``R * |dlat|`` exactly, and the margin absorbs the rounding
#: of ``eps_m / R`` and of the computed distance.
_BAND_MARGIN = 1e-9

#: Relative narrowing of the sweep's accept test (see
#: :func:`_eps_neighbourhoods`): a pair it accepts is at least this much
#: closer than ``eps_m``, far beyond the rounding of the computed distance.
_INSIDE_MARGIN = 1e-6


def _eps_neighbourhoods(points: Sequence[GeoPoint], eps_m: float) -> List[List[int]]:
    """Every point's eps-neighbourhood (point indices, itself included).

    A sweep over the points in latitude order: once the next point's
    latitude is more than ``eps_m / R`` (widened by :data:`_BAND_MARGIN`)
    above the current one, no later point can be within ``eps_m``.  Each
    pair inside the band is decided once, by ``haversine_m``'s expression
    in its operand order; the expression is bit-symmetric, so both points
    get the neighbour a per-point ``haversine_m`` region query would give.

    Dense clusters make most band pairs neighbours, so a cheaper test
    accepts the clear ones first.  Since ``sin(x) <= x``, ``h`` is at most
    ``q / 4`` with ``q = dlat**2 + cos1 * cos2 * dlon**2``, so a pair with
    ``q <= (2 sin(eps_m / 2R))**2``, narrowed by :data:`_INSIDE_MARGIN`, is
    at least that margin closer than ``eps_m`` and the expression would
    accept it too.
    """
    sin = math.sin
    asin = math.asin
    sqrt = math.sqrt
    two_r = 2.0 * EARTH_RADIUS_M
    band = eps_m / EARTH_RADIUS_M * (1.0 + _BAND_MARGIN)
    half_angle = min(eps_m / two_r, math.pi / 2.0)
    inside = (2.0 * math.sin(half_angle) * (1.0 - _INSIDE_MARGIN)) ** 2
    neighbourhoods: List[List[int]] = []
    rows: List[Tuple[float, float, float, int, List[int]]] = []
    for index, point in enumerate(points):
        lat = math.radians(point.lat)
        neighbours = [index]
        neighbourhoods.append(neighbours)
        rows.append((lat, math.radians(point.lon), math.cos(lat), index, neighbours))
    rows.sort(key=lambda row: row[0])
    for position, (lat1, lon1, cos1, i, mine) in enumerate(rows):
        for lat2, lon2, cos2, j, theirs in rows[position + 1 :]:
            dlat = lat2 - lat1
            if dlat > band:
                break
            dlon = lon2 - lon1
            cos12 = cos1 * cos2
            if dlat * dlat + cos12 * dlon * dlon > inside:
                h = sin(dlat / 2.0) ** 2 + cos12 * sin(dlon / 2.0) ** 2
                if two_r * asin(sqrt(min(1.0, h))) > eps_m:
                    continue
            mine.append(j)
            theirs.append(i)
    return neighbourhoods


def dbscan(
    points: Sequence[GeoPoint],
    *,
    eps_m: float = 150.0,
    min_samples: int = 3,
) -> List[int]:
    """Run DBSCAN over geographic points.

    Returns a list of cluster labels aligned with ``points``: labels are
    ``0..k-1`` for the ``k`` discovered clusters and :data:`NOISE` (-1) for
    noise points.
    """
    if eps_m <= 0:
        raise TrajectoryError(f"eps_m must be > 0, got {eps_m}")
    if min_samples < 1:
        raise TrajectoryError(f"min_samples must be >= 1, got {min_samples}")
    n = len(points)
    labels = [None] * n  # type: List[Optional[int]]
    if n == 0:
        return []

    # Labels depend only on each point's neighbour set and on index order,
    # so every region query is answered from one sweep up front.
    neighbourhoods = _eps_neighbourhoods(points, eps_m)

    cluster_id = 0
    for i in range(n):
        if labels[i] is not None:
            continue
        neighbours = neighbourhoods[i]
        if len(neighbours) < min_samples:
            labels[i] = NOISE
            continue
        labels[i] = cluster_id
        seeds = [j for j in neighbours if j != i]
        # One membership set maintained across the whole expansion: the seed
        # implementation rebuilt set(seeds) for every core point, an O(n²)
        # inner scan on dense clusters.
        enqueued = set(seeds)
        enqueued.add(i)
        position = 0
        while position < len(seeds):
            j = seeds[position]
            position += 1
            if labels[j] == NOISE:
                labels[j] = cluster_id  # border point
            if labels[j] is not None:
                continue
            labels[j] = cluster_id
            j_neighbours = neighbourhoods[j]
            if len(j_neighbours) >= min_samples:
                for k in j_neighbours:
                    if k not in enqueued:
                        seeds.append(k)
                        enqueued.add(k)
        cluster_id += 1
    return [label if label is not None else NOISE for label in labels]


@dataclass(frozen=True)
class StayPoint:
    """A significant location extracted from a user's movement history."""

    stay_point_id: int
    center: GeoPoint
    support: int            # number of observations assigned to the cluster
    total_dwell_s: float    # accumulated dwell time across observations
    label: Optional[str] = None  # optional semantic label ("home", "work")

    def with_label(self, label: str) -> "StayPoint":
        """Return a copy carrying a semantic label."""
        return StayPoint(self.stay_point_id, self.center, self.support, self.total_dwell_s, label)


def detect_stay_points(
    observations: Sequence[GeoPoint],
    *,
    dwell_s: Optional[Sequence[float]] = None,
    eps_m: float = 150.0,
    min_samples: int = 3,
) -> List[StayPoint]:
    """Cluster dwell observations into stay points.

    ``observations`` are locations where the user dwelled (trip endpoints,
    long stops); ``dwell_s`` optionally gives the dwell duration of each
    observation (defaults to 1 second each, making ``total_dwell_s`` a count).
    Returns stay points ordered by decreasing support.
    """
    if dwell_s is not None and len(dwell_s) != len(observations):
        raise TrajectoryError("dwell_s must align with observations")
    labels = dbscan(observations, eps_m=eps_m, min_samples=min_samples)
    clusters: Dict[int, List[int]] = {}
    for index, label in enumerate(labels):
        if label == NOISE:
            continue
        clusters.setdefault(label, []).append(index)
    stay_points: List[StayPoint] = []
    for label, member_indices in clusters.items():
        members = [observations[i] for i in member_indices]
        dwell_total = (
            sum(dwell_s[i] for i in member_indices) if dwell_s is not None else float(len(members))
        )
        stay_points.append(
            StayPoint(
                stay_point_id=label,
                center=centroid(members),
                support=len(members),
                total_dwell_s=dwell_total,
            )
        )
    stay_points.sort(key=lambda sp: sp.support, reverse=True)
    # Re-number so ids reflect importance order.
    return [
        StayPoint(rank, sp.center, sp.support, sp.total_dwell_s, sp.label)
        for rank, sp in enumerate(stay_points)
    ]


def stay_points_from_trips(
    trips: Sequence[Trajectory],
    *,
    eps_m: float = 150.0,
    min_samples: int = 2,
) -> List[StayPoint]:
    """Derive stay points from trip endpoints (origins and destinations)."""
    observations: List[GeoPoint] = []
    for trip in trips:
        observations.append(trip.origin)
        observations.append(trip.destination)
    return detect_stay_points(observations, eps_m=eps_m, min_samples=min_samples)


#: One stay point with its center's trig terms: ``(stay point, radians(lat),
#: radians(lon), cos(lat))``.
StayPointTrig = Tuple[StayPoint, float, float, float]


def stay_point_trig(stay_points: Sequence[StayPoint]) -> List[StayPointTrig]:
    """Each stay point with its center's trig terms, for :func:`nearest_by_trig`.

    Callers assigning many positions to one stay-point list build this once.
    """
    rows: List[StayPointTrig] = []
    for stay_point in stay_points:
        lat = math.radians(stay_point.center.lat)
        rows.append((stay_point, lat, math.radians(stay_point.center.lon), math.cos(lat)))
    return rows


def nearest_by_trig(
    rows: Sequence[StayPointTrig], position: GeoPoint, *, max_distance_m: float
) -> Optional[StayPoint]:
    """:func:`nearest_stay_point` over precomputed :func:`stay_point_trig` rows.

    Evaluates ``haversine_m(center, position)``'s expression inline; ties
    keep the ``<=`` rule, so the last stay point at an equal distance wins.
    """
    sin = math.sin
    asin = math.asin
    sqrt = math.sqrt
    two_r = 2.0 * EARTH_RADIUS_M
    lat2 = math.radians(position.lat)
    lon2 = math.radians(position.lon)
    cos2 = math.cos(lat2)
    best: Optional[StayPoint] = None
    best_distance = max_distance_m
    for stay_point, lat1, lon1, cos1 in rows:
        h = sin((lat2 - lat1) / 2.0) ** 2 + cos1 * cos2 * sin((lon2 - lon1) / 2.0) ** 2
        distance = two_r * asin(sqrt(min(1.0, h)))
        if distance <= best_distance:
            best_distance = distance
            best = stay_point
    return best


def nearest_stay_point(
    stay_points: Sequence[StayPoint], position: GeoPoint, *, max_distance_m: float = 500.0
) -> Optional[StayPoint]:
    """The stay point closest to ``position`` within ``max_distance_m``."""
    return nearest_by_trig(
        stay_point_trig(stay_points), position, max_distance_m=max_distance_m
    )
