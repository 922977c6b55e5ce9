"""Geographic relevance of audio items.

Figure 2 of the paper shows an item ("B") recommended because it "is also
relevant to location L_B the user will reach".  The paper's future work
section plans to "estimate the geographic relevance of audio items available
in the archives"; this module implements that estimation for the
reproduction: clips may carry a geographic footprint (a centre point and a
radius) and their relevance to a *point*, a *route*, or a *predicted
destination* decays smoothly with distance.

Two evaluation paths are provided:

* the reference path (:func:`geographic_relevance` and friends), which
  scores one clip at a time and is kept as the readable specification;
* a batched fast path (:class:`RouteSamples` + :class:`RouteRelevanceScorer`)
  that materializes the sampled route once per request, precomputes the
  radian/cosine terms of the haversine formula for every probe point, and
  optionally prunes far-away clips through a :class:`~repro.geo.GridIndex`
  over tag centres.  The fast path returns the same scores as the reference
  path (pruned clips score 0 instead of < 1e-12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.content.model import AudioClip
from repro.errors import ValidationError
from repro.geo import BoundingBox, GeoPoint, GridIndex, Polyline
from repro.geo.geodesy import EARTH_RADIUS_M, haversine_m

#: Default footprint parameters for clips that do not carry their own.
DEFAULT_RADIUS_M = 2000.0
DEFAULT_DECAY_M = 4000.0

#: exp(-28) < 1e-12: a clip whose footprint is more than ``radius_m +
#: 28 * decay_m`` from every probe point scores indistinguishably from zero,
#: so the spatial pre-pruning may drop it without observable effect.
_NEGLIGIBLE_DECAY_FACTOR = 28.0


@dataclass(frozen=True)
class GeoTag:
    """A geographic footprint: relevance 1 inside ``radius_m``, decaying outside."""

    location: GeoPoint
    radius_m: float = DEFAULT_RADIUS_M
    decay_m: float = DEFAULT_DECAY_M

    def __post_init__(self) -> None:
        if self.radius_m <= 0:
            raise ValidationError(f"radius_m must be > 0, got {self.radius_m}")
        if self.decay_m <= 0:
            raise ValidationError(f"decay_m must be > 0, got {self.decay_m}")

    def relevance_at_distance(self, distance_m: float) -> float:
        """Relevance for a listener ``distance_m`` away from the tag centre."""
        if distance_m <= self.radius_m:
            return 1.0
        return math.exp(-(distance_m - self.radius_m) / self.decay_m)

    def relevance_at(self, point: GeoPoint) -> float:
        """Relevance of the tagged content for a listener at ``point``."""
        return self.relevance_at_distance(haversine_m(self.location, point))

    @property
    def reach_m(self) -> float:
        """Distance beyond which the footprint's relevance is negligible."""
        return self.radius_m + self.decay_m * _NEGLIGIBLE_DECAY_FACTOR


def clip_geo_tag(clip: AudioClip) -> Optional[GeoTag]:
    """The clip's geographic footprint, if it is geo-tagged."""
    if clip.geo_location is None:
        return None
    radius = clip.geo_radius_m if clip.geo_radius_m is not None else DEFAULT_RADIUS_M
    decay = clip.geo_decay_m if clip.geo_decay_m is not None else DEFAULT_DECAY_M
    return GeoTag(clip.geo_location, radius, decay)


class RouteSamples:
    """Arc-length-indexed samples of a route with precomputed trigonometry.

    Materialized once per recommendation tick and shared by every candidate
    scored against the same route, so the route is interpolated and
    converted to radians a single time instead of once per clip.
    """

    __slots__ = ("arcs", "points", "lat_rad", "lon_rad", "cos_lat")

    def __init__(self, arcs: Sequence[float], points: Sequence[GeoPoint]) -> None:
        if len(arcs) != len(points) or not points:
            raise ValidationError("RouteSamples needs matching, non-empty arcs and points")
        self.arcs: List[float] = list(arcs)
        self.points: List[GeoPoint] = list(points)
        self.lat_rad: List[float] = [math.radians(p.lat) for p in self.points]
        self.lon_rad: List[float] = [math.radians(p.lon) for p in self.points]
        self.cos_lat: List[float] = [math.cos(lat) for lat in self.lat_rad]

    @classmethod
    def from_route(cls, route: Polyline, samples: int) -> "RouteSamples":
        """Sample ``route`` at ``samples`` evenly spaced arc-length positions."""
        count = max(2, samples)
        if len(route) == 1 or route.length_m <= 0.0:
            return cls([0.0], [route.start])
        arcs = [index / (count - 1) * route.length_m for index in range(count)]
        return cls(arcs, route.sample_points(count))

    def __len__(self) -> int:
        return len(self.points)

    def nearest(self, target: GeoPoint) -> Tuple[int, float]:
        """Index and distance of the sample closest to ``target``.

        Ties keep the earliest sample, matching a sequential scan with a
        strict ``<`` comparison.
        """
        lat_t = math.radians(target.lat)
        lon_t = math.radians(target.lon)
        cos_t = math.cos(lat_t)
        sin = math.sin
        best_index = 0
        best_h = math.inf
        for index, (lat_s, lon_s, cos_s) in enumerate(
            zip(self.lat_rad, self.lon_rad, self.cos_lat)
        ):
            # Haversine numerator; monotone in distance, so the min-h sample
            # is the min-distance sample and asin/sqrt run only once below.
            h = sin((lat_t - lat_s) / 2.0) ** 2 + cos_s * cos_t * sin((lon_t - lon_s) / 2.0) ** 2
            if h < best_h:
                best_h = h
                best_index = index
        distance = 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(min(1.0, best_h)))
        return best_index, distance


class RouteRelevanceScorer:
    """Batched geographic relevance against a fixed listener geometry.

    The probe set (current position, predicted destination, sampled route)
    is converted to radians once; each clip then needs only the flattened
    haversine inner loop — no per-comparison :class:`GeoPoint` allocation,
    no per-clip route resampling — and an optional grid index prunes clips
    whose footprint cannot reach any probe point.
    """

    def __init__(
        self,
        *,
        current_position: Optional[GeoPoint] = None,
        route: Optional[Polyline] = None,
        destination: Optional[GeoPoint] = None,
        route_samples: int = 25,
        samples: Optional[RouteSamples] = None,
    ) -> None:
        if samples is None and route is not None and len(route) > 0 and route.length_m > 0:
            samples = RouteSamples.from_route(route, route_samples)
        self._samples = samples
        probes: List[GeoPoint] = []
        if current_position is not None:
            probes.append(current_position)
        if destination is not None:
            probes.append(destination)
        if samples is not None:
            probes.extend(samples.points)
        self._probes = probes
        self._lat_rad = [math.radians(p.lat) for p in probes]
        self._lon_rad = [math.radians(p.lon) for p in probes]
        self._cos_lat = [math.cos(lat) for lat in self._lat_rad]
        self._bounds = BoundingBox.from_points(probes) if probes else None

    @property
    def route_samples(self) -> Optional[RouteSamples]:
        """The materialized route samples (None without a usable route)."""
        return self._samples

    @property
    def bounds(self) -> Optional[BoundingBox]:
        """Bounding box of all probe points (None without probes)."""
        return self._bounds

    def min_distance_m(self, location: GeoPoint) -> float:
        """Smallest great-circle distance from ``location`` to any probe."""
        if not self._probes:
            return math.inf
        lat_t = math.radians(location.lat)
        lon_t = math.radians(location.lon)
        cos_t = math.cos(lat_t)
        sin = math.sin
        best_h = math.inf
        for lat_p, lon_p, cos_p in zip(self._lat_rad, self._lon_rad, self._cos_lat):
            h = sin((lat_p - lat_t) / 2.0) ** 2 + cos_t * cos_p * sin((lon_p - lon_t) / 2.0) ** 2
            if h < best_h:
                best_h = h
        return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(min(1.0, best_h)))

    def tag_relevance(self, tag: GeoTag) -> float:
        """Best footprint relevance over all probe points (0 without probes)."""
        distance = self.min_distance_m(tag.location)
        if math.isinf(distance):
            return 0.0
        return tag.relevance_at_distance(distance)

    def score(self, clip: AudioClip) -> float:
        """Geographic relevance of one clip (0.5 for non-geo-tagged clips)."""
        tag = clip_geo_tag(clip)
        if tag is None:
            return 0.5
        return self.tag_relevance(tag)

    def score_many(
        self,
        clips: Sequence[AudioClip],
        *,
        geo_index: Optional[GridIndex[str]] = None,
    ) -> Dict[str, float]:
        """Scores for a batch of clips keyed by clip id.

        With a ``geo_index`` over tag centres, a clip whose indexed centre
        lies outside the probe bounding box grown by the batch's widest
        footprint reach is scored 0 without running the inner loop (its
        true score is below 1e-12).  Each clip's own indexed position is
        tested against the box, so the cost follows the batch, not the
        number of indexed clips the box covers.
        """
        tags = [clip_geo_tag(clip) for clip in clips]
        box: Optional[BoundingBox] = None
        if geo_index is not None and self._bounds is not None:
            reach = 0.0
            for tag in tags:
                if tag is not None:
                    reach = max(reach, tag.reach_m)
            box = self._expanded_bounds(reach)
        scores: Dict[str, float] = {}
        for clip, tag in zip(clips, tags):
            clip_id = clip.clip_id
            if tag is None:
                scores[clip_id] = 0.5
            elif (
                box is not None
                and clip_id in geo_index
                and not box.contains(geo_index.position_of(clip_id))
            ):
                scores[clip_id] = 0.0
            else:
                scores[clip_id] = self.tag_relevance(tag)
        return scores

    def _expanded_bounds(self, reach_m: float) -> Optional[BoundingBox]:
        """Probe bounding box grown by ``reach_m`` (None when unsafe to prune)."""
        box = self._bounds
        if box is None:
            return None
        dlat = math.degrees(reach_m / EARTH_RADIUS_M) * 1.05
        widest_lat = max(abs(box.min_lat - dlat), abs(box.max_lat + dlat))
        if widest_lat >= 89.0:
            return None  # too close to a pole for the planar lon expansion
        cos_lat = math.cos(math.radians(widest_lat))
        dlon = math.degrees(reach_m / (EARTH_RADIUS_M * cos_lat)) * 1.05
        return BoundingBox(
            max(-90.0, box.min_lat - dlat),
            max(-180.0, box.min_lon - dlon),
            min(90.0, box.max_lat + dlat),
            min(180.0, box.max_lon + dlon),
        )


def geographic_relevance(
    clip: AudioClip,
    *,
    current_position: Optional[GeoPoint] = None,
    route: Optional[Polyline] = None,
    destination: Optional[GeoPoint] = None,
    route_samples: int = 25,
    samples: Optional[RouteSamples] = None,
) -> float:
    """Geographic relevance of a clip for a listener's spatial context.

    The score is the maximum footprint relevance over the listener's current
    position, points sampled along the projected route, and the predicted
    destination.  Non-geo-tagged clips get a neutral score of 0.5 so that
    purely national content is neither boosted nor punished by location.

    ``samples`` lets callers scoring many clips against the same route pass
    the materialized sample points instead of re-interpolating per clip.
    """
    tag = clip_geo_tag(clip)
    if tag is None:
        return 0.5
    best = 0.0
    if current_position is not None:
        best = max(best, tag.relevance_at(current_position))
    if destination is not None:
        best = max(best, tag.relevance_at(destination))
    route_points: Sequence[GeoPoint] = ()
    if samples is not None:
        route_points = samples.points
    elif route is not None and len(route) > 0 and route.length_m > 0:
        route_points = route.sample_points(max(2, route_samples))
    for point in route_points:
        best = max(best, tag.relevance_at(point))
        if best >= 1.0:  # inside the footprint plateau: cannot improve
            break
    return best


def best_route_point(
    clip: AudioClip,
    route: Polyline,
    *,
    samples: int = 50,
    table: Optional[RouteSamples] = None,
) -> Optional[GeoPoint]:
    """The point along the route where the clip is most relevant.

    Used by the scheduler to time a geo-tagged clip so it plays as the
    listener approaches the relevant location (Figure 2's item B at L_B).
    Returns ``None`` for non-geo-tagged clips.  Passing a shared ``table``
    avoids re-sampling the route for every clip of a plan.
    """
    tag = clip_geo_tag(clip)
    if tag is None or route.length_m <= 0:
        return None
    # Footprint relevance is monotone in distance to the tag centre, so the
    # most relevant route point is simply the sampled point closest to it
    # (this also breaks ties inside the radius plateau sensibly).
    if table is None:
        table = RouteSamples.from_route(route, samples)
    index, _distance = table.nearest(tag.location)
    return table.points[index]


def distance_along_route_to_point(
    route: Polyline,
    target: GeoPoint,
    *,
    samples: int = 100,
    table: Optional[RouteSamples] = None,
) -> float:
    """Arc-length position along the route closest to ``target``.

    A sampled approximation that is accurate enough for scheduling decisions
    (errors of a few hundred meters translate to a few seconds of timing).
    """
    if route.length_m <= 0:
        return 0.0
    if table is None:
        table = RouteSamples.from_route(route, samples)
    index, _distance = table.nearest(target)
    return table.arcs[index]
