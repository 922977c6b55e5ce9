"""Uniform grid spatial index.

A simple but effective substitute for PostGIS' GiST index: points are hashed
into fixed-size latitude/longitude cells; radius and bounding-box queries
only visit the cells that can contain matches.  Cell size defaults to about
one kilometre, appropriate for city-scale listener tracking.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Generic, Iterable, List, Optional, Set, Tuple, TypeVar

from repro.errors import GeometryError, NotFoundError
from repro.geo.bbox import BoundingBox
from repro.geo.geodesy import EARTH_RADIUS_M, haversine_m
from repro.geo.point import GeoPoint

T = TypeVar("T")

#: Approximate meters per degree of latitude.
_METERS_PER_DEGREE_LAT = 111320.0


class GridIndex(Generic[T]):
    """Maps items with a geographic position into uniform grid cells."""

    def __init__(self, cell_size_m: float = 1000.0) -> None:
        if cell_size_m <= 0:
            raise GeometryError(f"cell_size_m must be > 0, got {cell_size_m}")
        self._cell_deg = cell_size_m / _METERS_PER_DEGREE_LAT
        self._cells: Dict[Tuple[int, int], Set[T]] = defaultdict(set)
        self._positions: Dict[T, GeoPoint] = {}

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, item: T) -> bool:
        return item in self._positions

    @property
    def cell_size_m(self) -> float:
        """The configured cell size (meters), recoverable for snapshots."""
        return self._cell_deg * _METERS_PER_DEGREE_LAT

    def _cell_of(self, point: GeoPoint) -> Tuple[int, int]:
        return (
            int(math.floor(point.lat / self._cell_deg)),
            int(math.floor(point.lon / self._cell_deg)),
        )

    def insert(self, item: T, position: GeoPoint) -> None:
        """Insert or move ``item`` to ``position``."""
        cell = self._cell_of(position)
        previous = self._positions.get(item)
        if previous is not None:
            # Moving items (latest-position tracking) overwhelmingly stay in
            # their current cell between updates; skip the bucket churn then.
            if self._cell_of(previous) == cell:
                self._positions[item] = position
                return
            self.remove(item)
        self._cells[cell].add(item)
        self._positions[item] = position

    def remove(self, item: T) -> None:
        """Remove ``item``; raises :class:`NotFoundError` if absent."""
        position = self._positions.pop(item, None)
        if position is None:
            raise NotFoundError(f"item {item!r} is not in the index")
        cell = self._cell_of(position)
        bucket = self._cells.get(cell)
        if bucket is not None:
            bucket.discard(item)
            if not bucket:
                del self._cells[cell]

    def position_of(self, item: T) -> GeoPoint:
        """Current position of ``item``."""
        position = self._positions.get(item)
        if position is None:
            raise NotFoundError(f"item {item!r} is not in the index")
        return position

    def clear(self) -> None:
        """Remove every item, in place.

        In place matters: long-lived callers (the context scorer's route
        pruning) capture the index object once, so clearing must never
        swap it for a fresh instance.
        """
        self._cells.clear()
        self._positions.clear()

    def items(self) -> Iterable[Tuple[T, GeoPoint]]:
        """Iterate over ``(item, position)`` pairs."""
        return list(self._positions.items())

    def _scan_extents(
        self, center: GeoPoint, radius_m: float
    ) -> Optional[Tuple[int, int]]:
        """How many cells either side of ``center`` a radius query must visit.

        The disc of angular radius rho = r / R around latitude phi spans
        rho of latitude and asin(sin(rho) / cos(phi)) of longitude either
        side, so longitude extents widen towards the poles.  Cells neither
        wrap at ±180° longitude nor meet over the poles, so a window that
        reaches a pole or the antimeridian returns ``None``: no cell walk
        can answer that query, and the caller scans every item instead.
        So does a centre where cos(lat) < 0.01 (within 0.58° of a pole),
        whose longitude window would be over 100 times its latitude one.
        """
        cos_phi = math.cos(math.radians(center.lat))
        if cos_phi < 0.01:
            return None
        cell_deg = self._cell_deg
        cell_lat, cell_lon = self._cell_of(center)
        rho = radius_m / EARTH_RADIUS_M
        lat_cells = int(math.ceil(math.degrees(rho) / cell_deg)) + 1
        if (cell_lat - lat_cells) * cell_deg <= -90.0 or (
            cell_lat + lat_cells + 1
        ) * cell_deg >= 90.0:
            return None
        # The window stops short of the pole, so rho < 90° - |phi| and the
        # ratio stays below 1.
        lon_deg = math.degrees(math.asin(math.sin(rho) / cos_phi))
        lon_cells = int(math.ceil(lon_deg / cell_deg)) + 1
        if (cell_lon - lon_cells) * cell_deg <= -180.0 or (
            cell_lon + lon_cells + 1
        ) * cell_deg >= 180.0:
            return None
        return lat_cells, lon_cells

    def _scan_all(self, center: GeoPoint, radius_m: float) -> List[Tuple[T, float]]:
        """Unsorted ``(item, distance)`` pairs within ``radius_m``, by full scan."""
        results: List[Tuple[T, float]] = []
        for item, position in self._positions.items():
            distance = haversine_m(center, position)
            if distance <= radius_m:
                results.append((item, distance))
        return results

    def _scan_radius(self, center: GeoPoint, radius_m: float) -> List[Tuple[T, float]]:
        """Unsorted ``(item, distance)`` pairs within ``radius_m`` of ``center``."""
        if radius_m < 0:
            raise GeometryError(f"radius_m must be >= 0, got {radius_m}")
        extents = self._scan_extents(center, radius_m)
        if extents is None:
            return self._scan_all(center, radius_m)
        lat_cells, lon_cells = extents
        center_cell = self._cell_of(center)
        results: List[Tuple[T, float]] = []
        for d_lat in range(-lat_cells, lat_cells + 1):
            for d_lon in range(-lon_cells, lon_cells + 1):
                cell = (center_cell[0] + d_lat, center_cell[1] + d_lon)
                for item in self._cells.get(cell, ()):
                    distance = haversine_m(center, self._positions[item])
                    if distance <= radius_m:
                        results.append((item, distance))
        return results

    def query_radius(self, center: GeoPoint, radius_m: float) -> List[Tuple[T, float]]:
        """All items within ``radius_m`` of ``center``, with distances, sorted."""
        results = self._scan_radius(center, radius_m)
        results.sort(key=lambda pair: pair[1])
        return results

    def query_bbox(self, box: BoundingBox) -> List[T]:
        """All items whose position falls inside ``box``."""
        min_cell = (
            int(math.floor(box.min_lat / self._cell_deg)),
            int(math.floor(box.min_lon / self._cell_deg)),
        )
        max_cell = (
            int(math.floor(box.max_lat / self._cell_deg)),
            int(math.floor(box.max_lon / self._cell_deg)),
        )
        results: List[T] = []
        for cell_lat in range(min_cell[0], max_cell[0] + 1):
            for cell_lon in range(min_cell[1], max_cell[1] + 1):
                for item in self._cells.get((cell_lat, cell_lon), ()):
                    if box.contains(self._positions[item]):
                        results.append(item)
        return results

    def nearest(self, center: GeoPoint, *, max_radius_m: float = 50000.0) -> Optional[Tuple[T, float]]:
        """The closest item to ``center`` within ``max_radius_m`` (or ``None``).

        The search expands the radius geometrically, so a nearby hit is found
        without scanning the whole index.
        """
        if max_radius_m < 0:
            raise GeometryError(f"max_radius_m must be >= 0, got {max_radius_m}")
        if not self._positions:
            return None
        center_cell = self._cell_of(center)
        best: Optional[Tuple[T, float]] = None
        radius = min(1000.0, max_radius_m)
        # Extents (inclusive) already visited; each doubling only scans the
        # new ring of cells instead of re-querying the whole disc.
        seen_lat, seen_lon = -1, -1
        while True:
            extents = self._scan_extents(center, radius)
            if extents is None:
                hits = self._scan_all(center, max_radius_m)
                return min(hits, key=lambda pair: pair[1], default=None)
            lat_cells, lon_cells = extents
            for d_lat in range(-lat_cells, lat_cells + 1):
                if abs(d_lat) <= seen_lat:
                    lon_range: Iterable[int] = list(range(-lon_cells, -seen_lon)) + list(
                        range(seen_lon + 1, lon_cells + 1)
                    )
                else:
                    lon_range = range(-lon_cells, lon_cells + 1)
                for d_lon in lon_range:
                    cell = (center_cell[0] + d_lat, center_cell[1] + d_lon)
                    for item in self._cells.get(cell, ()):
                        distance = haversine_m(center, self._positions[item])
                        if distance <= max_radius_m and (best is None or distance < best[1]):
                            best = (item, distance)
            seen_lat, seen_lon = lat_cells, lon_cells
            # Everything closer than ``radius`` has been visited, so a hit
            # inside it is guaranteed to be the global minimum.
            if best is not None and best[1] <= radius:
                return best
            if radius >= max_radius_m:
                return best
            radius = min(radius * 2.0, max_radius_m)
