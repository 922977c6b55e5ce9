"""Tests for the uniform grid spatial index."""

import pytest

from repro.errors import GeometryError, NotFoundError
from repro.geo import BoundingBox, GeoPoint, GridIndex
from repro.geo.geodesy import destination_point, haversine_m

CENTER = GeoPoint(45.07, 7.68)


def ring(count: int, radius_m: float):
    """Points evenly spread on a circle around the centre."""
    return [destination_point(CENTER, i * (360.0 / count), radius_m) for i in range(count)]


class TestGridIndexBasics:
    def test_invalid_cell_size(self):
        with pytest.raises(GeometryError):
            GridIndex(cell_size_m=0)

    def test_insert_and_len(self):
        index = GridIndex()
        index.insert("a", CENTER)
        assert len(index) == 1
        assert "a" in index

    def test_insert_moves_existing(self):
        index = GridIndex()
        index.insert("a", CENTER)
        new_position = destination_point(CENTER, 0.0, 5000.0)
        index.insert("a", new_position)
        assert len(index) == 1
        assert index.position_of("a") == new_position

    def test_remove(self):
        index = GridIndex()
        index.insert("a", CENTER)
        index.remove("a")
        assert len(index) == 0
        with pytest.raises(NotFoundError):
            index.remove("a")

    def test_position_of_missing(self):
        with pytest.raises(NotFoundError):
            GridIndex().position_of("ghost")


class TestGridIndexQueries:
    def test_query_radius_finds_all_within(self):
        index = GridIndex(cell_size_m=500.0)
        for i, point in enumerate(ring(12, 800.0)):
            index.insert(f"near-{i}", point)
        for i, point in enumerate(ring(6, 5000.0)):
            index.insert(f"far-{i}", point)
        hits = index.query_radius(CENTER, 1000.0)
        names = {name for name, _d in hits}
        assert names == {f"near-{i}" for i in range(12)}

    def test_query_radius_sorted_by_distance(self):
        index = GridIndex()
        index.insert("close", destination_point(CENTER, 0.0, 100.0))
        index.insert("far", destination_point(CENTER, 0.0, 900.0))
        hits = index.query_radius(CENTER, 2000.0)
        assert [name for name, _d in hits] == ["close", "far"]

    def test_query_radius_negative_raises(self):
        with pytest.raises(GeometryError):
            GridIndex().query_radius(CENTER, -5.0)

    def test_query_bbox(self):
        index = GridIndex()
        inside = destination_point(CENTER, 45.0, 500.0)
        outside = destination_point(CENTER, 45.0, 50000.0)
        index.insert("inside", inside)
        index.insert("outside", outside)
        box = BoundingBox.around(CENTER, 1000.0)
        assert index.query_bbox(box) == ["inside"]

    def test_nearest(self):
        index = GridIndex()
        index.insert("a", destination_point(CENTER, 10.0, 300.0))
        index.insert("b", destination_point(CENTER, 10.0, 3000.0))
        nearest = index.nearest(CENTER)
        assert nearest is not None
        assert nearest[0] == "a"

    def test_nearest_empty(self):
        assert GridIndex().nearest(CENTER) is None

    def test_nearest_respects_max_radius(self):
        index = GridIndex()
        index.insert("far", destination_point(CENTER, 0.0, 40000.0))
        assert index.nearest(CENTER, max_radius_m=10000.0) is None

    def test_items_round_trip(self):
        index = GridIndex()
        index.insert("a", CENTER)
        items = dict(index.items())
        assert items == {"a": CENTER}

    def test_sparse_walk_returns_what_the_window_walk_returns(self):
        """A query whose window holds more cells than the index has occupied
        visits only the occupied ones; filler items far away push the same
        index back onto the cell-by-cell window walk, and every query must
        return the identical list, ties in the same order."""
        index = GridIndex(cell_size_m=500.0)
        for i, point in enumerate(ring(8, 700.0)):
            index.insert(f"ring-{i}", point)
        # Two items at one position, and two in different cells at exactly
        # equal distance (mirrored in longitude about the centre).
        index.insert("twin-a", destination_point(CENTER, 20.0, 300.0))
        index.insert("twin-b", destination_point(CENTER, 20.0, 300.0))
        index.insert("east", GeoPoint(CENTER.lat, CENTER.lon + 0.009))
        index.insert("west", GeoPoint(CENTER.lat, CENTER.lon - 0.009))
        queries = [
            (CENTER, 1500.0),
            (CENTER, 720.0),
            (destination_point(CENTER, 90.0, 400.0), 1000.0),
            (destination_point(CENTER, 200.0, 900.0), 450.0),
        ]

        def window_cells(center, radius_m):
            lat_cells, lon_cells = index._scan_extents(center, radius_m)
            return (2 * lat_cells + 1) * (2 * lon_cells + 1)

        assert all(window_cells(c, r) > len(index._cells) for c, r in queries)
        sparse = [index.query_radius(center, radius) for center, radius in queries]
        assert all(sparse)
        distances = dict(sparse[0])
        assert distances["twin-a"] == distances["twin-b"]
        assert distances["east"] == distances["west"]
        for i in range(300):
            index.insert(f"filler-{i}", GeoPoint(CENTER.lat + 1.0 + i * 0.006, CENTER.lon))
        assert all(window_cells(c, r) <= len(index._cells) for c, r in queries)
        assert [index.query_radius(center, radius) for center, radius in queries] == sparse


HIGH_LAT_CENTER = GeoPoint(68.4, 17.4)  # Narvik: lon degrees are ~2.7x shorter


class TestGridIndexHighLatitude:
    """Longitude cells shrink by cos(lat); queries must widen the lon scan."""

    def test_query_radius_finds_east_west_matches(self):
        index = GridIndex(cell_size_m=500.0)
        east = destination_point(HIGH_LAT_CENTER, 90.0, 3000.0)
        west = destination_point(HIGH_LAT_CENTER, 270.0, 3000.0)
        index.insert("east", east)
        index.insert("west", west)
        hits = index.query_radius(HIGH_LAT_CENTER, 3500.0)
        assert {name for name, _d in hits} == {"east", "west"}

    def test_query_radius_full_ring(self):
        index = GridIndex(cell_size_m=500.0)
        for i, point in enumerate(
            destination_point(HIGH_LAT_CENTER, bearing, 4000.0)
            for bearing in range(0, 360, 15)
        ):
            index.insert(f"ring-{i}", point)
        hits = index.query_radius(HIGH_LAT_CENTER, 4500.0)
        assert len(hits) == 24

    def test_query_bbox_east_west(self):
        index = GridIndex(cell_size_m=500.0)
        inside = destination_point(HIGH_LAT_CENTER, 90.0, 900.0)
        outside = destination_point(HIGH_LAT_CENTER, 90.0, 30000.0)
        index.insert("inside", inside)
        index.insert("outside", outside)
        box = BoundingBox.around(HIGH_LAT_CENTER, 1000.0)
        assert index.query_bbox(box) == ["inside"]

    @pytest.mark.parametrize("lat, radius_m", [(85.0, 100000.0), (88.0, 50000.0)])
    def test_finds_the_widest_longitude_of_the_disc(self, lat, radius_m):
        """The disc's farthest-east point lies poleward of its centre, at a
        longitude offset of asin(sin(rho) / cos(lat)), past r / cos(lat)."""
        center = GeoPoint(lat, 10.0)
        widest = max(
            (destination_point(center, tenth / 10.0, radius_m * 0.999) for tenth in range(1800)),
            key=lambda point: point.lon,
        )
        index = GridIndex(cell_size_m=1000.0)
        index.insert("widest", widest)
        assert [name for name, _d in index.query_radius(center, radius_m)] == ["widest"]
        nearest = index.nearest(center, max_radius_m=radius_m)
        assert nearest is not None and nearest[0] == "widest"

    def test_nearest_east_match(self):
        index = GridIndex(cell_size_m=500.0)
        index.insert("due-east", destination_point(HIGH_LAT_CENTER, 90.0, 9000.0))
        nearest = index.nearest(HIGH_LAT_CENTER)
        assert nearest is not None
        assert nearest[0] == "due-east"
        assert nearest[1] == pytest.approx(9000.0, rel=1e-3)


class TestGridIndexNearestExpansion:
    """The radius-doubling search scans each cell ring only once."""

    def test_nearest_picks_global_minimum_across_rings(self):
        index = GridIndex(cell_size_m=250.0)
        # One item just outside the first search radius, one much farther:
        # the second ring scan must keep the closer of the two.
        index.insert("near", destination_point(CENTER, 45.0, 1400.0))
        index.insert("far", destination_point(CENTER, 225.0, 1900.0))
        nearest = index.nearest(CENTER)
        assert nearest is not None
        assert nearest[0] == "near"

    def test_nearest_beyond_several_doublings(self):
        index = GridIndex(cell_size_m=1000.0)
        index.insert("lonely", destination_point(CENTER, 10.0, 30000.0))
        nearest = index.nearest(CENTER, max_radius_m=50000.0)
        assert nearest is not None
        assert nearest[0] == "lonely"
        assert nearest[1] == pytest.approx(30000.0, rel=1e-3)

    def test_nearest_exactly_at_max_radius_boundary(self):
        index = GridIndex(cell_size_m=1000.0)
        index.insert("edge", destination_point(CENTER, 0.0, 9900.0))
        nearest = index.nearest(CENTER, max_radius_m=10000.0)
        assert nearest is not None
        assert nearest[0] == "edge"

    def test_nearest_visits_each_cell_once(self, monkeypatch):
        import repro.geo.grid_index as grid_module

        index = GridIndex(cell_size_m=1000.0)
        index.insert("target", destination_point(CENTER, 0.0, 14500.0))

        calls = {"count": 0}
        real_haversine = grid_module.haversine_m

        def counting_haversine(a, b):
            calls["count"] += 1
            return real_haversine(a, b)

        monkeypatch.setattr(grid_module, "haversine_m", counting_haversine)
        nearest = index.nearest(CENTER, max_radius_m=50000.0)
        assert nearest is not None and nearest[0] == "target"
        # The single stored item sits in a single cell: visiting every ring
        # exactly once means exactly one distance evaluation.
        assert calls["count"] == 1


class TestGridIndexSeams:
    """Cells neither wrap at ±180° nor meet over the poles: a query whose
    cell window reaches either seam must still find every match."""

    def test_query_radius_across_the_antimeridian(self):
        index = GridIndex()
        index.insert("west", GeoPoint(10.0, -179.9999))
        hits = index.query_radius(GeoPoint(10.0, 179.9999), 100.0)
        assert [name for name, _d in hits] == ["west"]
        assert hits[0][1] == pytest.approx(21.9, abs=0.1)

    def test_nearest_over_the_pole(self):
        index = GridIndex()
        index.insert("across", GeoPoint(89.9, 0.0))
        nearest = index.nearest(GeoPoint(89.9, 180.0), max_radius_m=30000.0)
        assert nearest is not None and nearest[0] == "across"
        assert nearest[1] == pytest.approx(22239.0, rel=1e-3)

    def test_matches_brute_force_at_the_seams(self, seeded_rng):
        rng = seeded_rng.fork("grid-seams")
        for trial in range(90):
            if trial % 3 == 0:  # astride the antimeridian
                center = GeoPoint(
                    rng.uniform(-80.0, 80.0), rng.choice([-1.0, 1.0]) * rng.uniform(179.9, 180.0)
                )
            else:  # next to, or on, a pole
                center = GeoPoint(
                    rng.choice([-1.0, 1.0]) * rng.uniform(89.8, 90.0), rng.uniform(-180.0, 180.0)
                )
            index = GridIndex(cell_size_m=rng.choice([250.0, 1000.0]))
            positions = {}
            for number in range(12):
                position = destination_point(
                    center, rng.uniform(0.0, 360.0), rng.uniform(0.0, 8000.0)
                )
                positions[f"item-{number}"] = position
                index.insert(f"item-{number}", position)
            distances = {name: haversine_m(center, p) for name, p in positions.items()}
            radius = rng.uniform(100.0, 6000.0)
            hits = index.query_radius(center, radius)
            assert sorted(name for name, _d in hits) == sorted(
                name for name, distance in distances.items() if distance <= radius
            )
            within = [d for d in distances.values() if d <= radius]
            nearest = index.nearest(center, max_radius_m=radius)
            assert (nearest[1] if nearest else None) == (min(within) if within else None)
