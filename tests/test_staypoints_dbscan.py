"""The sweep-line DBSCAN kernel and the flattened stay-point assignment must
label and assign exactly like plain per-pair ``haversine_m`` loops."""

import math
import random

import pytest

from repro.geo import GeoPoint
from repro.geo.geodesy import EARTH_RADIUS_M, destination_point, haversine_m
from repro.trajectory import clustering, staypoints
from repro.trajectory.clustering import cluster_trips
from repro.trajectory.model import Trajectory, TrajectoryPoint
from repro.trajectory.staypoints import (
    NOISE,
    StayPoint,
    dbscan,
    detect_stay_points,
    nearest_stay_point,
)


def reference_dbscan(points, *, eps_m, min_samples):
    """Textbook DBSCAN with a brute-force O(n²) region query."""
    n = len(points)
    labels = [None] * n

    def region_query(i):
        return [
            j for j in range(n) if haversine_m(points[i], points[j]) <= eps_m
        ]

    cluster_id = 0
    for i in range(n):
        if labels[i] is not None:
            continue
        neighbours = region_query(i)
        if len(neighbours) < min_samples:
            labels[i] = NOISE
            continue
        labels[i] = cluster_id
        seeds = [j for j in neighbours if j != i]
        position = 0
        while position < len(seeds):
            j = seeds[position]
            position += 1
            if labels[j] == NOISE:
                labels[j] = cluster_id
            if labels[j] is not None:
                continue
            labels[j] = cluster_id
            j_neighbours = region_query(j)
            if len(j_neighbours) >= min_samples:
                known = set(seeds)
                for k in j_neighbours:
                    if k not in known:
                        seeds.append(k)
                        known.add(k)
        cluster_id += 1
    return [label if label is not None else NOISE for label in labels]


def clustered_points(rng, *, clusters=4, per_cluster=15, noise=10, spread_m=120.0):
    base = GeoPoint(45.0, 7.6)
    points = []
    for cluster in range(clusters):
        center = destination_point(base, rng.uniform(0, 360), rng.uniform(2000.0, 20000.0))
        for _ in range(per_cluster):
            points.append(
                destination_point(center, rng.uniform(0, 360), rng.uniform(0.0, spread_m))
            )
    for _ in range(noise):
        points.append(destination_point(base, rng.uniform(0, 360), rng.uniform(0.0, 40000.0)))
    return rng.sample(points, len(points))  # shuffle the insertion order


class TestDbscanGridEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_labels_match_brute_force(self, seed):
        rng = random.Random(seed)
        points = clustered_points(
            rng,
            clusters=rng.randint(2, 5),
            per_cluster=rng.randint(4, 20),
            noise=rng.randint(0, 15),
            spread_m=rng.choice([60.0, 120.0, 200.0]),
        )
        eps_m = rng.choice([100.0, 150.0, 300.0])
        min_samples = rng.choice([2, 3, 5])
        assert dbscan(points, eps_m=eps_m, min_samples=min_samples) == reference_dbscan(
            points, eps_m=eps_m, min_samples=min_samples
        )

    def test_dense_overlapping_blobs_match(self):
        # Blobs closer than eps merge through border chains — the trickiest
        # case for expansion bookkeeping.
        rng = random.Random(99)
        base = GeoPoint(45.0, 7.6)
        points = []
        for step in range(6):
            center = destination_point(base, 90.0, step * 130.0)
            for _ in range(12):
                points.append(
                    destination_point(center, rng.uniform(0, 360), rng.uniform(0.0, 80.0))
                )
        labels = dbscan(points, eps_m=150.0, min_samples=3)
        assert labels == reference_dbscan(points, eps_m=150.0, min_samples=3)
        assert max(labels) == 0  # the chain merges into a single cluster

    def test_empty_and_all_noise(self):
        assert dbscan([], eps_m=100.0) == []
        rng = random.Random(5)
        base = GeoPoint(45.0, 7.6)
        lonely = [destination_point(base, rng.uniform(0, 360), 5000.0 * (i + 1)) for i in range(6)]
        assert dbscan(lonely, eps_m=100.0, min_samples=2) == [NOISE] * 6

    def test_detect_stay_points_still_ranks_by_support(self):
        rng = random.Random(17)
        base = GeoPoint(45.0, 7.6)
        big = [destination_point(base, rng.uniform(0, 360), rng.uniform(0, 60.0)) for _ in range(9)]
        small_center = destination_point(base, 45.0, 9000.0)
        small = [
            destination_point(small_center, rng.uniform(0, 360), rng.uniform(0, 60.0))
            for _ in range(4)
        ]
        stay_points = detect_stay_points(big + small, eps_m=150.0, min_samples=3)
        assert [sp.stay_point_id for sp in stay_points] == [0, 1]
        assert stay_points[0].support == 9
        assert stay_points[1].support == 4


# ---------------------------------------------------------------------------
# Kernel exactness at the edges
# ---------------------------------------------------------------------------


def assert_matches_reference(points, *, eps_m, min_samples):
    labels = dbscan(points, eps_m=eps_m, min_samples=min_samples)
    assert labels == reference_dbscan(points, eps_m=eps_m, min_samples=min_samples)
    return labels


def haversine_h(a, b):
    """``haversine_m``'s ``h`` term before its ``min(1.0, h)`` clamp."""
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    return (
        math.sin((lat2 - lat1) / 2.0) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2.0) ** 2
    )


def with_sin_rounding_high(monkeypatch):
    """Make ``math.sin`` round a few ulps high for the rest of the test.

    Real rounding lifts ``h`` at most one ulp past 1 on antipodal pairs,
    which ``sqrt`` maps back to 1.0.  A ``sin`` rounding high carries the
    overshoot into ``asin``, where only the ``min(1.0, h)`` clamp of
    ``haversine_m``'s expression keeps the distance defined.
    """
    exact_sin = math.sin
    monkeypatch.setattr(math, "sin", lambda x: exact_sin(x) * (1.0 + 2.0**-50))


def antipodal_pairs(rng, count):
    pairs = []
    for _ in range(count):
        lat = rng.uniform(-89.0, 89.0)
        lon = rng.uniform(-180.0, 0.0)
        pairs.append((GeoPoint(lat, lon), GeoPoint(-lat, lon + 180.0)))
    return pairs


#: Farther than any two points on the sphere: every pair is a neighbour.
BEYOND_ANTIPODE_M = math.pi * EARTH_RADIUS_M + 1.0


class TestDbscanKernelExactness:
    def test_pairs_at_eps_and_ulp_offsets(self, seeded_rng):
        rng = seeded_rng.fork("eps-offsets")
        for _ in range(100):
            eps_m = rng.choice([100.0, 150.0, 300.0])
            a = GeoPoint(rng.uniform(-70.0, 70.0), rng.uniform(-180.0, 180.0))
            bearing = rng.uniform(0.0, 360.0)
            for ulps in (-2, -1, 0, 1, 2):
                b = destination_point(a, bearing, eps_m * (1.0 + ulps * 2.0**-52))
                assert_matches_reference([a, b], eps_m=eps_m, min_samples=2)

    def test_pairs_exactly_at_their_computed_distance(self, seeded_rng):
        # eps is the pair's own computed distance, so the pair is in (<=).
        # On a meridian the latitude band is the only filter, and rounding
        # puts some pairs' latitude gap just past eps / R: the band's margin
        # is what keeps them.
        rng = seeded_rng.fork("eps-equal")
        beyond_bare_band = 0
        for _ in range(400):
            a = GeoPoint(rng.uniform(-85.0, 85.0), rng.uniform(-180.0, 180.0))
            bearing = rng.choice([0.0, 180.0, rng.uniform(0.0, 360.0)])
            b = destination_point(a, bearing, rng.uniform(1.0, 3000.0))
            eps_m = haversine_m(a, b)
            assert assert_matches_reference([a, b], eps_m=eps_m, min_samples=2) == [0, 0]
            if abs(math.radians(b.lat) - math.radians(a.lat)) > eps_m / EARTH_RADIUS_M:
                beyond_bare_band += 1
        assert beyond_bare_band > 0

    def test_pairs_at_and_just_past_a_tiny_eps(self, seeded_rng):
        # At millimetre scale sin(x) == x in floating point, so the accept
        # test's bound is as tight as the distance itself: only its
        # narrowing keeps a pair just past eps out of it.
        rng = seeded_rng.fork("tiny-eps")
        beyond = 0
        for _ in range(400):
            a = GeoPoint(rng.uniform(-85.0, 85.0), rng.uniform(-180.0, 180.0))
            b = destination_point(a, rng.uniform(0.0, 360.0), rng.uniform(1e-4, 1e-2))
            distance = haversine_m(a, b)
            if distance == 0.0:
                continue
            assert assert_matches_reference([a, b], eps_m=distance, min_samples=2) == [0, 0]
            just_short = math.nextafter(distance, 0.0)
            labels = assert_matches_reference([a, b], eps_m=just_short, min_samples=2)
            beyond += labels == [NOISE, NOISE]
        assert beyond > 0

    def test_one_latitude_band_far_apart_in_longitude(self, seeded_rng):
        # Every pair passes the latitude filter; longitude alone decides.
        rng = seeded_rng.fork("band")
        lat = rng.uniform(-60.0, 60.0)
        points = [
            GeoPoint(lat + rng.uniform(-1e-4, 1e-4), rng.uniform(-180.0, 180.0))
            for _ in range(60)
        ]
        for _ in range(5):
            lon = rng.uniform(-179.0, 179.0)
            points.extend(
                GeoPoint(lat + rng.uniform(-1e-4, 1e-4), lon + rng.uniform(0.0, 0.01))
                for _ in range(rng.randint(2, 8))
            )
        points = rng.shuffle(points)
        for eps_m, min_samples in ((150.0, 2), (300.0, 3), (1000.0, 2)):
            labels = assert_matches_reference(points, eps_m=eps_m, min_samples=min_samples)
        assert max(labels) >= 1

    def test_high_latitudes_and_the_poles(self, seeded_rng):
        rng = seeded_rng.fork("polar")
        points = []
        for sign in (1.0, -1.0):
            # Every longitude names the same pole.
            points.extend(GeoPoint(sign * 90.0, rng.uniform(-180.0, 180.0)) for _ in range(3))
            points.extend(
                GeoPoint(sign * rng.uniform(80.0, 90.0), rng.uniform(-180.0, 180.0))
                for _ in range(40)
            )
            for _ in range(15):
                a = GeoPoint(sign * rng.uniform(88.0, 89.99), rng.uniform(-180.0, 180.0))
                points.append(a)
                points.append(destination_point(a, rng.uniform(0.0, 360.0), rng.uniform(0.0, 400.0)))
        points = rng.shuffle(points)
        for eps_m, min_samples in ((150.0, 2), (300.0, 3), (50000.0, 2), (200000.0, 4)):
            assert_matches_reference(points, eps_m=eps_m, min_samples=min_samples)
        poles = [i for i, p in enumerate(points) if abs(p.lat) == 90.0]
        labels = dbscan(points, eps_m=1.0, min_samples=3)
        assert len({labels[i] for i in poles}) == 2 and NOISE not in {labels[i] for i in poles}

    def test_antimeridian_neighbours(self, seeded_rng):
        rng = seeded_rng.fork("antimeridian")
        points = [GeoPoint(10.0, 180.0), GeoPoint(10.0, -180.0)]
        for _ in range(12):
            a = GeoPoint(rng.uniform(-70.0, 70.0), 180.0 - rng.uniform(0.0, 5e-4))
            points.append(a)
            points.append(destination_point(a, rng.uniform(45.0, 135.0), rng.uniform(60.0, 140.0)))
        points = rng.shuffle(points)
        for eps_m, min_samples in ((150.0, 2), (300.0, 2), (150.0, 3)):
            assert_matches_reference(points, eps_m=eps_m, min_samples=min_samples)
        straddling = [
            (a, b)
            for a in points
            for b in points
            if a.lon > 0.0 > b.lon and haversine_m(a, b) <= 150.0
        ]
        assert straddling

    def test_duplicate_points(self, seeded_rng):
        rng = seeded_rng.fork("duplicates")
        base = GeoPoint(45.0, 7.6)
        points = []
        for _ in range(8):
            point = destination_point(base, rng.uniform(0.0, 360.0), rng.uniform(0.0, 2000.0))
            points.extend([point] * rng.randint(1, 4))
        points = rng.shuffle(points)
        for eps_m in (1e-6, 150.0, 600.0):
            for min_samples in (1, 2, 3, 4):
                assert_matches_reference(points, eps_m=eps_m, min_samples=min_samples)

    def test_tiny_inputs_and_min_samples_one(self, seeded_rng):
        rng = seeded_rng.fork("tiny")
        a = GeoPoint(rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0))
        b = destination_point(a, rng.uniform(0.0, 360.0), 100.0)
        assert assert_matches_reference([], eps_m=150.0, min_samples=1) == []
        assert assert_matches_reference([a], eps_m=150.0, min_samples=1) == [0]
        assert assert_matches_reference([a], eps_m=150.0, min_samples=2) == [NOISE]
        assert assert_matches_reference([a, b], eps_m=150.0, min_samples=2) == [0, 0]
        assert assert_matches_reference([a, b], eps_m=150.0, min_samples=3) == [NOISE, NOISE]
        assert assert_matches_reference([a, b], eps_m=50.0, min_samples=2) == [NOISE, NOISE]
        assert assert_matches_reference([a, b], eps_m=50.0, min_samples=1) == [0, 1]
        points = clustered_points(random.Random(rng.randint(0, 2**31)), noise=10)
        assert_matches_reference(points, eps_m=150.0, min_samples=1)

    def test_antipodal_pairs_and_the_clamp(self, seeded_rng, monkeypatch):
        pairs = antipodal_pairs(seeded_rng.fork("antipodal"), 100)
        points = [point for pair in pairs for point in pair]
        everyone = [0] * len(points)
        assert assert_matches_reference(points, eps_m=BEYOND_ANTIPODE_M, min_samples=2) == everyone
        with_sin_rounding_high(monkeypatch)
        assert any(math.sqrt(haversine_h(a, b)) > 1.0 for a, b in pairs)
        assert assert_matches_reference(points, eps_m=BEYOND_ANTIPODE_M, min_samples=2) == everyone

    def test_distance_expression_is_bit_symmetric(self, seeded_rng):
        # The kernel tests each unordered pair once; the reference evaluates
        # both orientations.
        rng = seeded_rng.fork("symmetry")
        for _ in range(3000):
            a = GeoPoint(rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0))
            if rng.bernoulli(0.5):
                b = destination_point(a, rng.uniform(0.0, 360.0), rng.uniform(0.0, 500.0))
            else:
                b = GeoPoint(rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0))
            assert haversine_m(a, b) == haversine_m(b, a)


# ---------------------------------------------------------------------------
# Stay-point assignment
# ---------------------------------------------------------------------------


def reference_nearest(stay_points, position, *, max_distance_m):
    """The plain ``haversine_m`` nearest loop (ties: the last one wins)."""
    best = None
    best_distance = max_distance_m
    for stay_point in stay_points:
        distance = haversine_m(stay_point.center, position)
        if distance <= best_distance:
            best_distance = distance
            best = stay_point
    return best


def reference_nearest_by_trig(rows, position, *, max_distance_m):
    return reference_nearest([row[0] for row in rows], position, max_distance_m=max_distance_m)


def stay_point(stay_point_id, center):
    return StayPoint(stay_point_id, center, support=1, total_dwell_s=1.0)


def trip_between(origin, destination, start_s):
    return Trajectory(
        "u", [TrajectoryPoint(start_s, origin), TrajectoryPoint(start_s + 600.0, destination)]
    )


def cluster_key(cluster):
    return (
        cluster.cluster_id,
        cluster.origin_stay_point,
        cluster.destination_stay_point,
        tuple((trip.start.timestamp_s, trip.end.timestamp_s, len(trip)) for trip in cluster.trips),
    )


class TestStayPointAssignment:
    def test_nearest_matches_haversine_loop(self, seeded_rng):
        rng = seeded_rng.fork("nearest")
        base = GeoPoint(rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0))
        for _ in range(60):
            stay_points = [
                stay_point(i, destination_point(base, rng.uniform(0.0, 360.0), rng.uniform(0.0, 3000.0)))
                for i in range(rng.randint(0, 8))
            ]
            for _ in range(20):
                position = destination_point(base, rng.uniform(0.0, 360.0), rng.uniform(0.0, 3500.0))
                max_distance_m = rng.choice([300.0, 500.0, 800.0])
                assert nearest_stay_point(
                    stay_points, position, max_distance_m=max_distance_m
                ) is reference_nearest(stay_points, position, max_distance_m=max_distance_m)

    def test_equal_distance_ties_go_to_the_last(self, seeded_rng):
        rng = seeded_rng.fork("ties")
        center = GeoPoint(rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0))
        twins = [stay_point(i, center) for i in range(3)]
        position = destination_point(center, rng.uniform(0.0, 360.0), 120.0)
        assert nearest_stay_point(twins, position) is twins[2]
        assert reference_nearest(twins, position, max_distance_m=500.0) is twins[2]
        # Mirror images across a meridian are exactly equally far.
        west, east = GeoPoint(0.0, -0.001), GeoPoint(0.0, 0.001)
        assert haversine_m(west, GeoPoint(0.0, 0.0)) == haversine_m(east, GeoPoint(0.0, 0.0))
        pair = [stay_point(0, west), stay_point(1, east)]
        assert nearest_stay_point(pair, GeoPoint(0.0, 0.0)) is pair[1]
        assert nearest_stay_point(pair[::-1], GeoPoint(0.0, 0.0)) is pair[0]

    def test_max_distance_boundary_is_inclusive(self, seeded_rng):
        rng = seeded_rng.fork("boundary")
        for _ in range(200):
            center = GeoPoint(rng.uniform(-80.0, 80.0), rng.uniform(-180.0, 180.0))
            only = [stay_point(0, center)]
            position = destination_point(center, rng.uniform(0.0, 360.0), rng.uniform(1.0, 900.0))
            distance = haversine_m(center, position)
            assert nearest_stay_point(only, position, max_distance_m=distance) is only[0]
            closer = math.nextafter(distance, 0.0)
            assert nearest_stay_point(only, position, max_distance_m=closer) is None

    def test_antipodal_positions_and_the_clamp(self, seeded_rng, monkeypatch):
        pairs = antipodal_pairs(seeded_rng.fork("antipodal"), 100)
        for round_high in (False, True):
            if round_high:
                with_sin_rounding_high(monkeypatch)
            for a, b in pairs:
                only = [stay_point(0, a)]
                assert nearest_stay_point(only, b, max_distance_m=BEYOND_ANTIPODE_M) is only[0]

    def test_cluster_trips_matches_haversine_assignment(self, seeded_rng, monkeypatch):
        rng = seeded_rng.fork("cluster-trips")
        base = GeoPoint(rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0))
        centers = [
            destination_point(base, rng.uniform(0.0, 360.0), rng.uniform(0.0, 4000.0))
            for _ in range(5)
        ]
        # A twin of stay point 0 puts an equal-distance tie on every
        # endpoint near it; the twin (listed last) must win them all.
        stay_points = [stay_point(i, center) for i, center in enumerate(centers)]
        stay_points.append(stay_point(5, centers[0]))
        trips = [
            trip_between(
                destination_point(rng.choice(centers), rng.uniform(0.0, 360.0), rng.uniform(0.0, 700.0)),
                destination_point(rng.choice(centers), rng.uniform(0.0, 360.0), rng.uniform(0.0, 700.0)),
                index * 3600.0,
            )
            for index in range(80)
        ]
        # A remote stay point whose one trip starts exactly at the
        # assignment radius: the boundary is inclusive.
        remote = destination_point(base, rng.uniform(0.0, 360.0), 50000.0)
        stay_points.append(stay_point(6, remote))
        boundary = destination_point(remote, rng.uniform(0.0, 360.0), 450.0)
        trips.append(trip_between(boundary, centers[2], 1e6))
        radius = haversine_m(remote, boundary)

        kernel = cluster_trips(trips, stay_points, max_endpoint_distance_m=radius)
        monkeypatch.setattr(clustering, "nearest_by_trig", reference_nearest_by_trig)
        reference = cluster_trips(trips, stay_points, max_endpoint_distance_m=radius)
        assert [cluster_key(c) for c in kernel] == [cluster_key(c) for c in reference]
        endpoints = {(c.origin_stay_point, c.destination_stay_point) for c in kernel}
        assert (6, 2) in endpoints
        assert any(5 in pair for pair in endpoints)
        assert not any(0 in pair for pair in endpoints)


def test_maintenance_models_equal_reference_mining(small_world, monkeypatch):
    """The model a maintenance visit installs (``model_snapshot`` with the
    open tail) is the one the reference DBSCAN and nearest loop mine."""
    engine = small_world.server.streaming
    user_ids = [commuter.user_id for commuter in small_world.commuters]

    def mine():
        models = {}
        for user_id in user_ids:
            snapshot = engine.model_snapshot(user_id, include_open_tail=True)
            models[user_id] = (
                list(snapshot.stay_points),
                [cluster_key(cluster) for cluster in snapshot.clusters],
            )
        return models

    kernel = mine()
    monkeypatch.setattr(staypoints, "dbscan", reference_dbscan)
    monkeypatch.setattr(clustering, "nearest_by_trig", reference_nearest_by_trig)
    assert mine() == kernel
    assert all(len(stay_points) >= 2 and clusters for stay_points, clusters in kernel.values())
