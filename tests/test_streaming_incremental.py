"""Incremental mobility model vs. the batch miner, and the server wiring."""

import random

import pytest

from repro.datasets import build_world
from repro.geo import GeoPoint
from repro.geo.geodesy import destination_point
from repro.pipeline import PphcrServer
from repro.pipeline.server import MIN_TRIPS_FOR_MODEL
from repro.spatialdb import GpsFix
from repro.streaming import (
    IncrementalConfig,
    IncrementalMobilityModel,
    StreamingMobilityEngine,
)
from repro.trajectory import Trajectory, cluster_trips, split_into_trips
from repro.trajectory.staypoints import stay_points_from_trips
from repro.users import UserProfile


def trip_key(trip):
    return [(p.timestamp_s, p.position.lat, p.position.lon, p.speed_mps) for p in trip.points]


def stay_point_key(stay_point):
    return (
        stay_point.stay_point_id,
        round(stay_point.center.lat, 12),
        round(stay_point.center.lon, 12),
        stay_point.support,
        stay_point.total_dwell_s,
    )


def cluster_key(cluster):
    return (
        cluster.cluster_id,
        cluster.origin_stay_point,
        cluster.destination_stay_point,
        [trip_key(trip) for trip in cluster.trips],
    )


def batch_oracle(server, user_id):
    """The batch miner over the user's stored fixes: ``(trips, stay points,
    clusters)`` mined with the server's streaming parameters."""
    fixes = server.users.tracking.fixes_for(user_id)
    trips = split_into_trips(Trajectory.from_fixes(user_id, fixes))
    eps_m = server.streaming.config.incremental.eps_m
    stay_points = stay_points_from_trips(trips, eps_m=eps_m) if trips else []
    clusters = cluster_trips(trips, stay_points) if stay_points else []
    return trips, stay_points, clusters


def commute_history(user_id, *, days=6, seed=0, anchors=2):
    """A multi-day, multi-anchor synthetic commute history (no road network).

    Each day the user drives between consecutive anchors with jittered
    departures, dwell noise at the endpoints, and overnight gaps — enough
    structure for stay points and recurring route clusters to form.
    """
    rng = random.Random(seed)
    base = GeoPoint(45.05, 7.65)
    points = [
        destination_point(base, rng.uniform(0.0, 360.0) if i else 0.0, 4000.0 * i)
        for i in range(anchors)
    ]
    fixes = []
    for day in range(days):
        day_start = day * 86400.0
        for leg in range(anchors):
            origin = points[leg % anchors]
            destination = points[(leg + 1) % anchors]
            departure = day_start + 7 * 3600.0 + leg * 5 * 3600.0 + rng.uniform(-600.0, 600.0)
            distance = origin.distance_m(destination)
            speed = rng.uniform(10.0, 14.0)
            steps = max(6, int(distance / (speed * 20.0)))
            bearing_jitter = rng.uniform(-3.0, 3.0)
            timestamp = departure
            for step in range(steps + 1):
                fraction = step / steps
                # March along the great-circle-ish segment with light noise.
                position = destination_point(
                    origin,
                    _bearing(origin, destination) + bearing_jitter,
                    distance * fraction,
                )
                position = destination_point(
                    position, rng.uniform(0.0, 360.0), abs(rng.gauss(0.0, 6.0))
                )
                fixes.append(GpsFix(user_id, timestamp, position, speed_mps=speed))
                timestamp += 20.0
    fixes.sort(key=lambda fix: fix.timestamp_s)
    return fixes


def _bearing(a, b):
    from repro.geo.geodesy import initial_bearing_deg

    return initial_bearing_deg(a, b)


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_repaired_stream_model_equals_batch_rebuild(self, seed):
        """Replaying a fix stream through sessionizer + incremental model
        yields the same trips, stay points and clusters as the batch miner
        over the full history."""
        server = PphcrServer()
        user_id = f"commuter-{seed}"
        server.register_user(UserProfile(user_id=user_id, display_name="C"))
        fixes = commute_history(user_id, days=5, seed=seed)

        # Stream the history through the server's ingestion path (the
        # engine listens on the user manager), then take the full snapshot.
        server.users.ingest_fixes(fixes)
        streamed = server.streaming.model_snapshot(user_id, include_open_tail=True)

        # The batch reference over the very same raw history.
        trips, stay_points, clusters = batch_oracle(server, user_id)

        assert streamed.trip_count == len(trips)
        assert [stay_point_key(sp) for sp in streamed.stay_points] == [
            stay_point_key(sp) for sp in stay_points
        ]
        assert [cluster_key(c) for c in streamed.clusters] == [
            cluster_key(c) for c in clusters
        ]

    def test_streamed_trips_equal_batch_trips(self):
        user_id = "commuter-t"
        fixes = commute_history(user_id, days=4, seed=7)
        engine = StreamingMobilityEngine()
        for fix in fixes:
            engine.observe_fix(fix)
        streamed = [
            trip_key(t)
            for t in engine.model._states[user_id].trips  # noqa: SLF001 - white-box
        ] + [trip_key(t) for t in engine.sessionizer.peek_tail_trips(user_id)]
        batch = [trip_key(t) for t in split_into_trips(Trajectory.from_fixes(user_id, fixes))]
        assert streamed == batch

    def test_incremental_model_without_repair_is_structurally_close(self):
        """Between repairs the online model matches the batch structure on a
        clean commute: same stay-point count, nearby centers, same cluster
        support multiset."""
        user_id = "commuter-s"
        fixes = commute_history(user_id, days=6, seed=3)
        engine = StreamingMobilityEngine()
        for fix in fixes:
            engine.observe_fix(fix)
        engine.close_user(user_id)
        online = engine.model.snapshot(user_id, auto_repair=False)

        server = PphcrServer()
        server.register_user(UserProfile(user_id=user_id, display_name="C"))
        server.users.ingest_fixes(fixes)
        _trips, stay_points, clusters = batch_oracle(server, user_id)

        assert len(online.stay_points) == len(stay_points)
        eps = engine.model.config.eps_m
        for stay_point in online.stay_points:
            assert any(
                stay_point.center.distance_m(ref.center) <= eps for ref in stay_points
            )
        assert sorted(c.support for c in online.clusters) == sorted(
            c.support for c in clusters
        )


class TestIncrementalMechanics:
    def _trip(self, user_id, origin, destination, start_s, *, points=8):
        from repro.trajectory.model import Trajectory, TrajectoryPoint

        distance = origin.distance_m(destination)
        bearing = _bearing(origin, destination)
        samples = [
            TrajectoryPoint(
                start_s + i * 30.0,
                destination_point(origin, bearing, distance * i / (points - 1)),
                10.0,
            )
            for i in range(points)
        ]
        return Trajectory(user_id, samples)

    def test_stay_points_spawn_from_density(self):
        model = IncrementalMobilityModel(IncrementalConfig(min_samples=2))
        home = GeoPoint(45.0, 7.6)
        work = destination_point(home, 90.0, 5000.0)
        first = model.add_trip(self._trip("u", home, work, 0.0))
        # One endpoint observation each: nothing is dense enough yet.
        assert first["spawned_stay_points"] == 0
        second = model.add_trip(self._trip("u", work, home, 40000.0))
        # The return leg lands near both prior endpoints: two stay points.
        assert second["spawned_stay_points"] == 2
        snapshot = model.snapshot("u", auto_repair=False)
        assert len(snapshot.stay_points) == 2
        assert model.spawned_stay_points == 2

    def test_trips_join_existing_clusters(self):
        model = IncrementalMobilityModel(IncrementalConfig(min_samples=2))
        home = GeoPoint(45.0, 7.6)
        work = destination_point(home, 90.0, 5000.0)
        model.add_trip(self._trip("u", home, work, 0.0))
        model.add_trip(self._trip("u", work, home, 40000.0))
        outcome = model.add_trip(self._trip("u", home, work, 90000.0))
        assert outcome["new_cluster"] == 0 or outcome["new_cluster"] == 1
        # Two more commutes: the forward cluster must accumulate support.
        model.add_trip(self._trip("u", home, work, 180000.0))
        snapshot = model.snapshot("u", auto_repair=False)
        assert snapshot.trip_count == 4
        assert any(cluster.support >= 2 for cluster in snapshot.clusters)

    def test_dirty_counter_and_epoch(self):
        model = IncrementalMobilityModel(IncrementalConfig(repair_every=3))
        home = GeoPoint(45.0, 7.6)
        work = destination_point(home, 90.0, 5000.0)
        model.add_trip(self._trip("u", home, work, 0.0))
        model.add_trip(self._trip("u", work, home, 40000.0))
        assert model.dirty_trips("u") == 2
        assert not model.needs_repair("u")
        model.add_trip(self._trip("u", home, work, 90000.0))
        assert model.needs_repair("u")
        # snapshot() notices the drift and repairs automatically.
        snapshot = model.snapshot("u")
        assert snapshot.dirty_trips == 0
        assert snapshot.epoch == 1
        assert model.epoch("u") == 1
        assert model.repairs == 1
        # A repair with no new trips afterwards leaves the model clean.
        assert not model.needs_repair("u")

    def test_engine_publishes_tracking_events(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.pipeline.messaging import MessageBus

        bus = MessageBus(MetricsRegistry())
        received = {
            topic: []
            for topic in (
                "tracking.trip_completed",
                "tracking.staypoint_spawned",
                "tracking.model_repaired",
            )
        }
        for topic, messages in received.items():
            bus.subscribe(topic, messages.append)
        engine = StreamingMobilityEngine(bus=bus)
        user_id = "commuter-e"
        for fix in commute_history(user_id, days=3, seed=11):
            engine.observe_fix(fix)
        engine.close_user(user_id)
        assert received["tracking.trip_completed"]
        assert received["tracking.staypoint_spawned"]
        engine.repair_user(user_id)
        repaired = received["tracking.model_repaired"]
        assert repaired and repaired[-1].body["user_id"] == user_id

    def test_trip_retention_stays_bounded(self):
        config = IncrementalConfig(max_trips_per_user=10, repair_every=4)
        model = IncrementalMobilityModel(config)
        home = GeoPoint(45.0, 7.6)
        work = destination_point(home, 90.0, 5000.0)
        for index in range(60):
            origin, destination = (home, work) if index % 2 == 0 else (work, home)
            model.add_trip(self._trip("u", origin, destination, index * 50000.0))
        # Pure ingest, nobody snapshotting: the inline backstop must trim.
        assert model.trip_count("u") <= config.max_trips_per_user + config.repair_every
        snapshot = model.snapshot("u")
        assert snapshot.trip_count <= config.max_trips_per_user + config.repair_every
        assert snapshot.stay_points  # the recurring anchors survive trimming

    def test_tail_only_user_gets_a_full_snapshot(self):
        """A continuous first drive (never closed) must still yield a model."""
        from repro.geo.geodesy import destination_point as dp

        engine = StreamingMobilityEngine()
        position = GeoPoint(45.0, 7.6)
        for index in range(30):
            engine.observe_fix(GpsFix("u", index * 20.0, position, speed_mps=12.0))
            position = dp(position, 90.0, 250.0)
        assert engine.model_snapshot("u") is None  # nothing finalized yet
        snapshot = engine.model_snapshot("u", include_open_tail=True)
        assert snapshot is not None and snapshot.trip_count == 1

    def test_snapshots_are_frozen_views(self):
        model = IncrementalMobilityModel(IncrementalConfig())
        home = GeoPoint(45.0, 7.6)
        work = destination_point(home, 90.0, 5000.0)
        for index in range(6):
            origin, destination = (home, work) if index % 2 == 0 else (work, home)
            model.add_trip(self._trip("u", origin, destination, index * 50000.0))
        snapshot = model.snapshot("u", auto_repair=False)
        supports = [cluster.support for cluster in snapshot.clusters]
        model.add_trip(self._trip("u", home, work, 99 * 50000.0))
        assert [cluster.support for cluster in snapshot.clusters] == supports

    def test_snapshot_for_unknown_user_is_none(self):
        engine = StreamingMobilityEngine()
        assert engine.model_snapshot("ghost") is None
        assert engine.model_snapshot("ghost", include_open_tail=True) is None
        assert engine.repair_user("ghost") is None


class TestServerStreamingIntegration:
    def test_mobility_model_served_from_stream_without_batch_rebuild(self):
        server = PphcrServer()
        rebuilt = []
        server.bus.subscribe("tracking.model_rebuilt", rebuilt.append)
        user_id = "commuter-live"
        server.register_user(UserProfile(user_id=user_id, display_name="C"))
        server.users.ingest_fixes(commute_history(user_id, days=5, seed=21))
        # No refresh_mobility_model call: the model is served from the stream.
        model = server.mobility_model(user_id)
        assert model.trip_count >= MIN_TRIPS_FOR_MODEL
        assert model.stay_points
        assert model.clusters
        assert rebuilt == []

    def test_refresh_equals_batch_oracle_for_every_small_world_commuter(
        self, small_world
    ):
        """The model a built world serves is the batch miner's, exactly.

        A private copy of the shared world: other tests ingest live fixes
        into ``small_world``, which would move the oracle past the model
        the world's bulk load cached.
        """
        world = build_world(small_world.config)
        server = world.server
        for commuter in world.commuters:
            model = server.mobility_model(commuter.user_id)
            trips, stay_points, clusters = batch_oracle(server, commuter.user_id)
            assert model.trip_count == len(trips)
            assert [stay_point_key(sp) for sp in model.stay_points] == [
                stay_point_key(sp) for sp in stay_points
            ]
            assert [cluster_key(c) for c in model.clusters] == [
                cluster_key(c) for c in clusters
            ]
