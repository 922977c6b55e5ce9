"""Parity and property tests for the write path's checkpoint fast paths.

Asserted equal (``==``, no tolerance) on seeded random trips:

* ``Trajectory.length_m`` (summed once, then kept) against the reference
  pairwise haversine sum, and ``RouteCluster.median_length_m`` over trips
  joined through ``add_trip`` and appended to ``trips`` directly;
* the streaming state (each trip carried as cached JSON text) across a
  ``snapshot_state`` → ``restore_state`` → ``snapshot_state`` round trip,
  with the restored model folding further trips identically;
* a WAL checkpoint written from a warm trip-text cache against one written
  after every text is encoded fresh, byte for byte.

Plus the cache's size bound under retention trims and the rejection of
version-1 streaming payloads.
"""

from __future__ import annotations

import json
import statistics

import pytest

from repro.errors import ValidationError
from repro.geo import GeoPoint
from repro.geo.geodesy import destination_point, haversine_m, initial_bearing_deg
from repro.pipeline import PphcrServer
from repro.pipeline.server import ServerConfig
from repro.spatialdb import GpsFix
from repro.storage import DurabilityConfig
from repro.storage.wal import CHECKPOINT_NAME
from repro.streaming import (
    IncrementalConfig,
    IncrementalMobilityModel,
    ShardedStreamingEngine,
    StreamingMobilityEngine,
)
from repro.streaming.engine import STREAMING_STATE_VERSION
from repro.trajectory.clustering import RouteCluster
from repro.trajectory.model import Trajectory, TrajectoryPoint
from repro.users import UserProfile

USERS = ("u1", "u2", "u3")
HOME = GeoPoint(45.05, 7.65)


def reference_length_m(trip: Trajectory) -> float:
    """The pairwise haversine sum, in sample order."""
    points = trip.points
    total = 0.0
    for earlier, later in zip(points, points[1:]):
        total += haversine_m(earlier.position, later.position)
    return total


def random_trip(rng, user_id, origin, destination, start_s, *, points) -> Trajectory:
    """A jittered drive from ``origin`` to ``destination``, one sample per ~30 s."""
    distance = haversine_m(origin, destination)
    bearing = initial_bearing_deg(origin, destination)
    samples = []
    timestamp = start_s
    for index in range(points):
        along = distance * index / max(points - 1, 1)
        position = destination_point(origin, bearing, along)
        position = destination_point(position, rng.uniform(0.0, 360.0), abs(rng.gauss(0.0, 8.0)))
        samples.append(TrajectoryPoint(timestamp, position, rng.uniform(5.0, 15.0)))
        timestamp += rng.uniform(20.0, 40.0)
    return Trajectory(user_id, samples)


def commute_trips(rng, user_id, count):
    """Round trips between three anchors, hours apart, so stay points form."""
    anchors = [HOME] + [
        destination_point(HOME, rng.uniform(0.0, 360.0), rng.uniform(3000.0, 6000.0))
        for _ in range(2)
    ]
    trips = []
    start_s = 0.0
    for index in range(count):
        origin = anchors[index % len(anchors)]
        destination = anchors[(index + 1) % len(anchors)]
        trip = random_trip(rng, user_id, origin, destination, start_s, points=rng.randint(8, 16))
        trips.append(trip)
        start_s = trip.end.timestamp_s + rng.uniform(3 * 3600.0, 9 * 3600.0)
    return trips


def interleaved_trips(rng, count):
    per_user = {user_id: commute_trips(rng.fork(user_id), user_id, count) for user_id in USERS}
    return [per_user[user_id][index] for index in range(count) for user_id in USERS]


def point_rows(trip):
    return [[p.timestamp_s, p.position.lat, p.position.lon, p.speed_mps] for p in trip.points]


def model_key(snapshot):
    """A mobility snapshot by value (trips compare by their points)."""
    return (
        snapshot.trip_count,
        snapshot.epoch,
        snapshot.dirty_trips,
        snapshot.stay_points,
        [
            (c.cluster_id, c.origin_stay_point, c.destination_stay_point)
            + tuple(point_rows(t) for t in c.trips)
            for c in snapshot.clusters
        ],
    )


# Trip lengths ----------------------------------------------------------------


def test_length_m_equals_reference_haversine_sum(seeded_rng):
    rng = seeded_rng.fork("lengths")
    for index in range(60):
        origin = destination_point(HOME, rng.uniform(0.0, 360.0), rng.uniform(0.0, 5000.0))
        destination = destination_point(origin, rng.uniform(0.0, 360.0), rng.uniform(0.0, 8000.0))
        trip = random_trip(rng, "u", origin, destination, index * 1e4, points=rng.randint(1, 40))
        expected = reference_length_m(trip)
        assert trip.length_m == expected
        assert trip.length_m == expected  # the kept value, read again
        assert trip.mean_speed_mps == (expected / trip.duration_s if trip.duration_s > 0 else 0.0)


def test_median_length_follows_add_trip_and_direct_append(seeded_rng):
    rng = seeded_rng.fork("median")
    cluster = RouteCluster(cluster_id=0, origin_stay_point=0, destination_stay_point=1)
    for index, trip in enumerate(commute_trips(rng, "u", 24)):
        if index % 2:
            cluster.add_trip(trip)
        else:
            cluster.trips.append(trip)
        if index == 10:
            # From here add_trip folds eagerly into the coherence sum.
            cluster.geometric_coherence()
        assert cluster.median_length_m == statistics.median(
            reference_length_m(member) for member in cluster.trips
        )


# Streaming state ---------------------------------------------------------------


def test_streaming_state_round_trips_and_keeps_folding(seeded_rng):
    config = IncrementalConfig(repair_every=5, max_trips_per_user=12)
    trips = interleaved_trips(seeded_rng.fork("round-trip"), 20)
    live = IncrementalMobilityModel(config)
    for trip in trips[:30]:
        live.add_trip(trip)
    payload = live.snapshot_state()
    for user_id in USERS:
        retained = live._states[user_id].trips  # noqa: SLF001 - white-box
        texts = payload["users"][user_id]["trips"]
        assert [json.loads(text) for text in texts] == [point_rows(t) for t in retained]

    restored = IncrementalMobilityModel(config)
    restored.restore_state(json.loads(json.dumps(payload)))
    assert restored.snapshot_state() == payload
    for trip in trips[30:]:
        assert restored.add_trip(trip) == live.add_trip(trip)
        assert restored.snapshot_state() == live.snapshot_state()
    assert restored.repairs == live.repairs > 0  # retention trims ran on both
    for user_id in USERS:
        assert model_key(restored.snapshot(user_id)) == model_key(live.snapshot(user_id))
        assert restored.snapshot_state() == live.snapshot_state()


def test_trip_text_cache_is_trimmed_with_retained_trips(seeded_rng):
    model = IncrementalMobilityModel(IncrementalConfig(repair_every=3, max_trips_per_user=5))
    for index, trip in enumerate(interleaved_trips(seeded_rng.fork("bound"), 30)):
        model.add_trip(trip)
        model.snapshot_state()  # encodes every retained trip
        if index % 7 == 0:
            model.snapshot(trip.user_id)  # repairs (and trims) once drift is due
        for state in model._states.values():  # noqa: SLF001 - white-box
            retained = {id(kept) for kept in state.trips}
            assert len(state.trip_texts) <= len(state.trips)
            assert {id(cached) for cached in state.trip_texts} <= retained
    assert model.repairs > 0


def _durable_server(directory, rng):
    config = ServerConfig(durability=DurabilityConfig(enabled=True, directory=str(directory)))
    server = PphcrServer(config=config)
    for user_id in USERS:
        server.register_user(UserProfile(user_id=user_id, display_name=user_id))
    fixes = [
        GpsFix(trip.user_id, point.timestamp_s, point.position, speed_mps=point.speed_mps)
        for trip in interleaved_trips(rng, 12)
        for point in trip.points
    ]
    fixes.sort(key=lambda fix: fix.timestamp_s)
    server.users.ingest_fixes(fixes)
    return server


def _trip_text_states(server):
    return [
        state
        for engine in server.streaming.engines
        for state in engine.model._states.values()  # noqa: SLF001 - white-box
    ]


def test_checkpoint_from_warm_cache_equals_fresh_encoding(seeded_rng, tmp_path):
    server = _durable_server(tmp_path / "wal", seeded_rng.fork("checkpoint"))
    try:
        durability = server.durability
        checkpoint = durability.directory / CHECKPOINT_NAME
        durability.maybe_compact(server, force=True)
        states = _trip_text_states(server)
        retained = sum(len(state.trips) for state in states)
        assert retained > 0
        assert sum(len(state.trip_texts) for state in states) == retained
        warm = checkpoint.read_bytes()
        assert durability.maybe_compact(server, force=True) is not None
        assert checkpoint.read_bytes() == warm
        for state in states:
            state.trip_texts.clear()
        durability.maybe_compact(server, force=True)
        assert checkpoint.read_bytes() == warm
    finally:
        server.durability.close()


def test_version_one_streaming_payload_is_rejected(seeded_rng):
    assert STREAMING_STATE_VERSION == 2
    engine = StreamingMobilityEngine()
    for trip in commute_trips(seeded_rng.fork("v1"), "u1", 4):
        for point in trip.points:
            engine.observe_fix(GpsFix("u1", point.timestamp_s, point.position, point.speed_mps))
    stale = dict(engine.snapshot_state(), version=1)
    with pytest.raises(ValidationError):
        StreamingMobilityEngine().restore_state(stale)
    sharded = ShardedStreamingEngine(shards=2)
    with pytest.raises(ValidationError):
        sharded.restore_state(stale)
    with pytest.raises(ValidationError):
        sharded.restore_shard(sharded.shard_of("u1"), stale)
