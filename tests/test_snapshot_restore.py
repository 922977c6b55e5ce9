"""Snapshot → restore round trips: stores, streaming engine, whole server.

The restart-persistence contract: a warmed server snapshots to one
JSON-serializable payload, a freshly constructed server (same config)
restores it, and from then on the two are indistinguishable — identical
recommendations mid-commute, identical streaming mobility models, and
identical *future* behaviour as more fixes stream in.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.datasets import BroadcasterConfig, CommuterConfig, WorldConfig, build_world
from repro.errors import PipelineError, ValidationError
from repro.geo import GeoPoint
from repro.loadgen.invariants import state_fingerprint
from repro.pipeline.server import PphcrServer
from repro.roadnet import CityGeneratorConfig
from repro.spatialdb import GpsFix, TrackingStore
from repro.storage import DurabilityConfig
from repro.streaming.engine import StreamingMobilityEngine
from repro.users.profile import UserPreferenceProfile


@pytest.fixture(scope="module")
def warmed_world():
    """A compact world with history, feedback and live streaming state."""
    return build_world(
        WorldConfig(
            seed=2024,
            city=CityGeneratorConfig(
                grid_rows=8, grid_cols=8, block_size_m=600.0, poi_count=12, seed=5
            ),
            broadcaster=BroadcasterConfig(seed=6, clips_per_day=50),
            commuters=CommuterConfig(seed=7, commuters=6, history_days=6),
            classifier_documents_per_category=6,
            feedback_events_per_user=16,
        )
    )


@pytest.fixture
def durable_server():
    """Builds durable servers; their WAL handles are closed at teardown."""
    opened = []

    def build(city, config):
        server = PphcrServer(city=city, config=config)
        opened.append(server)
        return server

    yield build
    for server in opened:
        server.durability.close()


def restored_copy(world):
    """A fresh server (same config) loaded from the world's snapshot."""
    payload = json.loads(json.dumps(world.server.snapshot()))
    fresh = PphcrServer(city=world.city, config=world.server.config)
    fresh.restore_snapshot(payload)
    return fresh


def model_fingerprint(engine: StreamingMobilityEngine, user_id: str):
    snapshot = engine.model_snapshot(user_id, include_open_tail=True)
    if snapshot is None:
        return None
    return {
        "trips": snapshot.trip_count,
        "epoch": snapshot.epoch,
        "dirty": snapshot.dirty_trips,
        "stay_points": [
            (sp.stay_point_id, sp.center.lat, sp.center.lon, sp.support, sp.total_dwell_s)
            for sp in snapshot.stay_points
        ],
        "clusters": [
            (
                cluster.cluster_id,
                cluster.origin_stay_point,
                cluster.destination_stay_point,
                len(cluster.trips),
                cluster.geometric_coherence(),
            )
            for cluster in snapshot.clusters
        ],
    }


class TestServerRoundTrip:
    def test_payload_is_json_serializable(self, warmed_world):
        json.dumps(warmed_world.server.snapshot())

    def test_identical_recommendations_mid_commute(self, warmed_world):
        world = warmed_world
        fresh = restored_copy(world)
        commuter = world.commuters[0]
        drive = world.commuter_generator.live_drive(commuter, day=world.today)
        observe_until = drive.departure_s + 300.0
        fixes = drive.fixes(until_s=observe_until)
        for server in (world.server, fresh):
            server.users.ingest_fixes(list(fixes), skip_stale=True)
        decisions = [
            server.recommend(commuter.user_id, now_s=observe_until, drive_elapsed_s=300.0)
            for server in (world.server, fresh)
        ]
        original, restored = decisions
        assert original.should_recommend == restored.should_recommend
        assert original.reason == restored.reason
        assert original.recommended_clip_ids == restored.recommended_clip_ids
        if original.plan is not None:
            assert restored.plan is not None
            assert [item.start_s for item in original.plan.items] == [
                item.start_s for item in restored.plan.items
            ]

    def test_streaming_models_identical(self, warmed_world):
        world = warmed_world
        fresh = restored_copy(world)
        compared = 0
        for commuter in world.commuters:
            original = model_fingerprint(world.server.streaming, commuter.user_id)
            restored = model_fingerprint(fresh.streaming, commuter.user_id)
            assert original == restored
            compared += original is not None
        assert compared > 0  # the world must actually have live models

    def test_future_ingest_evolves_identically(self, warmed_world):
        world = warmed_world
        fresh = restored_copy(world)
        commuter = world.commuters[1]
        drive = world.commuter_generator.live_drive(commuter, day=world.today)
        fixes = list(drive.fixes())
        emitted_a = world.server.streaming.observe_fixes(list(fixes))
        emitted_b = fresh.streaming.observe_fixes(list(fixes))
        assert [trip.points for trip in emitted_a] == [trip.points for trip in emitted_b]
        assert model_fingerprint(world.server.streaming, commuter.user_id) == model_fingerprint(
            fresh.streaming, commuter.user_id
        )

    def test_user_state_round_trips(self, warmed_world):
        world = warmed_world
        fresh = restored_copy(world)
        users = world.server.users
        for user_id in users.user_ids():
            assert fresh.users.profile(user_id) == users.profile(user_id)
            assert (
                fresh.users.preference_profile(user_id).as_vector()
                == users.preference_profile(user_id).as_vector()
            )
            assert [event.event_id for event in fresh.users.feedback.events_for_user(user_id)] == [
                event.event_id for event in users.feedback.events_for_user(user_id)
            ]
        assert fresh.content.clip_count() == world.server.content.clip_count()
        assert [c.clip_id for c in fresh.content.clips_newest_first()] == [
            c.clip_id for c in world.server.content.clips_newest_first()
        ]

    def test_tracking_counters_survive(self, warmed_world):
        world = warmed_world
        fresh = restored_copy(world)
        tracking = world.server.users.tracking
        for user_id in tracking.user_ids():
            assert fresh.users.tracking.fixes_added(user_id) == tracking.fixes_added(user_id)
            assert fresh.users.tracking.fix_count(user_id) == tracking.fix_count(user_id)

    def test_bad_payload_rejected(self, warmed_world):
        fresh = PphcrServer(config=warmed_world.server.config)
        with pytest.raises(PipelineError):
            fresh.restore_snapshot({"version": 99})

    def test_payload_without_streaming_state_rejected_up_front(self, warmed_world):
        """No streaming dict, no restore: the check runs before anything is
        loaded, so the target's state fingerprint does not move."""
        world = warmed_world
        target = restored_copy(world)
        commuter = world.commuters[3]
        drive = world.commuter_generator.live_drive(commuter, day=world.today)
        fixes = list(drive.fixes())
        # Diverge from the payload, so a partial restore would show.
        target.users.ingest_fixes(fixes, skip_stale=True)
        user_ids = sorted(target.users.user_ids())
        now_s = fixes[-1].timestamp_s
        before = state_fingerprint(target, user_ids=user_ids, now_s=now_s)
        with pytest.raises(PipelineError):
            target.restore_snapshot({**world.server.snapshot(), "streaming": None})
        shard = target.users.shard_of(commuter.user_id)
        with pytest.raises(PipelineError):
            target.restore_shard(
                shard, {**world.server.snapshot_shard(shard), "streaming": None}
            )
        assert state_fingerprint(target, user_ids=user_ids, now_s=now_s) == before

    def test_crash_mid_drive_restore_and_tail_replay_matches_uninterrupted(
        self, warmed_world
    ):
        """Kill the server mid-drive, restore the last snapshot, re-ingest
        the tail — the survivor must equal an uninterrupted run.

        The recovery story the snapshots exist for: a commuter is driving,
        the server dies partway through the drive, a fresh process restores
        the last durable snapshot, and the device re-uploads everything
        after the snapshot point (its upload buffer).  Recommendations,
        streaming models and tracking counters must be indistinguishable
        from a server that never crashed.
        """
        world = warmed_world
        # Two fresh servers off the same snapshot: the module-scoped world
        # stays unmutated for the other tests.
        reference = restored_copy(world)
        crashed = restored_copy(world)
        commuter = world.commuters[2]
        drive = world.commuter_generator.live_drive(commuter, day=world.today)
        fixes = list(drive.fixes())
        assert len(fixes) >= 10
        snapshot_point = int(len(fixes) * 0.4)  # last durable snapshot
        crash_point = int(len(fixes) * 0.6)  # the server dies here

        # The uninterrupted run sees the whole drive.
        reference.users.ingest_fixes(list(fixes), skip_stale=True)

        # The doomed server ingests up to the crash, having snapshotted at
        # the snapshot point on its way.
        crashed.users.ingest_fixes(list(fixes[:snapshot_point]), skip_stale=True)
        durable = json.loads(json.dumps(crashed.snapshot()))
        crashed.users.ingest_fixes(
            list(fixes[snapshot_point:crash_point]), skip_stale=True
        )
        del crashed  # the crash: everything after the snapshot is gone

        survivor = PphcrServer(city=world.city, config=world.server.config)
        survivor.restore_snapshot(durable)
        # The device re-uploads its buffer: everything after the snapshot.
        survivor.users.ingest_fixes(list(fixes[snapshot_point:]), skip_stale=True)

        user_id = commuter.user_id
        now_s = fixes[-1].timestamp_s
        ref_decision = survivor_decision = None
        for server in (reference, survivor):
            decision = server.recommend(user_id, now_s=now_s, drive_elapsed_s=600.0)
            if ref_decision is None:
                ref_decision = decision
            else:
                survivor_decision = decision
        assert survivor_decision.should_recommend == ref_decision.should_recommend
        assert survivor_decision.reason == ref_decision.reason
        assert (
            survivor_decision.recommended_clip_ids == ref_decision.recommended_clip_ids
        )
        assert model_fingerprint(survivor.streaming, user_id) == model_fingerprint(
            reference.streaming, user_id
        )
        assert survivor.model_freshness(user_id) == reference.model_freshness(user_id)
        assert survivor.users.tracking.fix_count(user_id) == reference.users.tracking.fix_count(
            user_id
        )
        assert [f.timestamp_s for f in survivor.users.tracking.fixes_for(user_id)] == [
            f.timestamp_s for f in reference.users.tracking.fixes_for(user_id)
        ]

    def test_crash_mid_drive_wal_tail_replay_needs_no_client_reupload(
        self, warmed_world, tmp_path, durable_server
    ):
        """With the WAL on, recovery is snapshot + log tail: the window
        between the last snapshot and the crash comes back from the log,
        so the device only re-uploads what it sent *after* the crash.

        Same crash story as the test above, stronger contract: no client
        re-ingest of the logged window, yet the survivor still equals an
        uninterrupted twin — recommendations, streaming models, model
        freshness and future ingest included.
        """
        world = warmed_world
        durable_config = replace(
            world.server.config,
            durability=DurabilityConfig(enabled=True, directory=str(tmp_path / "wal")),
        )
        reference = restored_copy(world)
        doomed = durable_server(world.city, durable_config)
        doomed.restore_snapshot(json.loads(json.dumps(world.server.snapshot())))
        commuter = world.commuters[3]
        drive = world.commuter_generator.live_drive(commuter, day=world.today)
        fixes = list(drive.fixes())
        assert len(fixes) >= 10
        snapshot_point = int(len(fixes) * 0.4)  # last durable snapshot
        crash_point = int(len(fixes) * 0.6)  # the server dies here

        # The uninterrupted run sees the whole drive.
        reference.users.ingest_fixes(list(fixes), skip_stale=True)

        # The doomed server snapshots mid-drive, keeps ingesting (every
        # accepted fix lands in the WAL), then dies.
        doomed.users.ingest_fixes(list(fixes[:snapshot_point]), skip_stale=True)
        durable = json.loads(json.dumps(doomed.snapshot()))
        assert "wal_lsn" in durable
        doomed.users.ingest_fixes(
            list(fixes[snapshot_point:crash_point]), skip_stale=True
        )
        del doomed  # the crash: in-memory state gone, the log survives

        survivor = durable_server(world.city, durable_config)
        survivor.restore_snapshot(durable, replay_log=True)
        # The logged window is already back — NO re-upload of
        # fixes[snapshot_point:crash_point].  The device only resends
        # what it produced after the crash.
        assert survivor.users.tracking.fix_count(commuter.user_id) == (
            world.server.users.tracking.fix_count(commuter.user_id) + crash_point
        )
        survivor.users.ingest_fixes(list(fixes[crash_point:]), skip_stale=True)

        user_id = commuter.user_id
        now_s = fixes[-1].timestamp_s
        ref_decision = reference.recommend(user_id, now_s=now_s, drive_elapsed_s=600.0)
        survivor_decision = survivor.recommend(
            user_id, now_s=now_s, drive_elapsed_s=600.0
        )
        assert survivor_decision.should_recommend == ref_decision.should_recommend
        assert survivor_decision.reason == ref_decision.reason
        assert (
            survivor_decision.recommended_clip_ids == ref_decision.recommended_clip_ids
        )
        assert model_fingerprint(survivor.streaming, user_id) == model_fingerprint(
            reference.streaming, user_id
        )
        assert survivor.model_freshness(user_id) == reference.model_freshness(user_id)
        assert survivor.users.tracking.fix_count(user_id) == reference.users.tracking.fix_count(
            user_id
        )
        assert [f.timestamp_s for f in survivor.users.tracking.fixes_for(user_id)] == [
            f.timestamp_s for f in reference.users.tracking.fixes_for(user_id)
        ]


class TestStoreRoundTrips:
    def test_tracking_store_round_trip(self):
        store = TrackingStore()
        for i in range(30):
            store.add_fix(
                GpsFix("u1", float(i * 10), GeoPoint(45.0 + i * 1e-3, 7.6), speed_mps=5.0)
            )
        store.prune_before("u1", 100.0)
        payload = json.loads(json.dumps(store.snapshot()))

        restored = TrackingStore()
        restored.restore(payload)
        assert restored.fixes_added("u1") == 30
        assert restored.fix_count("u1") == store.fix_count("u1")
        assert [f.timestamp_s for f in restored.fixes_for("u1")] == [
            f.timestamp_s for f in store.fixes_for("u1")
        ]
        assert restored.users_within(GeoPoint(45.029, 7.6), 500.0) == ["u1"]
        # History cursors keep working across the restore.
        page = restored.fixes_page("u1", limit=5)
        assert [f.timestamp_s for f in page.items] == [100.0, 110.0, 120.0, 130.0, 140.0]
        assert page.next_token is not None

    def test_preference_profile_payload_is_exact(self):
        profile = UserPreferenceProfile("u1")
        profile.update({"art": 0.7, "culture": 0.3}, positive=True)
        profile.update({"music-jazz": 1.0}, positive=False)
        clone = UserPreferenceProfile.from_payload(
            json.loads(json.dumps(profile.to_payload()))
        )
        assert clone.as_vector() == profile.as_vector()
        assert clone.observation_count == profile.observation_count
        assert clone.affinity({"art": 1.0}) == profile.affinity({"art": 1.0})
        # And it keeps learning identically.
        profile.update({"art": 1.0}, positive=True)
        clone.update({"art": 1.0}, positive=True)
        assert clone.as_vector() == profile.as_vector()

    def test_store_payloads_reject_bad_versions(self):
        store = TrackingStore()
        with pytest.raises(ValidationError):
            store.restore({"version": 7})

    def test_content_restore_keeps_geo_grid_identity(self, warmed_world):
        """The context scorer captures the grid object at server
        construction; a restore must refill it in place, never swap it."""
        server = warmed_world.server
        grid = server.content.geo_index
        tagged = len(grid)
        server.restore_snapshot(json.loads(json.dumps(server.snapshot())))
        assert server.content.geo_index is grid
        assert len(grid) == tagged
