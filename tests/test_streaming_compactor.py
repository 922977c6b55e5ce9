"""Sharded/budgeted compaction: dirty-skip, shards, budgets, server wiring."""

import pytest

from repro.errors import PipelineError
from repro.geo import GeoPoint
from repro.geo.geodesy import destination_point
from repro.pipeline import PphcrServer
from repro.spatialdb import GpsFix, TrackingStore
from repro.streaming import CompactionConfig, ShardedCompactor
from repro.users import UserProfile


def drive_fixes(user_id, start_s, *, origin=None, points=12, step_s=20.0):
    origin = origin or GeoPoint(45.0, 7.6)
    fixes = []
    position = origin
    for index in range(points):
        fixes.append(GpsFix(user_id, start_s + index * step_s, position, speed_mps=12.0))
        position = destination_point(position, 90.0, 250.0)
    return fixes


def make_store(user_ids, *, days=3, shards=1):
    store = TrackingStore(shards=shards)
    for user_id in user_ids:
        for day in range(days):
            store.add_fixes(drive_fixes(user_id, day * 86400.0))
    return store


class TestShardedCompactor:
    def test_first_pass_visits_everyone_second_pass_skips_clean(self):
        store = make_store(["u1", "u2", "u3"])
        refreshed = []
        compactor = ShardedCompactor(
            store, lambda user_id: refreshed.append(user_id) or True
        )
        first = compactor.run_pass(keep_window_s=86400.0)
        assert first.visited_users == ["u1", "u2", "u3"]
        assert first.unchanged_users == 0
        assert first.fixes_removed > 0
        assert refreshed == ["u1", "u2", "u3"]

        second = compactor.run_pass(keep_window_s=86400.0)
        assert second.visited_users == []
        assert second.unchanged_users == 3
        assert second.removed == {}
        assert refreshed == ["u1", "u2", "u3"]  # no re-mining of clean users

    def test_new_fixes_re_dirty_only_that_user(self):
        store = make_store(["u1", "u2"])
        compactor = ShardedCompactor(store, lambda user_id: True)
        compactor.run_pass(keep_window_s=86400.0)
        store.add_fixes(drive_fixes("u2", 10 * 86400.0))
        assert compactor.dirty_users() == ["u2"]
        report = compactor.run_pass(keep_window_s=86400.0)
        assert report.visited_users == ["u2"]
        assert report.unchanged_users == 1

    def test_shards_partition_the_population(self):
        users = [f"user-{index:03d}" for index in range(20)]
        store = make_store(users, days=1, shards=4)
        compactor = ShardedCompactor(store, lambda user_id: True)
        by_shard = [compactor.dirty_users(shard=shard) for shard in range(4)]
        flattened = [user for shard_users in by_shard for user in shard_users]
        assert sorted(flattened) == users  # disjoint cover
        # Visiting shard by shard compacts everyone exactly once.
        visited = []
        for shard in range(4):
            visited.extend(compactor.run_pass(keep_window_s=86400.0, shard=shard).visited_users)
        assert sorted(visited) == users
        assert compactor.dirty_users() == []

    def test_budget_defers_overflow_to_next_pass(self):
        users = [f"user-{index}" for index in range(5)]
        store = make_store(users, days=1)
        compactor = ShardedCompactor(store, lambda user_id: True)
        first = compactor.run_pass(keep_window_s=86400.0, budget=2)
        assert len(first.visited_users) == 2
        assert first.deferred_users == 3
        second = compactor.run_pass(keep_window_s=86400.0, budget=2)
        assert len(second.visited_users) == 2
        assert second.deferred_users == 1
        third = compactor.run_pass(keep_window_s=86400.0)
        assert len(third.visited_users) == 1
        assert third.deferred_users == 0

    def test_refresh_failure_counts_as_skipped_and_spares_fixes(self):
        store = make_store(["u1"])
        compactor = ShardedCompactor(store, lambda user_id: False)
        report = compactor.run_pass(keep_window_s=1.0)
        assert report.skipped_users == 1
        assert report.removed == {}
        # The user is considered visited: no re-visit until new data arrives.
        assert compactor.run_pass(keep_window_s=1.0).unchanged_users == 1

    def test_tightened_window_still_prunes_clean_users(self):
        store = make_store(["u1"], days=10)
        compactor = ShardedCompactor(store, lambda user_id: True)
        first = compactor.run_pass(keep_window_s=14 * 86400.0)
        assert first.fixes_removed == 0
        # No new fixes, but the retention window shrank: data must still go.
        second = compactor.run_pass(keep_window_s=86400.0)
        assert second.unchanged_users == 1
        assert second.fixes_removed > 0
        latest = store.latest_fix("u1").timestamp_s
        assert store.earliest_fix("u1").timestamp_s >= latest - 86400.0

    def test_default_window_comes_from_config(self):
        store = make_store(["u1"], days=10)
        compactor = ShardedCompactor(
            store, lambda user_id: True,
            config=CompactionConfig(keep_window_s=86400.0),
        )
        report = compactor.run_pass()  # no explicit window
        assert report.fixes_removed > 0
        latest = store.latest_fix("u1").timestamp_s
        assert store.earliest_fix("u1").timestamp_s >= latest - 86400.0

    def test_validation(self):
        store = make_store(["u1"], shards=2)
        compactor = ShardedCompactor(store, lambda user_id: True)
        with pytest.raises(PipelineError):
            compactor.run_pass(keep_window_s=0.0)
        with pytest.raises(PipelineError):
            compactor.run_pass(shard=2)
        with pytest.raises(PipelineError):
            compactor.run_pass(budget=0)
        with pytest.raises(PipelineError):
            CompactionConfig(max_users_per_pass=0)


class TestServerCompactionWiring:
    def _server_with_users(self, count=3):
        server = PphcrServer()
        for index in range(count):
            user_id = f"commuter-{index}"
            server.register_user(UserProfile(user_id=user_id, display_name=user_id))
            for day in range(4):
                server.users.ingest_fixes(
                    drive_fixes(user_id, day * 86400.0, points=14)
                )
        return server

    def test_unchanged_users_reported_on_bus(self):
        server = self._server_with_users()
        compacted = []
        server.bus.subscribe("tracking.compacted", compacted.append)
        server.compact_tracking_data(keep_window_s=2 * 86400.0)
        first = compacted[-1].body
        assert first["users"] == 3
        assert first["unchanged_users"] == 0
        # Nothing new arrived: the next pass skips everyone.
        server.compact_tracking_data(keep_window_s=2 * 86400.0)
        second = compacted[-1].body
        assert second["users"] == 0
        assert second["unchanged_users"] == 3
        assert second["fixes_removed"] == 0

    def test_compaction_refreshes_models_from_the_stream(self):
        server = self._server_with_users(count=2)
        rebuilt = []
        server.bus.subscribe("tracking.model_rebuilt", rebuilt.append)
        removed = server.compact_tracking_data(keep_window_s=86400.0)
        assert sum(removed.values()) > 0
        for index in range(2):
            model = server.mobility_model(f"commuter-{index}")
            assert model.stay_points
        assert sorted(m.body["user_id"] for m in rebuilt) == ["commuter-0", "commuter-1"]

    def test_sharded_passes_cover_all_users(self):
        server = self._server_with_users(count=4)
        visited = {}
        for shard in range(server.shard_count):
            visited.update(server.compact_tracking_data(keep_window_s=86400.0, shard=shard))
        assert sorted(visited) == [f"commuter-{index}" for index in range(4)]
