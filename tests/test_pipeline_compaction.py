"""Tests for the periodic tracking-data compaction job of the server."""

import pytest

from repro.datasets import BroadcasterConfig, CommuterConfig, WorldConfig, build_world
from repro.errors import PipelineError
from repro.pipeline import PphcrServer
from repro.roadnet import CityGeneratorConfig
from repro.users import UserProfile


@pytest.fixture(scope="module")
def compaction_world():
    """A private world because compaction prunes tracking data."""
    return build_world(
        WorldConfig(
            seed=808,
            city=CityGeneratorConfig(grid_rows=8, grid_cols=8, poi_count=8, seed=4),
            broadcaster=BroadcasterConfig(seed=5, clips_per_day=40),
            commuters=CommuterConfig(seed=6, commuters=4, history_days=6),
            classifier_documents_per_category=4,
            feedback_events_per_user=10,
        )
    )


class TestTrackingCompaction:
    def test_compaction_prunes_old_fixes_and_keeps_models(self, compaction_world):
        server = compaction_world.server
        before = server.users.tracking.fix_count()
        compacted = []
        server.bus.subscribe("tracking.compacted", compacted.append)
        # Keep only the last two days of raw data: everything older goes away.
        removed = server.compact_tracking_data(keep_window_s=2 * 86400.0)
        after = server.users.tracking.fix_count()
        assert sum(removed.values()) > 0
        assert after == before - sum(removed.values())
        # The compact mobility models survive and remain usable.
        for commuter in compaction_world.commuters:
            model = server.mobility_model(commuter.user_id)
            assert model.stay_points
        assert [message.body["fixes_removed"] for message in compacted] == [sum(removed.values())]

    def test_compaction_with_generous_window_removes_nothing(self, compaction_world):
        server = compaction_world.server
        removed = server.compact_tracking_data(keep_window_s=365 * 86400.0)
        assert sum(removed.values()) == 0

    def test_compaction_validates_window(self, compaction_world):
        with pytest.raises(PipelineError):
            compaction_world.server.compact_tracking_data(keep_window_s=0.0)

    def test_compaction_skips_users_without_enough_data(self):
        server = PphcrServer()
        server.register_user(UserProfile(user_id="solo", display_name="Solo"))
        # No tracking data at all: the job completes and reports nothing removed.
        removed = server.compact_tracking_data()
        assert removed == {}
