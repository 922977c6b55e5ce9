"""Tests for user profiles, preference learning, feedback and the manager."""

import pytest

from repro.content import AudioClip, ContentKind, ContentRepository
from repro.errors import DuplicateError, NotFoundError, ValidationError
from repro.geo import GeoPoint
from repro.spatialdb import GpsFix
from repro.users import (
    FeedbackEvent,
    FeedbackKind,
    FeedbackStore,
    UserManager,
    UserPreferenceProfile,
    UserProfile,
)


class TestUserProfile:
    def test_valid(self):
        profile = UserProfile(user_id="u1", display_name="Lilly", age=29)
        assert profile.language == "it"

    def test_validation(self):
        with pytest.raises(ValidationError):
            UserProfile(user_id="", display_name="x")
        with pytest.raises(ValidationError):
            UserProfile(user_id="u", display_name="x", age=150)


class TestPreferenceProfile:
    def test_starts_neutral(self):
        profile = UserPreferenceProfile("u1")
        assert profile.score("economics") == 0.0
        assert profile.affinity({"economics": 1.0}) == 0.5
        assert profile.observation_count == 0

    def test_positive_feedback_increases_score(self):
        profile = UserPreferenceProfile("u1")
        profile.update({"economics": 1.0}, positive=True)
        assert profile.score("economics") > 0.0
        assert profile.affinity({"economics": 1.0}) > 0.5

    def test_negative_feedback_decreases_score(self):
        profile = UserPreferenceProfile("u1")
        profile.update({"comedy": 1.0}, positive=False)
        assert profile.score("comedy") < 0.0
        assert profile.affinity({"comedy": 1.0}) < 0.5

    def test_scores_bounded(self):
        profile = UserPreferenceProfile("u1")
        for _ in range(100):
            profile.update({"economics": 1.0}, positive=True)
            profile.update({"comedy": 1.0}, positive=False)
        assert -1.0 <= profile.score("comedy") <= 1.0
        assert -1.0 <= profile.score("economics") <= 1.0

    def test_unknown_category_rejected(self):
        with pytest.raises(NotFoundError):
            UserPreferenceProfile("u1").score("astrology")
        with pytest.raises(NotFoundError):
            UserPreferenceProfile("u1").update({"astrology": 1.0}, positive=True)

    def test_empty_scores_ignored(self):
        profile = UserPreferenceProfile("u1")
        profile.update({}, positive=True)
        assert profile.observation_count == 0

    def test_top_and_disliked(self):
        profile = UserPreferenceProfile("u1")
        profile.seeded(["economics", "technology"], ["comedy"])
        top = [name for name, _score in profile.top_categories(2)]
        assert set(top) <= {"economics", "technology"}
        assert "comedy" in profile.disliked_categories(threshold=-0.1)

    def test_affinity_mixes_categories(self):
        profile = UserPreferenceProfile("u1")
        profile.seeded(["economics"], ["comedy"])
        mixed = profile.affinity({"economics": 0.5, "comedy": 0.5})
        pure_good = profile.affinity({"economics": 1.0})
        pure_bad = profile.affinity({"comedy": 1.0})
        assert pure_bad < mixed < pure_good

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            UserPreferenceProfile("u1", learning_rate=1.5)
        with pytest.raises(ValidationError):
            UserPreferenceProfile("u1", negative_penalty=-1.0)
        with pytest.raises(ValidationError):
            UserPreferenceProfile("u1", decay=2.0)


class TestFeedbackStore:
    def test_record_and_query(self):
        store = FeedbackStore()
        store.record("u1", "c1", FeedbackKind.LIKE, timestamp_s=10.0)
        store.record("u1", "c2", FeedbackKind.SKIP, timestamp_s=20.0)
        store.record("u2", "c1", FeedbackKind.COMPLETED, timestamp_s=30.0)
        assert len(store) == 3
        assert [event.content_id for event in store.events_for_user("u1")] == ["c1", "c2"]
        assert len(store.events_for_content("c1")) == 2

    def test_events_sorted_by_time(self):
        store = FeedbackStore()
        store.record("u1", "c2", FeedbackKind.SKIP, timestamp_s=20.0)
        store.record("u1", "c1", FeedbackKind.LIKE, timestamp_s=10.0)
        events = store.events_for_user("u1")
        assert [event.timestamp_s for event in events] == [10.0, 20.0]

    def test_weights_and_polarity(self):
        assert FeedbackKind.LIKE.value == "like"
        positive = FeedbackEvent("e", "u", "c", FeedbackKind.COMPLETED, 0.0)
        negative = FeedbackEvent("e2", "u", "c", FeedbackKind.CHANNEL_CHANGE, 0.0)
        assert positive.is_positive and positive.weight > 0
        assert not negative.is_positive and negative.weight < 0

    def test_negative_listened_rejected(self):
        with pytest.raises(ValidationError):
            FeedbackEvent("e", "u", "c", FeedbackKind.SKIP, 0.0, listened_s=-1.0)

    def test_skip_rate(self):
        store = FeedbackStore()
        store.record("u1", "c1", FeedbackKind.COMPLETED, timestamp_s=1.0)
        store.record("u1", "c2", FeedbackKind.SKIP, timestamp_s=2.0)
        store.record("u1", "c3", FeedbackKind.SKIP, timestamp_s=3.0)
        store.record("u1", "c4", FeedbackKind.LISTEN_PING, timestamp_s=4.0)  # not terminal
        assert store.skip_rate("u1") == pytest.approx(2 / 3)
        assert store.skip_rate() == pytest.approx(2 / 3)

    def test_skip_rate_empty(self):
        assert FeedbackStore().skip_rate() == 0.0

    def test_positive_negative_content_ids(self):
        store = FeedbackStore()
        store.record("u1", "good", FeedbackKind.LIKE, timestamp_s=1.0)
        store.record("u1", "bad", FeedbackKind.DISLIKE, timestamp_s=2.0)
        assert store.positive_content_ids("u1") == ["good"]
        assert store.negative_content_ids("u1") == ["bad"]


class TestUserManager:
    def make_manager(self):
        content = ContentRepository()
        content.add_clip(
            AudioClip(
                clip_id="clip-econ",
                title="Markets",
                kind=ContentKind.PODCAST,
                duration_s=300.0,
                category_scores={"economics": 1.0},
            )
        )
        manager = UserManager(content=content)
        manager.register(UserProfile(user_id="u1", display_name="Greg"))
        return manager

    def test_register_and_lookup(self):
        manager = self.make_manager()
        assert manager.profile("u1").display_name == "Greg"
        assert manager.user_count() == 1
        assert manager.user_ids() == ["u1"]
        with pytest.raises(DuplicateError):
            manager.register(UserProfile(user_id="u1", display_name="Again"))
        with pytest.raises(NotFoundError):
            manager.profile("ghost")
        with pytest.raises(NotFoundError):
            manager.preference_profile("ghost")

    def test_feedback_updates_preferences(self):
        manager = self.make_manager()
        before = manager.preference_profile("u1").score("economics")
        manager.record_feedback("u1", "clip-econ", FeedbackKind.LIKE, timestamp_s=5.0)
        after = manager.preference_profile("u1").score("economics")
        assert after > before

    def test_negative_feedback_lowers_preferences(self):
        manager = self.make_manager()
        manager.record_feedback("u1", "clip-econ", FeedbackKind.DISLIKE, timestamp_s=5.0)
        assert manager.preference_profile("u1").score("economics") < 0.0

    def test_feedback_for_unknown_clip_still_recorded(self):
        manager = self.make_manager()
        event = manager.record_feedback("u1", "live-prog", FeedbackKind.SKIP, timestamp_s=5.0, is_clip=False)
        assert event.content_id == "live-prog"
        assert len(manager.feedback) == 1
        # Profile untouched because the programme has no clip category scores.
        assert manager.preference_profile("u1").observation_count == 0

    def test_feedback_unknown_user_rejected(self):
        manager = self.make_manager()
        with pytest.raises(NotFoundError):
            manager.record_feedback("ghost", "clip-econ", FeedbackKind.LIKE, timestamp_s=1.0)

    def test_tracking_ingest(self):
        manager = self.make_manager()
        manager.ingest_fix(GpsFix("u1", 0.0, GeoPoint(45.0, 7.6)))
        assert manager.tracking.fix_count("u1") == 1
        with pytest.raises(NotFoundError):
            manager.ingest_fix(GpsFix("ghost", 0.0, GeoPoint(45.0, 7.6)))

    def test_ingest_fixes_skip_stale(self):
        manager = self.make_manager()
        manager.ingest_fix(GpsFix("u1", 100.0, GeoPoint(45.0, 7.6)))
        added = manager.ingest_fixes(
            [GpsFix("u1", 50.0, GeoPoint(45.0, 7.6)), GpsFix("u1", 150.0, GeoPoint(45.0, 7.61))],
            skip_stale=True,
        )
        assert added == 1
        assert manager.tracking.fix_count("u1") == 2

    def test_ingest_fixes_reads_latest_fix_once_per_user_even_when_stale(self, monkeypatch):
        manager = self.make_manager()
        manager.ingest_fix(GpsFix("u1", 100.0, GeoPoint(45.0, 7.6)))
        reads = []
        latest_fix = manager.tracking.latest_fix

        def counting_latest_fix(user_id):
            reads.append(user_id)
            return latest_fix(user_id)

        monkeypatch.setattr(manager.tracking, "latest_fix", counting_latest_fix)
        stale = [GpsFix("u1", float(t), GeoPoint(45.0, 7.6)) for t in (10, 20, 30, 40, 50)]
        added = manager.ingest_fixes(
            stale + [GpsFix("u1", 150.0, GeoPoint(45.0, 7.61))], skip_stale=True
        )
        assert added == 1
        assert reads == ["u1"]
