"""Tests for the message bus, the PPHCR server and the public API."""

import pytest

from repro.asr import SyntheticNewsCorpus
from repro.content import AudioClip, ContentKind
from repro.errors import PipelineError
from repro.pipeline import Gateway, MessageBus, PphcrServer, ServerConfig
from repro.users import UserProfile


class TestMessageBus:
    def test_publish_delivers_to_subscribers(self):
        bus = MessageBus()
        received = []
        bus.subscribe("topic.a", lambda message: received.append(message.body["x"]))
        bus.publish("topic.a", {"x": 1})
        bus.publish("topic.a", {"x": 2})
        assert received == [1, 2]
        assert bus.delivery_count() == 2

    def test_unrouted_messages_dead_lettered(self):
        bus = MessageBus()
        bus.publish("nobody.listens", {"x": 1})
        assert len(bus.dead_letters()) == 1

    def test_failing_handler_does_not_break_others(self):
        bus = MessageBus()
        received = []

        def bad_handler(_message):
            raise RuntimeError("boom")

        bus.subscribe("t", bad_handler)
        bus.subscribe("t", lambda message: received.append(1))
        bus.publish("t", {})
        assert received == [1]
        assert bus.dead_letters() == []

    def test_all_handlers_fail_dead_letter(self):
        bus = MessageBus()
        bus.subscribe("t", lambda message: (_ for _ in ()).throw(RuntimeError()))
        bus.publish("t", {})
        assert len(bus.dead_letters()) == 1

    def test_published_filter_and_topics(self):
        bus = MessageBus()
        bus.subscribe("a", lambda m: None)
        bus.publish("a", {})
        bus.publish("b", {})
        assert len(bus.published_messages()) == 2
        assert len(bus.published_messages("a")) == 1
        assert bus.topics() == ["a"]

    def test_empty_topic_rejected(self):
        bus = MessageBus()
        with pytest.raises(PipelineError):
            bus.publish("", {})
        with pytest.raises(PipelineError):
            bus.subscribe("", lambda m: None)


class TestServerIngestion:
    def test_speech_clip_classified_on_ingest(self):
        corpus = SyntheticNewsCorpus(seed=21)
        train, _ = corpus.train_test_split(documents_per_category=6)
        server = PphcrServer()
        server.train_classifier([d.text for d in train], [d.category for d in train])
        speech_text = corpus.generate_document("economics", word_count=150).text
        clip = AudioClip(
            clip_id="speech-1",
            title="Market news",
            kind=ContentKind.NEWS,
            duration_s=240.0,
        )
        stored = server.ingest_clip(clip, speech_text=speech_text)
        assert stored.transcript is not None
        assert stored.category_scores
        assert stored.primary_category == "economics"
        classified_messages = server.bus.published_messages("clip.classified")
        assert len(classified_messages) == 1
        assert classified_messages[0].body["predicted"] == "economics"

    def test_clip_without_speech_keeps_editorial_scores(self):
        server = PphcrServer()
        clip = AudioClip(
            clip_id="tagged-1",
            title="Tagged",
            kind=ContentKind.PODCAST,
            duration_s=120.0,
            category_scores={"comedy": 1.0},
        )
        stored = server.ingest_clip(clip)
        assert stored.category_scores == {"comedy": 1.0}
        assert server.content.clip_count() == 1

    def test_speech_ignored_without_classifier(self):
        server = PphcrServer()
        clip = AudioClip(clip_id="c", title="c", kind=ContentKind.NEWS, duration_s=60.0)
        stored = server.ingest_clip(clip, speech_text="qualche testo parlato qui")
        assert stored.category_scores == {}

    def test_register_user_and_bus_events(self):
        server = PphcrServer()
        server.register_user(UserProfile(user_id="u1", display_name="User"))
        assert server.users.user_count() == 1
        assert server.bus.published_messages("user.registered")


class TestServerMobilityAndRecommendation:
    def test_rebuild_mobility_model(self, small_world):
        server = small_world.server
        user_id = small_world.commuters[0].user_id
        model = server.refresh_mobility_model(user_id)
        assert model.trip_count >= 2
        assert model.stay_points
        assert server.bus.published_messages("tracking.model_rebuilt")

    def test_rebuild_requires_tracking_data(self):
        server = PphcrServer()
        server.register_user(UserProfile(user_id="u1", display_name="User"))
        with pytest.raises(PipelineError):
            server.refresh_mobility_model("u1")

    def test_build_context_stationary_without_recent_fixes(self, small_world):
        server = small_world.server
        user_id = small_world.commuters[0].user_id
        # Long after the last historical fix: the trailing window is empty.
        context = server.build_context(user_id, now_s=small_world.today_start_s + 3 * 86400.0)
        assert not context.is_driving

    def test_build_context_during_live_drive(self, small_world):
        server = small_world.server
        commuter = small_world.commuters[1]
        drive = small_world.commuter_generator.live_drive(commuter, day=small_world.today)
        observe = drive.departure_s + 240.0
        server.users.ingest_fixes(drive.fixes(until_s=observe), skip_stale=True)
        context = server.build_context(commuter.user_id, now_s=observe)
        assert context.is_driving
        assert context.speed_mps > 2.0
        assert context.position is not None
        # Destination prediction and ΔT should usually be available mid-commute.
        assert context.destination is not None
        assert context.available_time_s is not None

    def test_recommend_produces_plan_mid_commute(self, small_world):
        server = small_world.server
        commuter = small_world.commuters[2]
        drive = small_world.commuter_generator.live_drive(commuter, day=small_world.today)
        observe = drive.departure_s + 240.0
        server.users.ingest_fixes(drive.fixes(until_s=observe), skip_stale=True)
        decision = server.recommend(commuter.user_id, now_s=observe, drive_elapsed_s=240.0)
        assert server.bus.published_messages("recommendation.decision")
        if decision.should_recommend:
            plan = decision.plan
            assert plan.total_scheduled_s <= plan.available_s + 1e-6
            assert all(item.scored.clip.duration_s <= plan.available_s for item in plan.items)

    def test_recommend_for_parked_user_refuses(self, small_world):
        server = small_world.server
        user_id = small_world.commuters[3].user_id
        decision = server.recommend(user_id, now_s=small_world.today_start_s + 5 * 86400.0)
        assert not decision.should_recommend

    def test_editorial_injection_reaches_plan(self, small_world):
        server = small_world.server
        commuter = small_world.commuters[4]
        drive = small_world.commuter_generator.live_drive(commuter, day=small_world.today)
        observe = drive.departure_s + 240.0
        server.users.ingest_fixes(drive.fixes(until_s=observe), skip_stale=True)
        # Inject a clip the user would normally not get (disliked category).
        disliked = commuter.disliked_categories[0]
        candidates = server.content.clips_by_category(disliked)
        short_enough = [c for c in candidates if c.duration_s <= 240.0]
        if not short_enough:
            pytest.skip("no short clip available in the disliked category")
        target = short_enough[0]
        server.editorial.inject(
            target.clip_id, target_user_ids=[commuter.user_id], boost=1.0, created_s=observe - 10.0
        )
        decision = server.recommend(commuter.user_id, now_s=observe, drive_elapsed_s=240.0)
        if decision.should_recommend:
            assert target.clip_id in decision.recommended_clip_ids


class TestPublicApi:
    def test_register_and_get_profile(self):
        api = Gateway(PphcrServer())
        response = api.request(
            "POST", "/v1/users", body={"user_id": "u1", "display_name": "Greg", "age": 40}
        )
        assert response.status == 201
        duplicate = api.request(
            "POST", "/v1/users", body={"user_id": "u1", "display_name": "Greg"}
        )
        assert duplicate.status == 409
        profile = api.request("GET", "/v1/users/u1")
        assert profile.ok
        assert profile.body["display_name"] == "Greg"
        assert api.request("GET", "/v1/users/ghost").status == 404

    @staticmethod
    def _feedback(api, user_id, clip_id, kind):
        return api.request(
            "POST",
            "/v1/feedback",
            body={"user_id": user_id, "content_id": clip_id, "kind": kind, "timestamp_s": 1000.0},
        )

    def test_feedback_endpoint(self, small_world):
        api = Gateway(small_world.server)
        user_id = small_world.commuters[0].user_id
        clip_id = small_world.server.content.clips()[0].clip_id
        ok = self._feedback(api, user_id, clip_id, "like")
        assert ok.status == 201
        bad_kind = self._feedback(api, user_id, clip_id, "loved-it")
        assert bad_kind.status == 400
        unknown_user = self._feedback(api, "ghost", clip_id, "like")
        assert unknown_user.status == 404

    def test_location_endpoint(self, small_world):
        api = Gateway(small_world.server)
        user_id = small_world.commuters[0].user_id
        latest = small_world.server.users.tracking.latest_fix(user_id).timestamp_s
        fix = {"user_id": user_id, "lat": 45.07, "lon": 7.68, "timestamp_s": latest + 10.0}
        ok = api.request("POST", "/v1/tracking", body=fix)
        assert ok.status == 202
        bad = api.request(
            "POST", "/v1/tracking", body={**fix, "lat": 123.0, "timestamp_s": latest + 20.0}
        )
        assert bad.status == 400

    def test_services_and_clip_endpoints(self, small_world):
        api = Gateway(small_world.server)
        services = api.request("GET", "/v1/services")
        assert services.ok
        assert len(services.body["services"]) == 10
        clip_id = small_world.server.content.clips()[0].clip_id
        clip = api.request("GET", f"/v1/clips/{clip_id}")
        assert clip.ok and clip.body["clip_id"] == clip_id
        assert api.request("GET", "/v1/clips/ghost").status == 404

    def test_recommendations_endpoint(self, small_world):
        api = Gateway(small_world.server)
        commuter = small_world.commuters[5]
        drive = small_world.commuter_generator.live_drive(commuter, day=small_world.today)
        observe = drive.departure_s + 240.0
        small_world.server.users.ingest_fixes(drive.fixes(until_s=observe), skip_stale=True)
        query = {"now_s": repr(observe)}
        response = api.request("GET", f"/v1/recommendations/{commuter.user_id}", query=query)
        assert response.ok
        assert "proactive" in response.body
        if response.body["proactive"]:
            assert response.body["items"]
            first = response.body["items"][0]
            assert {"clip_id", "title", "duration_s", "score"} <= set(first)
        missing = api.request("GET", "/v1/recommendations/ghost", query=query)
        assert missing.status == 404
