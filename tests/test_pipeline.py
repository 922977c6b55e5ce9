"""Tests for the message bus, the PPHCR server and the public API."""

import pytest

from repro.asr import SyntheticNewsCorpus
from repro.content import AudioClip, ContentKind
from repro.errors import NotFoundError, PipelineError, PredictionError
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import Gateway, MessageBus, PphcrServer, ServerConfig
from repro.roadnet.routing import RoutePlanner
from repro.trajectory import DestinationPredictor, TravelTimePredictor
from repro.users import UserProfile


def _published(registry, topic):
    """How many messages the bus counted on ``topic``."""
    counter = registry.counter("bus_published_total", labels=("topic",))
    return counter.labels(topic=topic).value


class TestMessageBus:
    def test_publish_delivers_to_subscribers(self):
        bus = MessageBus(MetricsRegistry())
        received = []
        bus.subscribe("topic.a", lambda message: received.append(message.body["x"]))
        bus.publish("topic.a", {"x": 1})
        bus.publish("topic.a", {"x": 2})
        assert received == [1, 2]
        assert bus.delivery_count() == 2

    def test_unrouted_messages_are_counted_not_dead_lettered(self):
        registry = MetricsRegistry()
        bus = MessageBus(registry)
        bus.publish("nobody.listens", {"x": 1})
        assert _published(registry, "nobody.listens") == 1
        assert bus.dead_letter_records() == []

    def test_failing_handler_does_not_break_others(self):
        bus = MessageBus(MetricsRegistry())
        received = []

        def bad_handler(_message):
            raise RuntimeError("boom")

        bus.subscribe("t", bad_handler)
        bus.subscribe("t", lambda message: received.append(1))
        bus.publish("t", {})
        assert received == [1]
        assert [record.reason for record in bus.dead_letter_records()] == ["handler_error"]

    def test_all_handlers_fail_dead_letter(self):
        bus = MessageBus(MetricsRegistry())
        bus.subscribe("t", lambda message: (_ for _ in ()).throw(RuntimeError()))
        bus.publish("t", {})
        assert [record.reason for record in bus.dead_letter_records()] == [
            "handler_error",
            "all_handlers_failed",
        ]

    def test_published_filter_and_topics(self):
        registry = MetricsRegistry()
        bus = MessageBus(registry)
        bus.subscribe("a", lambda m: None)
        bus.publish("a", {})
        bus.publish("b", {})
        bus.publish("b", {})
        assert _published(registry, "a") == 1
        assert _published(registry, "b") == 2
        assert bus.topics() == ["a"]

    def test_empty_topic_rejected(self):
        bus = MessageBus(MetricsRegistry())
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
        classified_messages = []
        server.bus.subscribe("clip.classified", classified_messages.append)
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
        registered = []
        server.bus.subscribe("user.registered", registered.append)
        server.register_user(UserProfile(user_id="u1", display_name="User"))
        assert server.users.user_count() == 1
        assert [message.body for message in registered] == [{"user_id": "u1"}]


class TestServerMobilityAndRecommendation:
    def test_rebuild_mobility_model(self, small_world):
        server = small_world.server
        user_id = small_world.commuters[0].user_id
        before = _published(server.telemetry.metrics, "tracking.model_rebuilt")
        model = server.refresh_mobility_model(user_id)
        assert model.trip_count >= 2
        assert model.stay_points
        assert _published(server.telemetry.metrics, "tracking.model_rebuilt") == before + 1

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
        before = _published(server.telemetry.metrics, "recommendation.decision")
        decision = server.recommend(commuter.user_id, now_s=observe, drive_elapsed_s=240.0)
        assert _published(server.telemetry.metrics, "recommendation.decision") == before + 1
        if decision.should_recommend:
            plan = decision.plan
            assert plan.total_scheduled_s <= plan.available_s + 1e-6
            assert all(item.scored.clip.duration_s <= plan.available_s for item in plan.items)

    def test_failed_destination_prediction_is_counted_and_bugs_propagate(
        self, small_world, monkeypatch
    ):
        server = small_world.server
        commuter = small_world.commuters[1]
        drive = small_world.commuter_generator.live_drive(commuter, day=small_world.today)
        observe = drive.departure_s + 240.0
        server.users.ingest_fixes(drive.fixes(until_s=observe), skip_stale=True)
        degraded = server.telemetry.metrics.counter(
            "recommend_degraded_total", labels=("reason",)
        ).labels(reason="no_destination")
        before = degraded.value

        def unpredictable(predictor, partial_drive):
            raise PredictionError("no destination candidate received positive score")

        monkeypatch.setattr(DestinationPredictor, "most_likely", unpredictable)
        context = server.build_context(commuter.user_id, now_s=observe)
        assert context.is_driving
        assert context.destination is None
        assert degraded.value == before + 1

        # Only the prediction taxonomy degrades the tick; a bug surfaces.
        def broken(predictor, partial_drive):
            raise RuntimeError("not a prediction failure")

        monkeypatch.setattr(DestinationPredictor, "most_likely", broken)
        with pytest.raises(RuntimeError):
            server.build_context(commuter.user_id, now_s=observe)
        assert degraded.value == before + 1

    def test_every_tick_publishes_its_context(self, small_world):
        server = small_world.server
        metrics = server.telemetry.metrics
        commuter = small_world.commuters[2]
        drive = small_world.commuter_generator.live_drive(commuter, day=small_world.today)
        observe = drive.departure_s + 240.0
        server.users.ingest_fixes(drive.fixes(until_s=observe), skip_stale=True)
        ticks = [
            # Long after the last fix: no fixes in the window, not driving.
            (small_world.commuters[3].user_id, small_world.today_start_s + 5 * 86400.0, False),
            (commuter.user_id, observe, True),
        ]
        for user_id, now_s, driving in ticks:
            built = _published(metrics, "context.built")
            decided = _published(metrics, "recommendation.decision")
            assert server.build_context(user_id, now_s=now_s).is_driving is driving
            server.recommend(user_id, now_s=now_s)
            assert _published(metrics, "context.built") == built + 2
            assert _published(metrics, "recommendation.decision") == decided + 1

    def test_driving_tick_plans_one_route(self, small_world, monkeypatch):
        server = small_world.server
        commuter = small_world.commuters[2]
        drive = small_world.commuter_generator.live_drive(commuter, day=small_world.today)
        observe = drive.departure_s + 240.0
        server.users.ingest_fixes(drive.fixes(until_s=observe), skip_stale=True)
        searches, estimates = [], []
        search = RoutePlanner.route_between_nodes
        estimate = TravelTimePredictor.estimate

        def counted_search(planner, start_id, end_id):
            searches.append((start_id, end_id))
            return search(planner, start_id, end_id)

        def recorded_estimate(predictor, *args, **kwargs):
            estimates.append((args, kwargs))
            return estimate(predictor, *args, **kwargs)

        monkeypatch.setattr(RoutePlanner, "route_between_nodes", counted_search)
        monkeypatch.setattr(TravelTimePredictor, "estimate", recorded_estimate)
        server.recommend(commuter.user_id, now_s=observe)
        assert len(searches) == 1

        # The tick's ΔT is what a stand-alone predictor plans for itself.
        searches.clear()
        estimates.clear()
        context = server.build_context(commuter.user_id, now_s=observe)
        assert len(searches) == 1
        ((args, kwargs),) = estimates
        assert kwargs.pop("route") is not None
        assert kwargs["cluster"] is not None
        alone = estimate(TravelTimePredictor(server.route_planner), *args, **kwargs)
        assert len(searches) == 2
        assert alone.network_component_s is not None
        assert context.travel_time == alone
        assert context.route is not None

        # No route: ΔT from history alone, no zones, one no_route count.
        def no_path(planner, start_id, end_id):
            raise NotFoundError(f"no drivable path between {start_id!r} and {end_id!r}")

        monkeypatch.setattr(RoutePlanner, "route_between_nodes", no_path)
        no_route = server.telemetry.metrics.counter(
            "recommend_degraded_total", labels=("reason",)
        ).labels(reason="no_route")
        before = no_route.value
        context = server.build_context(commuter.user_id, now_s=observe)
        assert no_route.value == before + 1
        assert context.route is None
        assert context.distraction_zones == []
        assert context.travel_time == estimate(TravelTimePredictor(None), *args, **kwargs)
        assert context.travel_time.network_component_s is None
        assert context.travel_time.history_weight == 1.0

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
