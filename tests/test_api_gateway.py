"""Tests for the public API gateway: routes, request path, batching, caching.

Covers every ``/v1`` route's success *and* error paths, the request path
and its order (auth 401s, token-bucket 429s, metrics, exception mapping),
batch ingest parity with the single-fix path, cursor pagination, ETag/304
revalidation, the wire-level JSON entry point, and the server's
round-robin maintenance tick.
"""

from __future__ import annotations

import json
import random
import re

import pytest

import repro.errors as errors
from repro.content import AudioClip, ContentKind
from repro.content.model import RadioService
from repro.errors import ValidationError
from repro.pipeline.gateway.http import ApiRequest, ApiResponse
from repro.pipeline.gateway.middleware import RateLimiter
from repro.pipeline.gateway.routing import RequestContext, Route
from repro.pipeline import (
    ApiKeyRegistry,
    Gateway,
    GatewayConfig,
    PphcrServer,
    RateLimitConfig,
    ServerConfig,
)
from repro.spatialdb import GpsFix
from repro.geo import GeoPoint
from repro.storage.replica import ReadReplica
from repro.storage.sharding import ShardingConfig
from repro.storage.wal import DurabilityConfig
from repro.users import UserProfile


def make_server(**kwargs) -> PphcrServer:
    server = PphcrServer(**kwargs)
    server.register_user(UserProfile(user_id="alice", display_name="Alice"))
    return server


def make_gateway(server=None, config=GatewayConfig()):
    server = server if server is not None else make_server()
    return server, Gateway(server, config)


def drive_fixes(n=40, *, t0=0.0, interval_s=20.0, speed=12.0):
    """A straight synthetic drive as wire-format fix dictionaries."""
    return [
        {
            "lat": 45.07 + 0.002 * i,
            "lon": 7.68 + 0.002 * i,
            "timestamp_s": t0 + interval_s * i,
            "speed_mps": speed,
        }
        for i in range(n)
    ]


class TestRouting:
    def test_unknown_path_is_404(self):
        _, gateway = make_gateway()
        response = gateway.request("GET", "/v1/nope")
        assert response.status == 404
        assert "no route" in response.body["error"]

    def test_wrong_method_is_405_with_allow(self):
        _, gateway = make_gateway()
        response = gateway.request("DELETE", "/v1/services")
        assert response.status == 405
        assert response.header("allow") == "GET"

    def test_route_table_is_declarative(self):
        _, gateway = make_gateway()
        names = {route.name for route in gateway.routes}
        assert "POST /v1/tracking/batch" in names
        assert "GET /v1/recommendations/{user_id}" in names

    def test_duplicate_route_rejected(self):
        from repro.pipeline.gateway import Route, RouteTable

        table = RouteTable()
        table.add(Route("GET", "/v1/things/{a}", lambda ctx: None))
        with pytest.raises(ValidationError):
            table.add(Route("GET", "/v1/things/{b}", lambda ctx: None))


class TestUserRoutes:
    def test_register_get_404_and_409(self):
        _, gateway = make_gateway()
        created = gateway.request(
            "POST", "/v1/users", body={"user_id": "bob", "display_name": "Bob", "age": 40}
        )
        assert created.status == 201 and created.body == {"user_id": "bob"}
        profile = gateway.request("GET", "/v1/users/bob")
        assert profile.ok and profile.body["display_name"] == "Bob"
        assert gateway.request("GET", "/v1/users/ghost").status == 404
        duplicate = gateway.request(
            "POST", "/v1/users", body={"user_id": "bob", "display_name": "Bob"}
        )
        assert duplicate.status == 409

    def test_register_schema_validation(self):
        _, gateway = make_gateway()
        missing = gateway.request("POST", "/v1/users", body={"user_id": "x"})
        assert missing.status == 400 and "display_name" in missing.body["error"]
        wrong_type = gateway.request(
            "POST", "/v1/users", body={"user_id": 7, "display_name": "X"}
        )
        assert wrong_type.status == 400
        bad_age = gateway.request(
            "POST", "/v1/users", body={"user_id": "x", "display_name": "X", "age": 300}
        )
        assert bad_age.status == 400

    def test_register_rejects_bad_extra_fields_with_400(self):
        """Client-controlled extras must map to 400, not an uncaught
        TypeError escaping the exception mapper."""
        _, gateway = make_gateway()
        unknown_field = gateway.request(
            "POST", "/v1/users", body={"user_id": "x", "display_name": "X", "nickname": "n"}
        )
        assert unknown_field.status == 400
        mistyped = gateway.request(
            "POST", "/v1/users", body={"user_id": "x", "display_name": "X", "age": "old"}
        )
        assert mistyped.status == 400


class TestHistoryRoutes:
    """Paginated per-user feedback and tracking history reads."""

    def make_world(self, events=7, fixes=9):
        server = make_server()
        gateway = Gateway(server)
        for index in range(events):
            gateway.request(
                "POST",
                "/v1/feedback",
                body={
                    "user_id": "alice",
                    "content_id": f"c{index}",
                    "kind": "like",
                    "timestamp_s": float(index),
                },
            )
        for index in range(fixes):
            gateway.request(
                "POST",
                "/v1/tracking",
                body={
                    "user_id": "alice",
                    "lat": 45.0 + index * 1e-4,
                    "lon": 7.6,
                    "timestamp_s": float(index * 10),
                },
            )
        return server, gateway

    def walk(self, gateway, path, item_key, *, limit="3"):
        items, cursor, pages = [], None, 0
        while True:
            query = {"limit": limit}
            if cursor is not None:
                query["cursor"] = cursor
            response = gateway.request("GET", path, query=query)
            assert response.ok
            items.extend(response.body[item_key])
            pages += 1
            cursor = response.body["next_cursor"]
            if cursor is None:
                return items, pages

    def test_feedback_history_walk_time_ordered(self):
        _, gateway = self.make_world()
        events, pages = self.walk(gateway, "/v1/users/alice/feedback", "events")
        assert pages == 3
        assert [event["timestamp_s"] for event in events] == [float(i) for i in range(7)]
        assert {event["kind"] for event in events} == {"like"}

    def test_tracking_history_walk_and_stability_under_ingest(self):
        _, gateway = self.make_world()
        first = gateway.request("GET", "/v1/users/alice/tracking", query={"limit": "4"})
        assert first.ok and len(first.body["fixes"]) == 4
        # New fixes arriving mid-walk only ever append past the cursor.
        gateway.request(
            "POST",
            "/v1/tracking",
            body={"user_id": "alice", "lat": 45.1, "lon": 7.6, "timestamp_s": 999.0},
        )
        rest, cursor = [], first.body["next_cursor"]
        while cursor is not None:
            response = gateway.request(
                "GET", "/v1/users/alice/tracking", query={"limit": "4", "cursor": cursor}
            )
            rest.extend(response.body["fixes"])
            cursor = response.body["next_cursor"]
        times = [fix["timestamp_s"] for fix in first.body["fixes"]] + [
            fix["timestamp_s"] for fix in rest
        ]
        assert times == [float(i * 10) for i in range(9)] + [999.0]

    def test_empty_history_is_200_not_404(self):
        _, gateway = self.make_world(events=0, fixes=0)
        feedback = gateway.request("GET", "/v1/users/alice/feedback")
        assert feedback.ok and feedback.body["events"] == []
        assert feedback.body["next_cursor"] is None
        tracking = gateway.request("GET", "/v1/users/alice/tracking")
        assert tracking.ok and tracking.body["fixes"] == []

    def test_unknown_user_is_404(self):
        _, gateway = self.make_world(events=0, fixes=0)
        assert gateway.request("GET", "/v1/users/ghost/feedback").status == 404
        assert gateway.request("GET", "/v1/users/ghost/tracking").status == 404

    def test_malformed_cursors_are_400(self):
        _, gateway = self.make_world()
        for path in ("/v1/users/alice/feedback", "/v1/users/alice/tracking"):
            assert gateway.request("GET", path, query={"cursor": "bogus"}).status == 400
            assert gateway.request("GET", path, query={"limit": "0"}).status == 400


class TestProfileAndClipEtags:
    def test_profile_etag_revalidates_and_invalidates(self):
        server, gateway = make_gateway()
        server.content.add_clip(
            AudioClip(
                clip_id="clip-a",
                title="A",
                kind=ContentKind.PODCAST,
                duration_s=60.0,
                category_scores={"comedy": 1.0},
            )
        )
        first = gateway.request("GET", "/v1/users/alice")
        etag = first.headers["etag"]
        revalidated = gateway.request("GET", "/v1/users/alice", headers={"if-none-match": etag})
        assert revalidated.status == 304 and revalidated.headers["etag"] == etag
        # Feedback that moves the learned profile invalidates the ETag.
        gateway.request(
            "POST",
            "/v1/feedback",
            body={"user_id": "alice", "content_id": "clip-a", "kind": "like", "timestamp_s": 5.0},
        )
        changed = gateway.request("GET", "/v1/users/alice", headers={"if-none-match": etag})
        assert changed.status == 200 and changed.headers["etag"] != etag

    def test_clip_etag_keyed_on_catalogue_version(self):
        server, gateway = make_gateway()
        server.content.add_clip(
            AudioClip(clip_id="clip-a", title="A", kind=ContentKind.PODCAST, duration_s=60.0)
        )
        first = gateway.request("GET", "/v1/clips/clip-a")
        etag = first.headers["etag"]
        assert gateway.request(
            "GET", "/v1/clips/clip-a", headers={"if-none-match": etag}
        ).status == 304
        # Any catalogue write invalidates (weak, storage-version keyed).
        server.content.add_clip(
            AudioClip(clip_id="clip-b", title="B", kind=ContentKind.PODCAST, duration_s=60.0)
        )
        changed = gateway.request("GET", "/v1/clips/clip-a", headers={"if-none-match": etag})
        assert changed.status == 200 and changed.headers["etag"] != etag


class TestFeedbackRoutes:
    def make_world(self):
        server = make_server()
        server.content.add_clip(
            AudioClip(
                clip_id="clip-a",
                title="A",
                kind=ContentKind.PODCAST,
                duration_s=60.0,
                category_scores={"comedy": 1.0},
            )
        )
        return server, Gateway(server)

    def test_feedback_success_and_errors(self):
        _, gateway = self.make_world()
        ok = gateway.request(
            "POST",
            "/v1/feedback",
            body={"user_id": "alice", "content_id": "clip-a", "kind": "like", "timestamp_s": 10.0},
        )
        assert ok.status == 201 and ok.body["event_id"]
        bad_kind = gateway.request(
            "POST",
            "/v1/feedback",
            body={"user_id": "alice", "content_id": "clip-a", "kind": "meh", "timestamp_s": 10.0},
        )
        assert bad_kind.status == 400
        unknown_user = gateway.request(
            "POST",
            "/v1/feedback",
            body={"user_id": "ghost", "content_id": "clip-a", "kind": "like", "timestamp_s": 10.0},
        )
        assert unknown_user.status == 404

    def test_validation_failure_is_400_not_404(self):
        """Regression: the seed API mapped *every* feedback error to
        404; validation failures must be 400 (the gateway's status mapper
        makes this structural)."""
        _, gateway = self.make_world()
        negative = gateway.request(
            "POST",
            "/v1/feedback",
            body={
                "user_id": "alice",
                "content_id": "clip-a",
                "kind": "like",
                "timestamp_s": 10.0,
                "listened_s": -5.0,
            },
        )
        assert negative.status == 400

    def test_feedback_batch_all_recorded(self):
        _, gateway = self.make_world()
        events = [
            {"user_id": "alice", "content_id": "clip-a", "kind": "like", "timestamp_s": 10.0},
            {"user_id": "alice", "content_id": "clip-a", "kind": "skip", "timestamp_s": 20.0},
        ]
        response = gateway.request("POST", "/v1/feedback/batch", body={"events": events})
        assert response.status == 201
        assert response.body["recorded"] == 2 and len(response.body["event_ids"]) == 2
        assert response.body["failed"] == []

    def test_feedback_batch_partial_failure(self):
        _, gateway = self.make_world()
        events = [
            {"user_id": "alice", "content_id": "clip-a", "kind": "like", "timestamp_s": 10.0},
            {"user_id": "ghost", "content_id": "clip-a", "kind": "like", "timestamp_s": 11.0},
            {"user_id": "alice", "content_id": "clip-a", "kind": "meh", "timestamp_s": 12.0},
        ]
        response = gateway.request("POST", "/v1/feedback/batch", body={"events": events})
        assert response.status == 200
        assert response.body["recorded"] == 1
        statuses = {item["index"]: item["status"] for item in response.body["failed"]}
        assert statuses == {1: 404, 2: 400}

    def test_feedback_batch_empty_rejected(self):
        _, gateway = self.make_world()
        assert gateway.request("POST", "/v1/feedback/batch", body={"events": []}).status == 400
        assert gateway.request("POST", "/v1/feedback/batch", body={}).status == 400


class TestTrackingRoutes:
    def test_single_fix_success_and_errors(self):
        _, gateway = make_gateway()
        ok = gateway.request(
            "POST",
            "/v1/tracking",
            body={"user_id": "alice", "lat": 45.07, "lon": 7.68, "timestamp_s": 100.0},
        )
        assert ok.status == 202 and ok.body == {"stored": True}
        bad_lat = gateway.request(
            "POST",
            "/v1/tracking",
            body={"user_id": "alice", "lat": 123.0, "lon": 7.68, "timestamp_s": 110.0},
        )
        assert bad_lat.status == 400
        unknown = gateway.request(
            "POST",
            "/v1/tracking",
            body={"user_id": "ghost", "lat": 45.0, "lon": 7.68, "timestamp_s": 120.0},
        )
        assert unknown.status == 404
        out_of_order = gateway.request(
            "POST",
            "/v1/tracking",
            body={"user_id": "alice", "lat": 45.07, "lon": 7.68, "timestamp_s": 50.0},
        )
        assert out_of_order.status == 400

    def test_batch_ingest_success_and_stale_skip(self):
        _, gateway = make_gateway()
        fixes = drive_fixes(30)
        response = gateway.request(
            "POST", "/v1/tracking/batch", body={"user_id": "alice", "fixes": fixes}
        )
        assert response.status == 202
        assert response.body == {"submitted": 30, "accepted": 30, "skipped_stale": 0}
        # Replaying the drive plus a few new fixes: fixes strictly older
        # than the stored latest are skipped (the boundary fix is re-accepted,
        # matching ingest_fixes' documented skip_stale semantics).
        replay = fixes[:-1] + drive_fixes(5, t0=30 * 20.0)
        response = gateway.request(
            "POST", "/v1/tracking/batch", body={"user_id": "alice", "fixes": replay}
        )
        assert response.status == 202
        assert response.body["accepted"] == 5
        assert response.body["skipped_stale"] == 29

    def test_batch_errors(self):
        _, gateway = make_gateway()
        unknown = gateway.request(
            "POST", "/v1/tracking/batch", body={"user_id": "ghost", "fixes": drive_fixes(3)}
        )
        assert unknown.status == 404
        empty = gateway.request(
            "POST", "/v1/tracking/batch", body={"user_id": "alice", "fixes": []}
        )
        assert empty.status == 400
        bad_item = gateway.request(
            "POST",
            "/v1/tracking/batch",
            body={"user_id": "alice", "fixes": [{"lat": 91.0, "lon": 0.0, "timestamp_s": 1.0}]},
        )
        assert bad_item.status == 400 and "fixes[0]" in bad_item.body["error"]

    def test_batch_parity_with_single_fix_ingest(self):
        """The same drive ingested per fix and in one batch must leave the
        tracking store and the streaming mobility models identical."""
        server_single = make_server()
        server_batch = make_server()
        gateway_single = Gateway(server_single)
        gateway_batch = Gateway(server_batch)
        fixes = drive_fixes(120) + drive_fixes(120, t0=8 * 3600.0)
        for fix in fixes:
            response = gateway_single.request(
                "POST", "/v1/tracking", body={"user_id": "alice", **fix}
            )
            assert response.status == 202
        response = gateway_batch.request(
            "POST", "/v1/tracking/batch", body={"user_id": "alice", "fixes": fixes}
        )
        assert response.status == 202 and response.body["accepted"] == len(fixes)

        assert server_single.users.tracking.fixes_for("alice") == server_batch.users.tracking.fixes_for("alice")
        snap_single = server_single.streaming.model_snapshot("alice", include_open_tail=True)
        snap_batch = server_batch.streaming.model_snapshot("alice", include_open_tail=True)
        assert (snap_single is None) == (snap_batch is None)
        if snap_single is not None:
            assert snap_single.trip_count == snap_batch.trip_count
            assert [
                (sp.stay_point_id, sp.center, sp.support) for sp in snap_single.stay_points
            ] == [(sp.stay_point_id, sp.center, sp.support) for sp in snap_batch.stay_points]
            assert [
                (c.cluster_id, c.origin_stay_point, c.destination_stay_point, c.support)
                for c in snap_single.clusters
            ] == [
                (c.cluster_id, c.origin_stay_point, c.destination_stay_point, c.support)
                for c in snap_batch.clusters
            ]
        assert server_single.streaming.observed_fix_count("alice") == server_batch.streaming.observed_fix_count("alice")


class TestContentRoutes:
    def make_catalogue(self, services=7, clips=12):
        server = make_server()
        for index in range(services):
            server.content.add_service(
                RadioService(service_id=f"svc-{index:02d}", name=f"Service {index}")
            )
        for index in range(clips):
            server.content.add_clip(
                AudioClip(
                    clip_id=f"clip-{index:02d}",
                    title=f"Clip {index}",
                    kind=ContentKind.PODCAST,
                    duration_s=60.0,
                    published_s=float(index // 3),  # ties exercise the seq order
                )
            )
        return server, Gateway(server)

    def test_get_clip(self):
        _, gateway = self.make_catalogue()
        ok = gateway.request("GET", "/v1/clips/clip-03")
        assert ok.ok and ok.body["clip_id"] == "clip-03"
        assert gateway.request("GET", "/v1/clips/ghost").status == 404

    def test_services_pagination_walk(self):
        _, gateway = self.make_catalogue(services=7)
        seen = []
        cursor = None
        pages = 0
        while True:
            query = {"limit": "3"}
            if cursor is not None:
                query["cursor"] = cursor
            response = gateway.request("GET", "/v1/services", query=query)
            assert response.ok
            seen.extend(item["service_id"] for item in response.body["services"])
            pages += 1
            cursor = response.body["next_cursor"]
            if cursor is None:
                break
        assert pages == 3
        assert seen == [f"svc-{index:02d}" for index in range(7)]

    def test_clips_pagination_newest_first_and_stable_under_inserts(self):
        server, gateway = self.make_catalogue(clips=10)
        first = gateway.request("GET", "/v1/clips", query={"limit": "4"})
        assert first.ok and len(first.body["clips"]) == 4
        ids_first = [clip["clip_id"] for clip in first.body["clips"]]
        # Newest first: descending publish time, insertion order within ties
        # (clips 06..08 share published_s=2.0).
        assert ids_first == ["clip-09", "clip-06", "clip-07", "clip-08"]
        # A clip published mid-walk must not disturb the remaining pages.
        server.content.add_clip(
            AudioClip(
                clip_id="clip-new",
                title="New",
                kind=ContentKind.NEWS,
                duration_s=30.0,
                published_s=99.0,
            )
        )
        rest = []
        cursor = first.body["next_cursor"]
        while cursor is not None:
            response = gateway.request("GET", "/v1/clips", query={"limit": "4", "cursor": cursor})
            rest.extend(clip["clip_id"] for clip in response.body["clips"])
            cursor = response.body["next_cursor"]
        assert rest == ["clip-03", "clip-04", "clip-05", "clip-00", "clip-01", "clip-02"]
        # A fresh walk starts at the newly published clip.
        fresh = gateway.request("GET", "/v1/clips", query={"limit": "1"})
        assert fresh.body["clips"][0]["clip_id"] == "clip-new"

    def test_pagination_limit_validation(self):
        _, gateway = self.make_catalogue()
        assert gateway.request("GET", "/v1/clips", query={"limit": "0"}).status == 400
        assert gateway.request("GET", "/v1/clips", query={"limit": "abc"}).status == 400
        assert gateway.request("GET", "/v1/clips", query={"cursor": "bogus"}).status == 400
        # Limits above the configured maximum are clamped, not rejected.
        clamped = gateway.request("GET", "/v1/clips", query={"limit": "100000"})
        assert clamped.ok


def compact(body):
    return json.dumps(body, separators=(",", ":"))


class TestEncodedClipReads:
    """Clip and clip-page 200s served from the gateway's encoded-body map."""

    CLIP_ROUTE = "GET /v1/clips/{clip_id}"
    PAGE_ROUTE = "GET /v1/clips"

    @staticmethod
    def make_clip(index, *, title=None, published_s=None):
        return AudioClip(
            clip_id=f"clip-{index:02d}",
            title=title if title is not None else f"Clip {index} \u00e8",
            kind=ContentKind.PODCAST,
            duration_s=60.0 + index / 7.0,
            category_scores={
                ("news-national", "culture", "comedy")[index % 3]: 0.25 + index / 100.0
            },
            published_s=published_s if published_s is not None else float(index // 3),
        )

    def make_catalogue(self, clips=23, config=GatewayConfig()):
        server = make_server()
        for index in range(clips):
            server.content.add_clip(self.make_clip(index))
        return server, Gateway(server, config)

    @staticmethod
    def wire(gateway, path, **kwargs):
        return gateway.handle_wire("GET", path, **kwargs)

    @staticmethod
    def walk(gateway, limit="4"):
        """Every page of one cursor walk as (query, wire text)."""
        pages, cursor = [], None
        while True:
            query = {"limit": limit}
            if cursor is not None:
                query["cursor"] = cursor
            status, text, _headers = gateway.handle_wire("GET", "/v1/clips", query=query)
            assert status == 200, text
            pages.append((dict(query), text))
            cursor = json.loads(text)["next_cursor"]
            if cursor is None:
                return pages

    @staticmethod
    def encoded_counts(server):
        snapshot = server.telemetry.metrics_snapshot()
        family = snapshot["counters"].get("api_encoded_responses_total", {"series": []})
        return {
            (entry["labels"]["route"], entry["labels"]["result"]): entry["value"]
            for entry in family["series"]
        }

    def test_byte_parity_first_and_repeated_reads(self):
        server, gateway = self.make_catalogue()
        first = self.walk(gateway)
        repeated = self.walk(gateway)
        assert repeated == first and len(first) == 6
        clip_ids = [f"clip-{index:02d}" for index in range(23)]
        clips_first = [self.wire(gateway, f"/v1/clips/{clip_id}") for clip_id in clip_ids]
        clips_repeated = [self.wire(gateway, f"/v1/clips/{clip_id}") for clip_id in clip_ids]
        assert clips_repeated == clips_first
        # The reference builds every body afresh: each key is read once, on a
        # gateway of its own.
        for query, text in first:
            reference = Gateway(server).request("GET", "/v1/clips", query=query)
            assert text == compact(reference.body)
        for clip_id, (status, text, headers) in zip(clip_ids, clips_first):
            reference = Gateway(server).request("GET", f"/v1/clips/{clip_id}")
            assert (status, text, headers) == (200, compact(reference.body), reference.headers)
        # Half of the misses are the reference gateways'.
        assert self.encoded_counts(server) == {
            (self.PAGE_ROUTE, "miss"): 12.0,
            (self.PAGE_ROUTE, "hit"): 6.0,
            (self.CLIP_ROUTE, "miss"): 46.0,
            (self.CLIP_ROUTE, "hit"): 23.0,
        }

    def test_writes_change_the_next_read(self):
        server, gateway = self.make_catalogue()
        walk = self.walk(gateway)
        second_query, second_page = walk[1]
        _status, clip_text, _headers = self.wire(gateway, "/v1/clips/clip-07")

        def current(path, query=None):
            status, text, _headers = self.wire(gateway, path, query=query)
            assert status == 200
            reference = Gateway(server).request("GET", path, query=query or {})
            assert text == compact(reference.body)
            return text

        # add_clip: a clip published inside the second page's range.
        server.content.add_clip(self.make_clip(40, published_s=5.5))
        after_add = current("/v1/clips", second_query)
        assert after_add != second_page and '"clip-40"' in after_add
        # replace_clip: the same clip id and cursor now carry the new title.
        server.content.replace_clip(self.make_clip(7, title="Renamed"))
        after_replace = current("/v1/clips/clip-07")
        assert after_replace != clip_text and '"Renamed"' in after_replace
        snapshot = server.snapshot()
        server.content.replace_clip(self.make_clip(7, title="Renamed again"))
        assert '"Renamed again"' in current("/v1/clips/clip-07")
        # restore_snapshot: back to the snapshot's catalogue.
        server.restore_snapshot(snapshot)
        assert current("/v1/clips/clip-07") == after_replace
        assert '"clip-40"' in current("/v1/clips", second_query)

    def test_rate_limit_still_applies_to_hits(self):
        config = GatewayConfig(
            rate_limit=RateLimitConfig(capacity=3.0, refill_per_s=1.0), clock=lambda: 0.0
        )
        _server, gateway = self.make_catalogue(config=config)
        for _ in range(3):
            assert self.wire(gateway, "/v1/clips/clip-01")[0] == 200
        status, text, headers = self.wire(gateway, "/v1/clips/clip-01")
        assert status == 429 and "rate limit" in text
        assert int(headers["retry-after"]) >= 1

    def test_auth_still_applies_to_hits(self):
        _server, gateway = self.make_catalogue(config=GatewayConfig(require_auth=True))
        token = {"authorization": f"Bearer {gateway.auth.issue('alice')}"}
        for path, query in (("/v1/clips/clip-02", None), ("/v1/clips", {"limit": "5"})):
            first = self.wire(gateway, path, query=query, headers=token)
            assert first[0] == 200
            assert self.wire(gateway, path, query=query, headers=token) == first
            assert self.wire(gateway, path, query=query)[0] == 401
            bad = {"authorization": "Bearer nope"}
            assert self.wire(gateway, path, query=query, headers=bad)[0] == 401

    def test_each_hit_is_counted_and_traced(self):
        server, gateway = self.make_catalogue()
        for _ in range(5):
            assert self.wire(gateway, "/v1/clips/clip-03")[0] == 200
            assert self.wire(gateway, "/v1/clips", query={"limit": "3"})[0] == 200
        snapshot = server.telemetry.metrics_snapshot()
        requests = {
            (entry["labels"]["route"], entry["labels"]["status_class"]): entry["value"]
            for entry in snapshot["counters"]["api_requests_total"]["series"]
        }
        assert requests == {(self.CLIP_ROUTE, "2xx"): 5.0, (self.PAGE_ROUTE, "2xx"): 5.0}
        traces = [trace["name"] for trace in server.telemetry.tracer.recent(128)]
        assert traces.count("GET /v1/clips/{clip_id}") == 5
        assert traces.count("GET /v1/clips") == 5
        assert self.encoded_counts(server) == {
            (self.CLIP_ROUTE, "miss"): 1.0,
            (self.CLIP_ROUTE, "hit"): 4.0,
            (self.PAGE_ROUTE, "miss"): 1.0,
            (self.PAGE_ROUTE, "hit"): 4.0,
        }

    def test_revalidation_404_and_400_still_run(self):
        server, gateway = self.make_catalogue()
        status, _text, headers = self.wire(gateway, "/v1/clips/clip-04")
        for _ in range(2):
            revalidated = self.wire(
                gateway, "/v1/clips/clip-04", headers={"if-none-match": headers["etag"]}
            )
            assert revalidated == (304, "{}", {"etag": headers["etag"]})
        for _ in range(2):
            assert self.wire(gateway, "/v1/clips/ghost")[0] == 404
            status, text, _headers = self.wire(gateway, "/v1/clips", query={"cursor": "bogus"})
            assert status == 400 and "cursor" in text
        # Neither the 404 nor the malformed cursor was stored or counted.
        assert self.encoded_counts(server) == {(self.CLIP_ROUTE, "miss"): 1.0}

    def test_map_stays_within_its_budget(self, monkeypatch):
        import repro.pipeline.gateway.gateway as gateway_module

        budget = 6000
        monkeypatch.setattr(gateway_module, "ENCODED_BUDGET_BYTES", budget)
        server, gateway = self.make_catalogue(clips=40)
        encoded = gateway._encoded
        distinct = 0
        for limit in ("1", "3", "8", "40"):
            for query, _text in self.walk(gateway, limit=limit):
                distinct += 1
                assert sum(len(text) for text in encoded._texts.values()) <= encoded.charged
                assert encoded.charged <= budget
        for index in range(40):
            assert self.wire(gateway, f"/v1/clips/clip-{index:02d}")[0] == 200
            distinct += 1
            assert encoded.charged <= budget
        assert len(encoded._texts) < distinct
        # Whatever was evicted reads again byte for byte.
        for query, text in self.walk(gateway, limit="3"):
            assert text == compact(Gateway(server).request("GET", "/v1/clips", query=query).body)

    def test_replica_reads_equal_the_primary_at_lag_zero(self, tmp_path):
        directory = tmp_path / "wal"
        config = ServerConfig(durability=DurabilityConfig(enabled=True, directory=str(directory)))
        primary_server = make_server(config=config)
        try:
            for index in range(12):
                primary_server.content.add_clip(self.make_clip(index))
            primary = Gateway(primary_server)
            replica = ReadReplica(directory, build_server=PphcrServer)

            def reads(front):
                clips = [
                    front.handle_wire("GET", f"/v1/clips/clip-{index:02d}")
                    for index in (0, 5, 11, 30)
                ]
                return self.walk(front, limit="5"), clips

            replica.catch_up()
            assert replica.lag_frames() == 0
            before = reads(primary)
            assert before[1][-1][0] == 404
            for _ in range(2):  # the second round reads the replica's map
                assert reads(replica) == before
            primary_server.content.add_clip(self.make_clip(30, published_s=2.5))
            replica.catch_up()
            assert replica.lag_frames() == 0
            after = reads(primary)
            assert after == reads(Gateway(primary_server))  # built afresh
            assert after != before and after[1][-1][0] == 200
            for _ in range(2):
                assert reads(replica) == after
        finally:
            primary_server.durability.close()

    def test_in_process_bodies_are_never_shared(self):
        _server, gateway = self.make_catalogue()
        for path, query in (("/v1/clips/clip-05", {}), ("/v1/clips", {"limit": "3"})):
            first = gateway.request("GET", path, query=query)
            expected = json.loads(compact(first.body))
            first.body.clear()
            second = gateway.request("GET", path, query=query)
            assert second.body == expected
            second.body["injected"] = True
            third = gateway.request("GET", path, query=query)
            assert third.body == expected and third.body is not second.body


class TestRecommendationCaching:
    def test_missing_or_bad_now_s_is_400(self, small_world):
        gateway = Gateway(small_world.server)
        user_id = small_world.commuters[0].user_id
        assert gateway.request("GET", f"/v1/recommendations/{user_id}").status == 400
        bad = gateway.request(
            "GET", f"/v1/recommendations/{user_id}", query={"now_s": "soon"}
        )
        assert bad.status == 400

    def test_unknown_user_is_404(self, small_world):
        gateway = Gateway(small_world.server)
        response = gateway.request(
            "GET", "/v1/recommendations/ghost", query={"now_s": "1000.0"}
        )
        assert response.status == 404

    def test_etag_revalidation_304(self, small_world):
        server = small_world.server
        gateway = Gateway(server)
        commuter = small_world.commuters[6]
        now_s = small_world.today_start_s + 8 * 3600.0
        first = gateway.request(
            "GET", f"/v1/recommendations/{commuter.user_id}", query={"now_s": repr(now_s)}
        )
        assert first.status == 200
        etag = first.header("etag")
        assert etag and etag.startswith('W/"rec-')
        decisions = []
        server.bus.subscribe("recommendation.decision", decisions.append)
        revalidated = gateway.request(
            "GET",
            f"/v1/recommendations/{commuter.user_id}",
            query={"now_s": repr(now_s)},
            headers={"If-None-Match": etag},
        )
        assert revalidated.status == 304
        assert revalidated.body == {}
        assert revalidated.header("etag") == etag
        # The 304 path never ran the recommender pipeline.
        assert decisions == []

    def test_etag_invalidated_by_new_fixes(self, small_world):
        server = small_world.server
        gateway = Gateway(server)
        commuter = small_world.commuters[7]
        now_s = small_world.today_start_s + 9 * 3600.0
        first = gateway.request(
            "GET", f"/v1/recommendations/{commuter.user_id}", query={"now_s": repr(now_s)}
        )
        etag = first.header("etag")
        latest = server.users.tracking.latest_fix(commuter.user_id).timestamp_s
        server.users.ingest_fix(
            GpsFix(commuter.user_id, latest + 5.0, GeoPoint(45.07, 7.68), speed_mps=3.0)
        )
        second = gateway.request(
            "GET",
            f"/v1/recommendations/{commuter.user_id}",
            query={"now_s": repr(now_s)},
            headers={"If-None-Match": etag},
        )
        assert second.status == 200
        assert second.header("etag") != etag

    def test_etag_invalidated_by_feedback(self, small_world):
        """Feedback moves the learned preferences, so a revalidating
        client must not keep getting 304s for a stale plan."""
        server = small_world.server
        gateway = Gateway(server)
        commuter = small_world.commuters[2]
        now_s = small_world.today_start_s + 11 * 3600.0
        first = gateway.request(
            "GET", f"/v1/recommendations/{commuter.user_id}", query={"now_s": repr(now_s)}
        )
        etag = first.header("etag")
        # A clip with category scores so the preference profile moves.
        clip = next(c for c in server.content.clips() if c.category_scores)
        feedback = gateway.request(
            "POST",
            "/v1/feedback",
            body={
                "user_id": commuter.user_id,
                "content_id": clip.clip_id,
                "kind": "like",
                "timestamp_s": now_s,
            },
        )
        assert feedback.status == 201
        second = gateway.request(
            "GET",
            f"/v1/recommendations/{commuter.user_id}",
            query={"now_s": repr(now_s)},
            headers={"If-None-Match": etag},
        )
        assert second.status == 200
        assert second.header("etag") != etag

    def test_etag_invalidated_across_time_buckets(self, small_world):
        gateway = Gateway(small_world.server, GatewayConfig(recommendation_ttl_s=60.0))
        commuter = small_world.commuters[0]
        now_s = small_world.today_start_s + 10 * 3600.0
        first = gateway.request(
            "GET", f"/v1/recommendations/{commuter.user_id}", query={"now_s": repr(now_s)}
        )
        later = gateway.request(
            "GET",
            f"/v1/recommendations/{commuter.user_id}",
            query={"now_s": repr(now_s + 3600.0)},
            headers={"If-None-Match": first.header("etag")},
        )
        assert later.status == 200


class TestMiddleware:
    def test_rate_limit_429_and_refill(self):
        clock = {"now": 0.0}
        config = GatewayConfig(
            rate_limit=RateLimitConfig(capacity=3.0, refill_per_s=1.0),
            clock=lambda: clock["now"],
        )
        _, gateway = make_gateway(config=config)
        for _ in range(3):
            assert gateway.request("GET", "/v1/users/alice").ok
        limited = gateway.request("GET", "/v1/users/alice")
        assert limited.status == 429
        assert int(limited.header("retry-after")) >= 1
        # Another user has their own bucket.
        other = gateway.request("GET", "/v1/users/ghost")
        assert other.status == 404
        # After the bucket refills, requests pass again.
        clock["now"] += 2.0
        assert gateway.request("GET", "/v1/users/alice").ok

    def test_auth_required(self):
        server = make_server()
        gateway = Gateway(server, GatewayConfig(require_auth=True))
        missing = gateway.request("GET", "/v1/users/alice")
        assert missing.status == 401
        assert missing.header("www-authenticate") == "Bearer"
        bad = gateway.request(
            "GET", "/v1/users/alice", headers={"Authorization": "Bearer nope"}
        )
        assert bad.status == 401
        token = gateway.auth.issue("alice")
        ok = gateway.request(
            "GET", "/v1/users/alice", headers={"Authorization": f"Bearer {token}"}
        )
        assert ok.ok
        gateway.auth.revoke(token)
        revoked = gateway.request(
            "GET", "/v1/users/alice", headers={"Authorization": f"Bearer {token}"}
        )
        assert revoked.status == 401

    def test_metrics_published_and_counted(self):
        server, gateway = make_gateway()

        def bus_published():
            counters = server.telemetry.metrics_snapshot()["counters"]
            return counters["bus_published_total"]["series"]

        before = bus_published()
        gateway.request("GET", "/v1/users/alice")
        gateway.request("GET", "/v1/users/ghost")
        gateway.request("GET", "/v1/bogus")
        # The registry is the gateway's only request counter; nothing is
        # published on the bus per request.
        assert bus_published() == before
        snapshot = server.telemetry.metrics_snapshot()
        statuses = {
            (entry["labels"]["route"], entry["labels"]["status_class"]): entry["value"]
            for entry in snapshot["counters"]["api_requests_total"]["series"]
        }
        assert statuses == {
            ("GET /v1/users/{user_id}", "2xx"): 1.0,
            ("GET /v1/users/{user_id}", "4xx"): 1.0,
            ("<unmatched>", "4xx"): 1.0,
        }
        latency = {
            entry["labels"]["route"]: entry["count"]
            for entry in snapshot["histograms"]["api_request_seconds"]["series"]
        }
        assert latency == {"GET /v1/users/{user_id}": 2, "<unmatched>": 1}

    @staticmethod
    def _user_context(user_id):
        return RequestContext(
            request=ApiRequest("GET", f"/v1/users/{user_id}"),
            route=None,
            path_params={"user_id": user_id},
        )

    def test_rate_limiter_forgets_refilled_buckets(self):
        # One GET per path id of a user that does not exist, 1 ms apart on
        # the monotonic clock: each bucket refills within 9 ms, so sweeps
        # keep the map small instead of one entry per anonymous caller.
        clock = {"now": 0.0}
        limiter = RateLimiter(RateLimitConfig(), clock=lambda: clock["now"])
        not_found = ApiResponse(status=404, body={"error": "no such user"})
        for index in range(5000):
            clock["now"] += 0.001
            response = limiter.admit(self._user_context(f"ghost-{index}")) or not_found
            assert response.status == 404
        assert len(limiter._buckets) <= 256

    def test_rate_limiter_sweeps_change_no_decision(self):
        class NeverSweeps(RateLimiter):
            def _sweep(self, now_s):
                pass

        rng = random.Random(20)
        clock = {"now": 0.0}
        config = RateLimitConfig(capacity=3.0, refill_per_s=1.0)
        sweeping = RateLimiter(config, clock=lambda: clock["now"])
        reference = NeverSweeps(config, clock=lambda: clock["now"])
        ok = ApiResponse(status=200, body={})
        hot = [f"listener-{index}" for index in range(5)]
        warm = [f"listener-{index}" for index in range(5, 105)]
        decisions = {"sweeping": [], "reference": []}
        revived = 0  # requests from a caller whose bucket a sweep dropped
        for index in range(6000):
            clock["now"] += rng.choices(
                (0.0, 0.001, 0.01, 0.05, 0.2, 4.0), weights=(30, 30, 20, 10, 9, 1)
            )[0]
            draw = rng.random()
            if draw < 0.4:
                user_id = rng.choice(hot)
            elif draw < 0.7:
                user_id = rng.choice(warm)
            else:
                user_id = f"ghost-{index}"
            revived += user_id in reference._buckets and user_id not in sweeping._buckets
            for name, limiter in (("sweeping", sweeping), ("reference", reference)):
                response = limiter.admit(self._user_context(user_id)) or ok
                decisions[name].append((response.status, response.header("retry-after")))
        assert decisions["sweeping"] == decisions["reference"]
        assert sum(status == 429 for status, _ in decisions["sweeping"]) > 100
        assert revived > 10
        assert len(sweeping._buckets) < 256 < len(reference._buckets)

    def test_api_keys_are_unguessable(self):
        registry = ApiKeyRegistry()
        tokens = [registry.issue("alice") for _ in range(50)] + [registry.issue("bob")]
        assert len(set(tokens)) == len(tokens)
        for token in tokens:
            assert len(token) >= 32
            assert re.fullmatch(r"apikey-\d+", token) is None
        assert registry.principal_for(tokens[0]) == "alice"
        assert registry.principal_for(tokens[-1]) == "bob"


class TestRequestPath:
    """What the order of the per-request checks guarantees.

    Every request runs trace -> latency and status counters -> error
    mapping -> auth -> rate limit -> route; each test pins one consequence
    of that order.
    """

    ROUTE = "GET /v1/users/{user_id}"

    @staticmethod
    def _gateway():
        # Two tokens per caller and a frozen clock: nothing refills.
        config = GatewayConfig(
            require_auth=True,
            rate_limit=RateLimitConfig(capacity=2.0, refill_per_s=1.0),
            clock=lambda: 0.0,
        )
        server, gateway = make_gateway(config=config)
        server.register_user(UserProfile(user_id="bob", display_name="Bob"))
        return server, gateway

    @staticmethod
    def _bearer(gateway, principal):
        return {"Authorization": f"Bearer {gateway.auth.issue(principal)}"}

    @staticmethod
    def _counted(server):
        snapshot = server.telemetry.metrics_snapshot()
        statuses = {
            (entry["labels"]["route"], entry["labels"]["status_class"]): entry["value"]
            for entry in snapshot["counters"]["api_requests_total"]["series"]
        }
        latency = {
            entry["labels"]["route"]: entry["count"]
            for entry in snapshot["histograms"]["api_request_seconds"]["series"]
        }
        return statuses, latency

    def test_a_401_spends_no_rate_limit_token(self):
        _server, gateway = self._gateway()
        token = self._bearer(gateway, "alice")
        bad = {"Authorization": "Bearer nope"}
        for _ in range(5):
            assert gateway.request("GET", "/v1/users/alice").status == 401
            assert gateway.request("GET", "/v1/users/alice", headers=bad).status == 401
        # The rejected requests named alice's path but spent nothing, so
        # her bucket still admits exactly its capacity.
        statuses = [
            gateway.request("GET", "/v1/users/alice", headers=token).status
            for _ in range(3)
        ]
        assert statuses == [200, 200, 429]

    def test_401_and_429_are_counted_once_and_traced_with_their_status(self):
        server, gateway = self._gateway()
        token = self._bearer(gateway, "alice")
        assert gateway.request("GET", "/v1/users/alice").status == 401
        statuses = [
            gateway.request("GET", "/v1/users/alice", headers=token).status
            for _ in range(3)
        ]
        assert statuses == [200, 200, 429]
        assert self._counted(server) == (
            {(self.ROUTE, "4xx"): 2.0, (self.ROUTE, "2xx"): 2.0},
            {self.ROUTE: 4},
        )
        traces = list(reversed(server.telemetry.tracer.recent(10)))
        assert [(trace["name"], trace["tags"]["status"]) for trace in traces] == [
            (self.ROUTE, 401),
            (self.ROUTE, 200),
            (self.ROUTE, 200),
            (self.ROUTE, 429),
        ]

    def test_a_valid_tokens_principal_keys_the_bucket(self):
        _server, gateway = self._gateway()
        alice = self._bearer(gateway, "alice")
        # alice's token spends alice's bucket whichever user the path names.
        assert gateway.request("GET", "/v1/users/alice", headers=alice).status == 200
        assert gateway.request("GET", "/v1/users/bob", headers=alice).status == 200
        assert gateway.request("GET", "/v1/users/bob", headers=alice).status == 429
        # bob's own token draws on a bucket nothing has touched yet.
        bob = self._bearer(gateway, "bob")
        assert gateway.request("GET", "/v1/users/bob", headers=bob).status == 200
        assert gateway.request("GET", "/v1/users/alice", headers=bob).status == 200

    def test_a_programming_error_propagates_traced_and_uncounted(self):
        server, gateway = make_gateway()

        def broken(ctx):
            raise KeyError("not a ReproError")

        gateway._routes.add(Route("GET", "/v1/_broken", broken))
        with pytest.raises(KeyError):
            gateway.request("GET", "/v1/_broken")
        (trace,) = server.telemetry.tracer.recent(10)
        assert trace["name"] == "GET /v1/_broken"
        assert "KeyError" in trace["tags"]["error"]
        assert "status" not in trace["tags"]
        assert self._counted(server) == ({}, {})


class TestErrorTaxonomyWire:
    """Every ReproError subclass maps to its documented wire status.

    A throwaway route raises each class through the full request path,
    so the assertion covers the real dispatch path — not map_error in
    isolation.  The expectation table doubles as a completeness check:
    a new subclass in repro.errors fails here (and in the
    error-mapping-coverage lint) until a status is decided.
    """

    EXPECTED = {
        errors.ValidationError: 400,
        errors.QueryError: 400,
        errors.GeometryError: 400,
        errors.NotFoundError: 404,
        errors.DuplicateError: 409,
        errors.DeliveryError: 409,
        errors.TrajectoryError: 422,
        errors.PredictionError: 422,
        errors.SchedulingError: 422,
        errors.ClassificationError: 503,
        errors.SchemaError: 500,
        errors.ConfigurationError: 500,
        errors.PipelineError: 500,
    }

    @staticmethod
    def _taxonomy():
        return {
            obj
            for obj in vars(errors).values()
            if isinstance(obj, type)
            and issubclass(obj, errors.ReproError)
            and obj is not errors.ReproError
        }

    def test_expectation_table_covers_the_whole_taxonomy(self):
        assert self._taxonomy() == set(self.EXPECTED)

    def test_statuses_over_the_wire(self):
        _, gateway = make_gateway()
        for exc_type in self.EXPECTED:

            def boom(ctx, _exc=exc_type):
                raise _exc("boom")

            gateway._routes.add(
                Route("GET", f"/v1/_boom/{exc_type.__name__}", boom)
            )
        for exc_type, expected in self.EXPECTED.items():
            status, body, _headers = gateway.handle_wire(
                "GET", f"/v1/_boom/{exc_type.__name__}"
            )
            assert status == expected, exc_type.__name__
            assert json.loads(body)["error"] == "boom"

    def test_unknown_subclass_falls_back_to_500(self):
        class MysteryError(errors.ReproError):
            pass

        _, gateway = make_gateway()

        def boom(ctx):
            raise MysteryError("boom")

        gateway._routes.add(Route("GET", "/v1/_boom/mystery", boom))
        status, _body, _headers = gateway.handle_wire("GET", "/v1/_boom/mystery")
        assert status == 500


class TestWireLevel:
    def test_json_roundtrip(self):
        _, gateway = make_gateway()
        status, body, _headers = gateway.handle_wire(
            "POST",
            "/v1/tracking",
            json.dumps({"user_id": "alice", "lat": 45.07, "lon": 7.68, "timestamp_s": 1.0}),
        )
        assert status == 202
        assert json.loads(body) == {"stored": True}

    def test_malformed_json_is_400(self):
        _, gateway = make_gateway()
        status, body, _headers = gateway.handle_wire("POST", "/v1/tracking", "{not json")
        assert status == 400
        assert "malformed JSON" in json.loads(body)["error"]
        status, _body, _headers = gateway.handle_wire("POST", "/v1/tracking", "[1, 2]")
        assert status == 400

    def test_all_route_bodies_are_json_serializable(self, small_world):
        gateway = Gateway(small_world.server)
        user_id = small_world.commuters[0].user_id
        now_s = small_world.today_start_s + 8 * 3600.0
        for method, path, query in [
            ("GET", f"/v1/users/{user_id}", None),
            ("GET", "/v1/services", None),
            ("GET", "/v1/clips", None),
            ("GET", f"/v1/recommendations/{user_id}", {"now_s": repr(now_s)}),
        ]:
            status, body, _headers = gateway.handle_wire(method, path, None, query=query)
            assert status == 200
            json.loads(body)


class TestMaintenanceTick:
    def test_round_robin_covers_all_shards(self):
        config = ServerConfig(sharding=ShardingConfig(shards=4))
        server = PphcrServer(config=config)
        shard_count = config.sharding.shards
        assert server.maintenance_shard == 0
        seen = []
        for _ in range(shard_count + 1):
            seen.append(server.maintenance_tick()["shard"])
        assert seen == [0, 1, 2, 3, 0]
        assert server.maintenance_shard == 1

    def test_tick_compacts_only_its_shard(self):
        config = ServerConfig(sharding=ShardingConfig(shards=2))
        server = PphcrServer(config=config)
        users = [f"user-{index}" for index in range(8)]
        for user_id in users:
            server.register_user(UserProfile(user_id=user_id, display_name=user_id))
            for fix in drive_fixes(12):
                server.users.ingest_fix(
                    GpsFix(user_id, fix["timestamp_s"], GeoPoint(fix["lat"], fix["lon"]), speed_mps=fix["speed_mps"])
                )
        by_shard = {0: set(), 1: set()}
        for user_id in users:
            by_shard[server.users.shard_of(user_id)].add(user_id)
        # Two ticks cover both shards; each pass reports only its shard.
        compacted = []
        server.bus.subscribe("tracking.compacted", compacted.append)
        first = server.maintenance_tick()
        second = server.maintenance_tick()
        assert first["shard"] == 0 and second["shard"] == 1
        assert [message.body["shard"] for message in compacted] == [0, 1]
        assert not server.compactor.dirty_users()
