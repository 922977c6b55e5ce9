"""The public API gateway: routed, versioned front door to the server.

The seed modelled the paper's "Public Rest API Server" as a flat bag of
hand-written methods with ad-hoc error mapping.  The gateway replaces that
with a declarative subsystem:

* a **route table** — every ``/v1`` endpoint is one :class:`Route` entry
  (method, path template, handler, request schema) registered in
  :meth:`Gateway._register_routes`;
* **one request path** — :meth:`Gateway.handle` runs every request
  straight through a trace and the request latency and status counters
  (when telemetry is enabled), the single exception→status mapper, the
  auth token check and per-user token-bucket rate limiting, in that
  order (see :mod:`repro.pipeline.gateway.middleware`);
* **batch ingest** — ``POST /v1/tracking/batch`` carries a buffered drive's
  worth of fixes into :meth:`UserManager.ingest_fixes(skip_stale=True)
  <repro.users.management.UserManager.ingest_fixes>` in one request (an
  envelope ``user_id`` keeps the legacy single-user form; without one,
  per-item ``user_id`` fields let one request carry many users' drives,
  validated as a whole before any fix is written),
  and ``POST /v1/feedback/batch`` records many feedback events with
  per-item error reporting;
* **paginated + cacheable reads** — keyset-cursor pagination on the
  service and clip listings *and* the per-user feedback/tracking history
  reads (``GET /v1/users/{user}/feedback`` / ``.../tracking``, thin
  delegations to the storage engine's
  :class:`~repro.storage.cursor.Page` cursors), plus ``ETag``/304
  revalidation on recommendations keyed by the streaming-model epoch
  (see :meth:`PphcrServer.model_freshness
  <repro.pipeline.server.PphcrServer.model_freshness>`) and on profile
  and clip reads keyed by storage-table ``version`` counters, so a
  client that polls while nothing changed never pays for a recommender
  tick or a body rebuild;
* **encode-once clip reads** — the JSON text of each ``GET /v1/clips``
  and ``GET /v1/clips/{clip_id}`` 200 is kept in a bounded map keyed by
  the same inputs as the clip ETag (route, clip id or cursor and page
  limit, clip-table version), so a repeated read skips the repository,
  the body build and the encoder, while the request path and the ETag
  check still run per request.
"""

from __future__ import annotations

import json
import sys
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import NotFoundError, ReproError, ValidationError
from repro.geo import GeoPoint
from repro.storage import Page as StoragePage
from repro.pipeline.gateway.http import ApiRequest, ApiResponse, encode_body
from repro.pipeline.gateway.middleware import (
    ApiKeyRegistry,
    RateLimitConfig,
    RateLimiter,
    authenticate,
    map_error,
)
from repro.pipeline.gateway.routing import RequestContext, Route, RouteTable
from repro.pipeline.gateway.schema import Field, Number, RequestSchema
from repro.spatialdb import GpsFix
from repro.users.feedback import FeedbackKind
from repro.users.profile import UserProfile
from repro.util.validation import require_finite, require_in_range, require_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.server import PphcrServer


def _finite(name: str) -> Callable[[float], float]:
    return lambda value: require_finite(value, name)


def _in_range(name: str, low: float, high: float) -> Callable[[float], float]:
    return lambda value: require_in_range(value, low, high, name)


def _non_negative(name: str) -> Callable[[float], float]:
    return lambda value: require_positive(value, name, strict=False)


def _positive(name: str) -> Callable[[float], float]:
    return lambda value: require_positive(value, name)


def _non_empty_list(name: str) -> Callable[[list], list]:
    def check(value: list) -> list:
        if not value:
            raise ValidationError(f"{name} must not be empty")
        return value

    return check


#: One GPS fix as it appears on the wire (shared by the single and batch
#: tracking endpoints; the batch envelope carries the user once).
FIX_FIELDS = (
    Field("lat", Number, validator=_in_range("lat", -90.0, 90.0)),
    Field("lon", Number, validator=_in_range("lon", -180.0, 180.0)),
    Field("timestamp_s", Number, validator=_finite("timestamp_s")),
    Field("speed_mps", Number, required=False, default=0.0, validator=_non_negative("speed_mps")),
    Field("accuracy_m", Number, required=False, default=10.0, validator=_positive("accuracy_m")),
)

FIX_SCHEMA = RequestSchema(fields=FIX_FIELDS)

#: One feedback event as it appears on the wire.
FEEDBACK_FIELDS = (
    Field("user_id", str),
    Field("content_id", str),
    Field("kind", str),
    Field("timestamp_s", Number, validator=_finite("timestamp_s")),
    Field("listened_s", Number, required=False, default=0.0, validator=_non_negative("listened_s")),
    Field("is_clip", bool, required=False, default=True),
)

FEEDBACK_SCHEMA = RequestSchema(fields=FEEDBACK_FIELDS)

#: Memory budget of one gateway's encoded-body map, in bytes.  Each entry
#: is charged the size of its JSON text and of the client-supplied string
#: in its key (clip id or cursor), plus :data:`_ENTRY_OVERHEAD`, so the
#: constant bounds the map's memory keys included.  The oldest entries are
#: evicted first.  ``browse``-shaped traffic (a 1,500-clip catalogue read
#: by page and by clip) keeps about 1.1 MB of entries live.
ENCODED_BUDGET_BYTES = 2 << 20

#: Bytes an entry holds besides its two strings: the ordered map's slot
#: and node, the key tuple and its version integer.  ``tracemalloc`` read
#: 162-275 bytes, the most after eviction churn has grown the map's table.
_ENTRY_OVERHEAD = 280

#: (route name, clip id or cursor, page limit, clip-table version).
EncodedKey = Tuple[str, Optional[str], int, int]


def _charge(key: EncodedKey, text: str) -> int:
    return sys.getsizeof(text) + sys.getsizeof(key[1]) + _ENTRY_OVERHEAD


class _EncodedBodies:
    """The encoded text of repeated 200 bodies, oldest evicted first.

    A key carries every input its body depends on, storage version
    included, so a write changes the key instead of invalidating an
    entry; superseded entries age out.  Values are text only: no caller
    ever receives a shared dict.
    """

    def __init__(self) -> None:
        self._texts: "OrderedDict[EncodedKey, str]" = OrderedDict()
        self.charged = 0

    def get(self, key: EncodedKey) -> Optional[str]:
        return self._texts.get(key)

    def put(self, key: EncodedKey, text: str) -> None:
        charge = _charge(key, text)
        if charge > ENCODED_BUDGET_BYTES:
            return  # e.g. a huge client cursor: served, never stored
        texts = self._texts
        while self.charged + charge > ENCODED_BUDGET_BYTES:
            self.charged -= _charge(*texts.popitem(last=False))
        texts[key] = text
        self.charged += charge


#: Page size of the paginated reads when a request names no ``limit``, and
#: the largest ``limit`` they honour.
DEFAULT_PAGE_LIMIT = 50
MAX_PAGE_LIMIT = 200


@dataclass(frozen=True)
class GatewayConfig:
    """Tunable parameters of the gateway.

    ``rate_limit`` is applied per caller (principal or subject user);
    ``recommendation_ttl_s`` is the width of the time bucket folded into
    recommendation ETags — within one bucket, an unchanged mobility model
    revalidates to 304.  ``clock`` (monotonic seconds) is injectable so
    rate-limit tests are deterministic.
    """

    require_auth: bool = False
    rate_limit: RateLimitConfig = RateLimitConfig()
    recommendation_ttl_s: float = 60.0
    clock: Optional[Callable[[], float]] = None


class Gateway:
    """Dispatches :class:`ApiRequest` objects down one checked path to routes."""

    def __init__(
        self,
        server: "PphcrServer",
        config: GatewayConfig = GatewayConfig(),
        *,
        auth: Optional[ApiKeyRegistry] = None,
    ) -> None:
        self._server = server
        self._config = config
        self._auth = auth if auth is not None else ApiKeyRegistry()
        self._limiter = RateLimiter(config.rate_limit, clock=config.clock)
        self._routes = RouteTable()
        self._register_routes()
        self._telemetry = server.telemetry
        metrics = self._telemetry.metrics
        # The gateway's only request counters: the ops endpoints, the
        # dashboard and the tests all read them.
        self._latency = metrics.histogram(
            "api_request_seconds",
            "Gateway request latency by route",
            labels=("route",),
        )
        self._statuses = metrics.counter(
            "api_requests_total",
            "Gateway requests by route and status class",
            labels=("route", "status_class"),
        )
        self._encoded = _EncodedBodies()
        self._encoded_results = metrics.counter(
            "api_encoded_responses_total",
            "Clip and clip-page 200s served from the encoded-body map (hit) "
            "or built and encoded (miss)",
            labels=("route", "result"),
        )
        # Resolved series are cached, per (route, status) and per (route,
        # result), so the hot path pays one dict lookup, not labels()
        # validations, per record.
        self._request_series: Dict[Tuple[str, int], Tuple[Any, Any]] = {}
        self._encoded_series: Dict[Tuple[str, str], Any] = {}

    # Component access -----------------------------------------------------

    @property
    def config(self) -> GatewayConfig:
        """The gateway configuration."""
        return self._config

    @property
    def auth(self) -> ApiKeyRegistry:
        """The token registry (issue/revoke API keys here)."""
        return self._auth

    @property
    def routes(self) -> List[Route]:
        """The declarative route table."""
        return self._routes.routes()

    # Entry points ---------------------------------------------------------

    def handle(self, request: ApiRequest, *, wire: bool = False) -> ApiResponse:
        """Run one request down the gateway's single path to its route.

        With telemetry enabled, a trace named after the matched route and
        the request's latency and status counters wrap :meth:`_dispatch`
        (error mapping, auth, rate limit, route), so every response, a 401
        or 429 included, is timed, counted and traced with its status.  An
        exception outside :class:`ReproError` propagates uncounted, and
        its trace carries an ``error`` tag.

        A clip read served from the encoded-body map answers with its wire
        text alone.  With ``wire`` (:meth:`handle_wire`, which sends that
        text as is) the response stays text-only; otherwise the text is
        decoded into a fresh ``body``, so in-process callers never share a
        dict.
        """
        match = self._routes.match(request.method, request.path)
        if match is None:
            ctx = RequestContext(request=request, route=None)
            route_name, route_path = "<unmatched>", request.path
        else:
            ctx = RequestContext(request=request, route=match[0], path_params=match[1])
            route_name, route_path = match[0].name, match[0].path
        if not self._telemetry.enabled:
            response = self._dispatch(ctx)
        else:
            with self._telemetry.tracer.trace(
                f"{request.method} {route_path}", method=request.method, path=request.path
            ) as trace:
                start = time.perf_counter()
                response = self._dispatch(ctx)
                self._count_request(route_name, response.status, time.perf_counter() - start)
                trace.set_tag("status", response.status)
        if not wire and response.text is not None and not response.body:
            response = replace(response, body=json.loads(response.text))
        return response

    def request(
        self,
        method: str,
        path: str,
        *,
        body: Optional[Dict[str, Any]] = None,
        query: Optional[Dict[str, str]] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> ApiResponse:
        """Convenience wrapper building the :class:`ApiRequest` inline."""
        return self.handle(
            ApiRequest(
                method=method,
                path=path,
                body=body if body is not None else {},
                query=query if query is not None else {},
                headers=headers if headers is not None else {},
            )
        )

    def handle_wire(
        self,
        method: str,
        path: str,
        body_json: Optional[str] = None,
        *,
        query: Optional[Dict[str, str]] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, str, Dict[str, str]]:
        """Wire-level entry point: JSON text in, JSON text out.

        What an HTTP server in front of the gateway would do per request:
        parse the request body, dispatch, serialize the response body.
        Malformed JSON maps to 400 without touching a route.  Returns
        ``(status, body_json, headers)``; also serves as the guarantee that
        every response body is JSON-serializable.
        """
        if body_json:
            try:
                body = json.loads(body_json)
            except json.JSONDecodeError as exc:
                error = f"malformed JSON body: {exc.msg}"
                return 400, json.dumps({"error": error}), {}
            if not isinstance(body, dict):
                return 400, json.dumps({"error": "request body must be a JSON object"}), {}
        else:
            body = {}
        response = self.handle(
            ApiRequest(
                method=method,
                path=path,
                body=body,
                query=query if query is not None else {},
                headers=headers if headers is not None else {},
            ),
            wire=True,
        )
        text = response.text if response.text is not None else encode_body(response.body)
        return response.status, text, response.headers

    # Dispatch -------------------------------------------------------------

    def _dispatch(self, ctx: RequestContext) -> ApiResponse:
        """:func:`map_error` around auth, the rate limit and the route.

        :func:`authenticate` runs before :meth:`RateLimiter.admit`, so a
        401 spends no rate-limit token.  Only :class:`ReproError` maps to
        a status; anything else is a programming error and propagates.
        """
        try:
            response = authenticate(ctx, self._auth, required=self._config.require_auth)
            if response is None:
                response = self._limiter.admit(ctx)
            if response is not None:
                return response
            route = ctx.route
            if route is None:
                allowed = self._routes.allowed_methods(ctx.request.path)
                if allowed:
                    return ApiResponse(
                        status=405,
                        body={"error": f"method {ctx.request.method} not allowed"},
                        headers={"allow": ", ".join(allowed)},
                    )
                return ApiResponse(
                    status=404, body={"error": f"no route for {ctx.request.path!r}"}
                )
            if route.request_schema is not None:
                ctx.data = route.request_schema.validate(ctx.request.body)
            return route.handler(ctx)
        except ReproError as exc:
            return map_error(exc)

    def _register_routes(self) -> None:
        add = self._routes.add
        add(
            Route(
                "POST",
                "/v1/users",
                self._create_user,
                request_schema=RequestSchema(
                    fields=(Field("user_id", str), Field("display_name", str)),
                    allow_extra=True,
                ),
            )
        )
        add(Route("GET", "/v1/users/{user_id}", self._get_profile))
        add(Route("GET", "/v1/users/{user_id}/feedback", self._get_feedback_history))
        add(Route("GET", "/v1/users/{user_id}/tracking", self._get_tracking_history))
        add(Route("POST", "/v1/feedback", self._post_feedback, request_schema=FEEDBACK_SCHEMA))
        add(
            Route(
                "POST",
                "/v1/feedback/batch",
                self._post_feedback_batch,
                request_schema=RequestSchema(
                    fields=(Field("events", list, validator=_non_empty_list("events")),)
                ),
            )
        )
        add(
            Route(
                "POST",
                "/v1/tracking",
                self._post_tracking,
                request_schema=RequestSchema(fields=(Field("user_id", str),) + FIX_FIELDS),
            )
        )
        add(
            Route(
                "POST",
                "/v1/tracking/batch",
                self._post_tracking_batch,
                request_schema=RequestSchema(
                    fields=(
                        Field("user_id", str, required=False, default=None),
                        Field("fixes", list, validator=_non_empty_list("fixes")),
                    )
                ),
            )
        )
        add(Route("GET", "/v1/users", self._list_users))
        add(Route("GET", "/v1/services", self._list_services))
        add(Route("GET", "/v1/clips", self._list_clips))
        add(Route("GET", "/v1/clips/{clip_id}", self._get_clip))
        add(Route("GET", "/v1/recommendations/{user_id}", self._get_recommendations))
        add(Route("GET", "/v1/ops/metrics", self._get_ops_metrics))
        add(Route("GET", "/v1/ops/traces", self._get_ops_traces))

    # Shared helpers -------------------------------------------------------

    def _page_limit(self, ctx: RequestContext) -> int:
        raw = ctx.request.query.get("limit")
        if raw is None:
            return DEFAULT_PAGE_LIMIT
        try:
            limit = int(raw)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"limit must be an integer, got {raw!r}") from exc
        if limit < 1:
            raise ValidationError(f"limit must be >= 1, got {limit}")
        return min(limit, MAX_PAGE_LIMIT)

    @staticmethod
    def _fix_from(user_id: str, data: Dict[str, Any]) -> GpsFix:
        return GpsFix(
            user_id,
            data["timestamp_s"],
            GeoPoint(data["lat"], data["lon"]),
            speed_mps=data["speed_mps"],
            accuracy_m=data["accuracy_m"],
        )

    def _encoded_response(
        self,
        key: EncodedKey,
        text: Optional[str],
        build: Callable[[], Dict[str, Any]],
        headers: Dict[str, str],
    ) -> ApiResponse:
        """A 200 whose body depends only on ``key``: encoded once, then reused.

        ``text`` is what the encoded-body map holds for ``key``.  A hit
        answers with it alone (see :meth:`handle`); a miss calls ``build``,
        encodes its body and stores the text; a ``build`` that raises
        stores and counts nothing.
        """
        if text is not None:
            self._count_encoded(key[0], "hit")
            return ApiResponse(status=200, headers=headers, text=text)
        body = build()
        text = encode_body(body)
        self._encoded.put(key, text)
        self._count_encoded(key[0], "miss")
        return ApiResponse(status=200, body=body, headers=headers, text=text)

    def _count_request(self, route_name: str, status: int, elapsed_s: float) -> None:
        series = self._request_series.get((route_name, status))
        if series is None:
            series = (
                self._latency.labels(route=route_name),
                self._statuses.labels(route=route_name, status_class=f"{status // 100}xx"),
            )
            self._request_series[(route_name, status)] = series
        series[0].record(elapsed_s)
        series[1].inc()

    def _count_encoded(self, route_name: str, result: str) -> None:
        series = self._encoded_series.get((route_name, result))
        if series is None:
            series = self._encoded_results.labels(route=route_name, result=result)
            self._encoded_series[(route_name, result)] = series
        series.inc()

    @staticmethod
    def _feedback_kind(raw: str) -> FeedbackKind:
        try:
            return FeedbackKind(raw)
        except ValueError:
            raise ValidationError(f"unknown feedback kind {raw!r}") from None

    # Users ----------------------------------------------------------------

    def _create_user(self, ctx: RequestContext) -> ApiResponse:
        details = dict(ctx.data)
        user_id = details.pop("user_id")
        display_name = details.pop("display_name")
        # The extra body fields are client-controlled: unknown or mistyped
        # keyword arguments must surface as a 400, never as an uncaught
        # TypeError escaping the exception mapper.
        try:
            profile = UserProfile(user_id=user_id, display_name=display_name, **details)
        except TypeError as exc:
            raise ValidationError(f"invalid profile fields: {exc}") from None
        self._server.register_user(profile)
        return ApiResponse(status=201, body={"user_id": user_id})

    def _list_users(self, ctx: RequestContext) -> ApiResponse:
        """One id-ordered page of registered users.

        Backed by the shard router's merged keyset walk
        (:meth:`UserManager.users_page
        <repro.users.management.UserManager.users_page>`): the listing is
        globally ordered however many shards the deployment runs, and the
        cursor is an opaque resume handle (its encoding is shard-layout
        specific — treat it as a token, not a position).
        """
        page = self._server.users.users_page(
            cursor=ctx.request.query.get("cursor"), limit=self._page_limit(ctx)
        )
        return ApiResponse(
            status=200,
            body={
                "users": [
                    {"user_id": profile.user_id, "display_name": profile.display_name}
                    for profile in page.items
                ],
                "next_cursor": page.next_token,
            },
        )

    def _get_profile(self, ctx: RequestContext) -> ApiResponse:
        user_id = ctx.path_params["user_id"]
        profile = self._server.users.profile(user_id)
        preferences = self._server.users.preference_profile(user_id)
        # Weak ETag on storage-level change counters: the profiles table
        # version moves on any registration/profile write, the observation
        # count on any learning update that would change the body.  Both
        # are O(1) reads, so a 304 costs two integer compares.
        etag = (
            f'W/"profile-{user_id}:'
            f'{self._server.users.profiles_version}.{preferences.observation_count}"'
        )
        if ctx.request.header("if-none-match") in (etag, "*"):
            return ApiResponse(status=304, headers={"etag": etag})
        return ApiResponse(
            status=200,
            body={
                "user_id": profile.user_id,
                "display_name": profile.display_name,
                "top_categories": preferences.top_categories(5),
                "observations": preferences.observation_count,
            },
            headers={"etag": etag},
        )

    def _get_feedback_history(self, ctx: RequestContext) -> ApiResponse:
        user_id = ctx.path_params["user_id"]
        self._server.users.profile(user_id)  # 404 before touching the store
        page = self._server.users.feedback.events_page_for_user(
            user_id,
            cursor=ctx.request.query.get("cursor"),
            limit=self._page_limit(ctx),
        )
        return ApiResponse(
            status=200,
            body={
                "user_id": user_id,
                "events": [
                    {
                        "event_id": event.event_id,
                        "content_id": event.content_id,
                        "kind": event.kind.value,
                        "timestamp_s": event.timestamp_s,
                        "listened_s": event.listened_s,
                        "is_clip": event.is_clip,
                    }
                    for event in page.items
                ],
                "next_cursor": page.next_token,
            },
        )

    def _get_tracking_history(self, ctx: RequestContext) -> ApiResponse:
        user_id = ctx.path_params["user_id"]
        self._server.users.profile(user_id)  # 404 before touching the store
        try:
            page = self._server.users.tracking.fixes_page(
                user_id,
                cursor=ctx.request.query.get("cursor"),
                limit=self._page_limit(ctx),
            )
        except NotFoundError:
            # Registered user, no fixes yet: an empty history, not a 404.
            page = StoragePage(items=[], next_token=None)
        return ApiResponse(
            status=200,
            body={
                "user_id": user_id,
                "fixes": [
                    {
                        "timestamp_s": fix.timestamp_s,
                        "lat": fix.position.lat,
                        "lon": fix.position.lon,
                        "speed_mps": fix.speed_mps,
                        "accuracy_m": fix.accuracy_m,
                    }
                    for fix in page.items
                ],
                "next_cursor": page.next_token,
            },
        )

    # Feedback -------------------------------------------------------------

    def _record_feedback(self, data: Dict[str, Any]):
        kind = self._feedback_kind(data["kind"])
        return self._server.users.record_feedback(
            data["user_id"],
            data["content_id"],
            kind,
            timestamp_s=data["timestamp_s"],
            listened_s=data["listened_s"],
            is_clip=data["is_clip"],
        )

    def _post_feedback(self, ctx: RequestContext) -> ApiResponse:
        event = self._record_feedback(ctx.data)
        return ApiResponse(status=201, body={"event_id": event.event_id})

    def _post_feedback_batch(self, ctx: RequestContext) -> ApiResponse:
        event_ids: List[str] = []
        failed: List[Dict[str, Any]] = []
        for index, raw in enumerate(ctx.data["events"]):
            try:
                event = self._record_feedback(FEEDBACK_SCHEMA.validate(raw))
            except ReproError as exc:
                error = map_error(exc)
                failed.append(
                    {"index": index, "status": error.status, "error": error.body["error"]}
                )
                continue
            event_ids.append(event.event_id)
        body = {"recorded": len(event_ids), "event_ids": event_ids, "failed": failed}
        return ApiResponse(status=201 if not failed else 200, body=body)

    # Tracking -------------------------------------------------------------

    def _post_tracking(self, ctx: RequestContext) -> ApiResponse:
        fix = self._fix_from(ctx.data["user_id"], ctx.data)
        self._server.users.ingest_fix(fix)
        return ApiResponse(status=202, body={"stored": True})

    def _post_tracking_batch(self, ctx: RequestContext) -> ApiResponse:
        user_id = ctx.data["user_id"]
        if user_id is not None:
            self._server.users.profile(user_id)  # 404 before any fix is parsed
        # Lean per-item validation: the GpsFix/GeoPoint constructors enforce
        # the same preconditions the wire schema would (finite timestamp,
        # coordinate ranges, non-negative speed), so batch items skip the
        # schema machinery and go straight to the model types; any
        # construction failure still maps to a 400 with the item index.
        #
        # Without an envelope user each item names its own owner — one
        # request can carry many users' drives.  All owners are resolved
        # (404) before a single fix is stored, so a failed request never
        # half-ingests.
        fixes: List[GpsFix] = []
        owners: set = set()
        for index, raw in enumerate(ctx.data["fixes"]):
            owner = user_id
            if owner is None:
                owner = raw.get("user_id") if isinstance(raw, dict) else None
                if not isinstance(owner, str):
                    raise ValidationError(
                        f"fixes[{index}]: user_id is required when the "
                        "request has no envelope user_id"
                    )
            try:
                fixes.append(
                    GpsFix(
                        owner,
                        raw["timestamp_s"],
                        GeoPoint(raw["lat"], raw["lon"]),
                        speed_mps=raw.get("speed_mps", 0.0),
                        accuracy_m=raw.get("accuracy_m", 10.0),
                    )
                )
            except (ReproError, KeyError, TypeError, ValueError, AttributeError) as exc:
                raise ValidationError(f"fixes[{index}]: invalid fix ({exc})") from None
            owners.add(owner)
        if user_id is None:
            for owner in sorted(owners):
                self._server.users.profile(owner)  # 404 before any ingest
        try:
            accepted = self._server.users.ingest_fixes(fixes, skip_stale=True)
        except ReproError as exc:
            # Surface the aborted batch on the bus before the error maps to
            # a wire status: ``bus_published_total`` counts it alongside the
            # 5xx trace, and a consumer that needs each rejected batch's
            # users and error subscribes to the topic.
            self._server.bus.publish(
                "tracking.batch_failed",
                {
                    "users": sorted(owners),
                    "submitted": len(fixes),
                    "error": str(exc),
                },
            )
            raise
        body = {
            "submitted": len(fixes),
            "accepted": accepted,
            "skipped_stale": len(fixes) - accepted,
        }
        if user_id is None:
            body["users"] = len(owners)
        return ApiResponse(status=202, body=body)

    # Content --------------------------------------------------------------

    def _list_services(self, ctx: RequestContext) -> ApiResponse:
        services, next_cursor = self._server.content.services_page(
            cursor=ctx.request.query.get("cursor"), limit=self._page_limit(ctx)
        )
        return ApiResponse(
            status=200,
            body={
                "services": [
                    {
                        "service_id": service.service_id,
                        "name": service.name,
                        "bitrate_kbps": service.bitrate_kbps,
                    }
                    for service in services
                ],
                "next_cursor": next_cursor,
            },
        )

    @staticmethod
    def _clip_body(clip) -> Dict[str, Any]:
        """The wire representation of a clip (shared by list and item reads)."""
        return {
            "clip_id": clip.clip_id,
            "title": clip.title,
            "kind": clip.kind.value,
            "duration_s": clip.duration_s,
            "primary_category": clip.primary_category,
            "published_s": clip.published_s,
        }

    def _list_clips(self, ctx: RequestContext) -> ApiResponse:
        content = self._server.content
        cursor = ctx.request.query.get("cursor")
        limit = self._page_limit(ctx)

        def build() -> Dict[str, Any]:
            clips, next_cursor = content.clips_page(cursor=cursor, limit=limit)
            return {"clips": [self._clip_body(clip) for clip in clips], "next_cursor": next_cursor}

        # A malformed cursor raises inside build (400) and is never stored.
        key = (ctx.route.name, cursor, limit, content.clips_version)
        return self._encoded_response(key, self._encoded.get(key), build, {})

    def _get_clip(self, ctx: RequestContext) -> ApiResponse:
        content = self._server.content
        clip_id = ctx.path_params["clip_id"]
        version = content.clips_version
        key = (ctx.route.name, clip_id, 0, version)
        text = self._encoded.get(key)
        # A stored body proves the clip exists at this version; otherwise
        # the read raises the 404 before any revalidation.
        clip = content.clip(clip_id) if text is None else None
        # Weak ETag on the clip table's storage version: any catalogue
        # write invalidates, which over-revalidates but never serves a
        # stale clip — and costs one integer read per request.
        etag = f'W/"clip-{clip_id}:{version}"'
        if ctx.request.header("if-none-match") in (etag, "*"):
            return ApiResponse(status=304, headers={"etag": etag})
        return self._encoded_response(key, text, lambda: self._clip_body(clip), {"etag": etag})

    # Recommendations ------------------------------------------------------

    def _recommendation_etag(self, user_id: str, now_s: float) -> str:
        """The freshness validator for one user's recommendations.

        Folds the streaming-model freshness (repair epoch + folded trips),
        the user's raw-fix counter, the learned-preference observation
        count (feedback moves recommendations too), the content-catalogue
        size and a ``recommendation_ttl_s``-wide time bucket into a weak
        ETag.  All components are O(1) reads, so revalidation costs
        integer compares instead of a recommender tick.
        """
        epoch, trips, fixes = self._server.model_freshness(user_id)
        observations = self._server.users.preference_profile(user_id).observation_count
        clips = self._server.content.clip_count()
        ttl = self._config.recommendation_ttl_s
        bucket = int(now_s // ttl) if ttl > 0 else 0
        return f'W/"rec-{user_id}:{epoch}.{trips}.{fixes}.{observations}.{clips}.{bucket}"'

    def _get_recommendations(self, ctx: RequestContext) -> ApiResponse:
        user_id = ctx.path_params["user_id"]
        raw_now = ctx.request.query.get("now_s")
        if raw_now is None:
            raise ValidationError("now_s query parameter is required")
        try:
            now_s = require_finite(float(raw_now), "now_s")
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"now_s must be a number, got {raw_now!r}") from exc
        self._server.users.profile(user_id)  # 404 before any caching logic
        etag = self._recommendation_etag(user_id, now_s)
        if ctx.request.header("if-none-match") in (etag, "*"):
            return ApiResponse(status=304, headers={"etag": etag})
        decision = self._server.recommend(user_id, now_s=now_s)
        items: List[Dict[str, Any]] = []
        if decision.plan is not None:
            for item in decision.plan.items:
                items.append(
                    {
                        "clip_id": item.clip_id,
                        "title": item.scored.clip.title,
                        "start_s": item.start_s,
                        "duration_s": item.scored.clip.duration_s,
                        "score": round(item.scored.final_score, 4),
                        "reason": item.reason,
                    }
                )
        return ApiResponse(
            status=200,
            body={
                "user_id": user_id,
                "proactive": decision.should_recommend,
                "reason": decision.reason,
                "items": items,
            },
            headers={
                "etag": etag,
                "cache-control": f"max-age={int(self._config.recommendation_ttl_s)}",
            },
        )

    # Ops surface ----------------------------------------------------------

    def _get_ops_metrics(self, ctx: RequestContext) -> ApiResponse:
        """The metrics registry, as JSON or Prometheus text exposition.

        ``?format=prometheus`` wraps the text exposition in the JSON
        envelope (the gateway's wire contract is JSON bodies) and marks
        the payload's native type in ``content-type``; everything else
        serves the structured snapshot with precomputed p50/p95/p99 per
        histogram series.
        """
        telemetry = self._telemetry
        if not telemetry.enabled:
            return ApiResponse(status=200, body={"enabled": False})
        fmt = ctx.request.query.get("format", "json")
        if fmt == "prometheus":
            return ApiResponse(
                status=200,
                body={
                    "enabled": True,
                    "format": "prometheus",
                    "text": telemetry.prometheus_text(),
                },
                headers={"content-type": "text/plain; version=0.0.4"},
            )
        if fmt != "json":
            raise ValidationError(
                f"format must be 'json' or 'prometheus', got {fmt!r}"
            )
        return ApiResponse(
            status=200,
            body={"enabled": True, "metrics": telemetry.metrics_snapshot()},
        )

    def _get_ops_traces(self, ctx: RequestContext) -> ApiResponse:
        """Recent traces, slow traces and the slow-query log, newest first."""
        telemetry = self._telemetry
        if not telemetry.enabled:
            return ApiResponse(status=200, body={"enabled": False})
        raw = ctx.request.query.get("limit")
        limit = 50
        if raw is not None:
            try:
                limit = int(raw)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"limit must be an integer, got {raw!r}") from exc
            if limit < 1:
                raise ValidationError(f"limit must be >= 1, got {limit}")
        body = telemetry.traces_snapshot(limit)
        body["enabled"] = True
        return ApiResponse(status=200, body=body)
