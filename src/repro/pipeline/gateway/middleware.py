"""The gateway's middleware chain: auth, rate limiting, metrics, errors.

Middleware are callables ``(ctx, next) -> ApiResponse`` composed once at
gateway construction; each request then flows

    [tracing -> metrics ->] exception mapper -> auth -> rate limit -> dispatch

(tracing and metrics join the chain only when telemetry is enabled), so
*every* route — current and future — is metered, throttled and
error-mapped identically.  The exception mapper is the single place the
:mod:`repro.errors` taxonomy turns into statuses:

=============================  ======
:class:`ValidationError`       400
:class:`QueryError`            400
:class:`GeometryError`         400
:class:`NotFoundError`         404
:class:`DuplicateError`        409
:class:`DeliveryError`         409
:class:`TrajectoryError`       422
:class:`PredictionError`       422
:class:`SchedulingError`       422
:class:`ClassificationError`   503
:class:`SchemaError`           500
:class:`ConfigurationError`    500
:class:`PipelineError`         500
=============================  ======

The ``error-mapping-coverage`` rule in :mod:`repro.analysis` holds this
table complete: a new :class:`ReproError` subclass that is not named in
:func:`map_error` fails CI rather than silently surfacing as an
undifferentiated 500.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import (
    ClassificationError,
    ConfigurationError,
    DeliveryError,
    DuplicateError,
    GeometryError,
    NotFoundError,
    PipelineError,
    PredictionError,
    QueryError,
    ReproError,
    SchedulingError,
    SchemaError,
    TrajectoryError,
    ValidationError,
)
from repro.pipeline.gateway.http import ApiResponse
from repro.pipeline.gateway.routing import RequestContext
from repro.util.ids import new_id

Next = Callable[[RequestContext], ApiResponse]


def map_error(exc: ReproError) -> ApiResponse:
    """The response one library error maps to (the taxonomy table above)."""
    taxonomy = (
        # The caller sent something malformed.
        (ValidationError, 400),
        (QueryError, 400),
        (GeometryError, 400),
        # The referenced entity is absent, or already present.
        (NotFoundError, 404),
        (DuplicateError, 409),
        (DeliveryError, 409),
        # Well-formed request the domain logic cannot satisfy.
        (TrajectoryError, 422),
        (PredictionError, 422),
        (SchedulingError, 422),
        # The classifier is not ready yet — retryable, unlike the genuine
        # server-side faults below.
        (ClassificationError, 503),
        (SchemaError, 500),
        (ConfigurationError, 500),
        (PipelineError, 500),
    )
    status = 500
    for error_type, error_status in taxonomy:
        if isinstance(exc, error_type):
            status = error_status
            break
    return ApiResponse(status=status, body={"error": str(exc)})


class ExceptionMapperMiddleware:
    """Maps the library's exception taxonomy onto HTTP statuses.

    This is the structural fix for the seed API's per-method ``try``/
    ``except`` blocks (which, among other bugs, mapped feedback validation
    failures to 404): handlers just raise, and the mapping lives here once
    (:func:`map_error`).  Anything outside :class:`ReproError` propagates —
    programming errors must not be masked as HTTP statuses.
    """

    def __call__(self, ctx: RequestContext, nxt: Next) -> ApiResponse:
        try:
            return nxt(ctx)
        except ReproError as exc:
            return map_error(exc)


class ApiKeyRegistry:
    """Issued bearer tokens and the principals behind them."""

    def __init__(self) -> None:
        self._principals: Dict[str, str] = {}

    def issue(self, principal: str) -> str:
        """Issue a new token for ``principal`` and return it."""
        if not principal:
            raise ValidationError("principal must be a non-empty string")
        token = new_id("apikey")
        self._principals[token] = principal
        return token

    def revoke(self, token: str) -> None:
        """Invalidate a token (unknown tokens are a no-op)."""
        self._principals.pop(token, None)

    def principal_for(self, token: str) -> Optional[str]:
        """The principal a token authenticates, or None."""
        return self._principals.get(token)


class AuthMiddleware:
    """Resolves the ``Authorization`` header into ``ctx.principal``.

    With ``required=True`` a missing or unknown token is rejected with 401
    before any handler (or rate-limit bucket) is touched; with
    ``required=False`` a valid token still sets the principal so rate
    limiting keys on it, but anonymous requests pass through.
    """

    def __init__(self, registry: ApiKeyRegistry, *, required: bool = False) -> None:
        self._registry = registry
        self._required = required

    def __call__(self, ctx: RequestContext, nxt: Next) -> ApiResponse:
        header = ctx.request.header("authorization")
        token = None
        if header:
            token = header[7:] if header.lower().startswith("bearer ") else header
        if token is not None:
            principal = self._registry.principal_for(token)
            if principal is None:
                return ApiResponse(
                    status=401,
                    body={"error": "invalid auth token"},
                    headers={"www-authenticate": "Bearer"},
                )
            ctx.principal = principal
        elif self._required:
            return ApiResponse(
                status=401,
                body={"error": "missing auth token"},
                headers={"www-authenticate": "Bearer"},
            )
        return nxt(ctx)


@dataclass(frozen=True)
class RateLimitConfig:
    """Per-caller token-bucket parameters.

    ``capacity`` is the burst size and ``refill_per_s`` the sustained
    request rate; both are generous by default so the limiter only bites
    under genuinely abusive traffic.
    """

    capacity: float = 240.0
    refill_per_s: float = 120.0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise PipelineError("capacity must be >= 1")
        if self.refill_per_s <= 0:
            raise PipelineError("refill_per_s must be > 0")


class _TokenBucket:
    __slots__ = ("tokens", "updated_s")

    def __init__(self, capacity: float, now_s: float) -> None:
        self.tokens = capacity
        self.updated_s = now_s


#: The bucket map is swept once it grows past this size (and then past twice
#: what the last sweep kept), so sweeping is amortized O(1) per request.
_SWEEP_MIN_BUCKETS = 256


class RateLimitMiddleware:
    """Per-user token-bucket rate limiting.

    Buckets key on the authenticated principal when there is one, else on
    the user the request is about (path parameter or body field), else on a
    shared anonymous bucket — so one abusive client cannot starve the rest
    even before auth is enabled.  Rejections are 429 with a ``Retry-After``
    hint derived from the refill rate.

    A bucket that has refilled to capacity is dropped by the next sweep:
    under the monotonic clock a full bucket behaves exactly like a new one,
    so the map holds only recently active callers and no 429 decision
    changes.
    """

    def __init__(
        self,
        config: RateLimitConfig,
        *,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self._config = config
        self._clock = clock if clock is not None else time.monotonic
        self._buckets: Dict[str, _TokenBucket] = {}
        self._sweep_at = _SWEEP_MIN_BUCKETS

    @staticmethod
    def _key(ctx: RequestContext) -> str:
        if ctx.principal is not None:
            return ctx.principal
        user_id = ctx.path_params.get("user_id")
        if user_id is None:
            body_user = ctx.request.body.get("user_id")
            user_id = body_user if isinstance(body_user, str) else None
        return user_id if user_id is not None else "<anonymous>"

    def _sweep(self, now_s: float) -> None:
        """Drop every bucket that would read full at ``now_s``."""
        capacity = self._config.capacity
        refill_per_s = self._config.refill_per_s
        self._buckets = {
            key: bucket
            for key, bucket in self._buckets.items()
            if bucket.tokens + (now_s - bucket.updated_s) * refill_per_s < capacity
        }
        self._sweep_at = max(_SWEEP_MIN_BUCKETS, 2 * len(self._buckets))

    def __call__(self, ctx: RequestContext, nxt: Next) -> ApiResponse:
        now_s = self._clock()
        key = self._key(ctx)
        bucket = self._buckets.get(key)
        if bucket is None:
            if len(self._buckets) >= self._sweep_at:
                self._sweep(now_s)
            bucket = _TokenBucket(self._config.capacity, now_s)
            self._buckets[key] = bucket
        else:
            elapsed = now_s - bucket.updated_s
            if elapsed > 0:
                bucket.tokens = min(
                    self._config.capacity,
                    bucket.tokens + elapsed * self._config.refill_per_s,
                )
            bucket.updated_s = now_s
        if bucket.tokens < 1.0:
            retry_after_s = (1.0 - bucket.tokens) / self._config.refill_per_s
            return ApiResponse(
                status=429,
                body={"error": "rate limit exceeded"},
                headers={"retry-after": str(max(1, math.ceil(retry_after_s)))},
            )
        bucket.tokens -= 1.0
        return nxt(ctx)


class MetricsMiddleware:
    """Records each request's latency and status in the metrics registry.

    ``api_request_seconds{route}`` and ``api_requests_total{route,
    status_class}`` are the gateway's only request counters: the ops
    endpoints, the dashboard and the tests all read them.  Like
    :class:`TracingMiddleware`, it joins the chain only when telemetry is
    enabled.
    """

    def __init__(self, registry) -> None:
        self._latency = registry.histogram(
            "api_request_seconds",
            "Gateway request latency by route",
            labels=("route",),
        )
        self._statuses = registry.counter(
            "api_requests_total",
            "Gateway requests by route and status class",
            labels=("route", "status_class"),
        )
        # Resolved series are cached per route / (route, class) so the hot
        # path pays one dict lookup, not a labels() validation, per request.
        self._latency_series: Dict[str, object] = {}
        self._status_series: Dict[Tuple[str, str], object] = {}

    def __call__(self, ctx: RequestContext, nxt: Next) -> ApiResponse:
        start = time.perf_counter()
        response = nxt(ctx)
        elapsed_s = time.perf_counter() - start
        route_name = ctx.route.name if ctx.route is not None else "<unmatched>"
        latency = self._latency_series.get(route_name)
        if latency is None:
            latency = self._latency.labels(route=route_name)
            self._latency_series[route_name] = latency
        latency.record(elapsed_s)
        status_class = f"{response.status // 100}xx"
        status_key = (route_name, status_class)
        statuses = self._status_series.get(status_key)
        if statuses is None:
            statuses = self._statuses.labels(route=route_name, status_class=status_class)
            self._status_series[status_key] = statuses
        statuses.inc()
        return response


class TracingMiddleware:
    """Opens one trace per request, named after the matched route.

    Sits outermost in the chain so the trace covers the entire middleware
    stack and handler; the context is thread-local and every layer below
    runs on the request's thread, so spans opened by storage attach to the
    request's trace.  The response status lands as a trace tag after
    dispatch.
    """

    def __init__(self, tracer) -> None:
        self._tracer = tracer

    def __call__(self, ctx: RequestContext, nxt: Next) -> ApiResponse:
        route_path = ctx.route.path if ctx.route is not None else ctx.request.path
        with self._tracer.trace(
            f"{ctx.request.method} {route_path}",
            method=ctx.request.method,
            path=ctx.request.path,
        ) as trace:
            response = nxt(ctx)
            trace.set_tag("status", response.status)
            return response
