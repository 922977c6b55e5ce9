"""The gateway's per-request checks: error mapping, auth, rate limiting.

:meth:`Gateway.handle <repro.pipeline.gateway.gateway.Gateway.handle>`
runs every request through one straight-line path,

    [trace -> latency and status counters ->] map_error -> authenticate
    -> RateLimiter.admit -> route

(the trace and counters only when telemetry is enabled), so *every*
route — current and future — is metered, throttled and error-mapped
identically.  :func:`authenticate` and :meth:`RateLimiter.admit` each
answer a rejection (401, 429) or ``None`` to let the request through.
:func:`map_error` is the single place the :mod:`repro.errors` taxonomy
turns into statuses:

=============================  ======
:class:`ValidationError`       400
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
import secrets
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.errors import (
    ClassificationError,
    ConfigurationError,
    DeliveryError,
    DuplicateError,
    GeometryError,
    NotFoundError,
    PipelineError,
    PredictionError,
    ReproError,
    SchedulingError,
    SchemaError,
    TrajectoryError,
    ValidationError,
)
from repro.pipeline.gateway.http import ApiResponse
from repro.pipeline.gateway.routing import RequestContext


def map_error(exc: ReproError) -> ApiResponse:
    """The response one library error maps to (the taxonomy table above)."""
    taxonomy = (
        # The caller sent something malformed.
        (ValidationError, 400),
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


class ApiKeyRegistry:
    """Issued bearer tokens and the principals behind them."""

    def __init__(self) -> None:
        self._principals: Dict[str, str] = {}

    def issue(self, principal: str) -> str:
        """Issue a new unguessable token for ``principal`` and return it."""
        if not principal:
            raise ValidationError("principal must be a non-empty string")
        token = secrets.token_urlsafe(32)
        self._principals[token] = principal
        return token

    def revoke(self, token: str) -> None:
        """Invalidate a token (unknown tokens are a no-op)."""
        self._principals.pop(token, None)

    def principal_for(self, token: str) -> Optional[str]:
        """The principal a token authenticates, or None."""
        return self._principals.get(token)


def authenticate(
    ctx: RequestContext, registry: ApiKeyRegistry, *, required: bool
) -> Optional[ApiResponse]:
    """Resolve the ``Authorization`` header into ``ctx.principal``.

    Returns a 401 for an unknown token, or for a missing one when
    ``required``; it runs before the rate limiter, so a rejected request
    spends no bucket token.  With ``required=False`` a valid token still
    sets the principal, so rate limiting keys on it, and anonymous
    requests pass (``None``).
    """
    header = ctx.request.header("authorization")
    if not header:
        if required:
            return ApiResponse(
                status=401,
                body={"error": "missing auth token"},
                headers={"www-authenticate": "Bearer"},
            )
        return None
    token = header[7:] if header.lower().startswith("bearer ") else header
    principal = registry.principal_for(token)
    if principal is None:
        return ApiResponse(
            status=401,
            body={"error": "invalid auth token"},
            headers={"www-authenticate": "Bearer"},
        )
    ctx.principal = principal
    return None


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


class RateLimiter:
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

    def admit(self, ctx: RequestContext) -> Optional[ApiResponse]:
        """Spend one token of the caller's bucket, or answer 429."""
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
        return None
