"""The public API gateway subsystem.

A declarative, versioned front door to :class:`~repro.pipeline.server.PphcrServer`:
route table + one straight-line request path (trace, counters, error
mapping, auth, rate limiting) + batch ingest + paginated/cacheable reads.
See :mod:`repro.pipeline.gateway.gateway` for the subsystem overview and
``docs/ARCHITECTURE.md`` ("Gateway flow") for where it sits at runtime.
"""

from repro.pipeline.gateway.http import ApiRequest, ApiResponse
from repro.pipeline.gateway.gateway import Gateway, GatewayConfig
from repro.pipeline.gateway.middleware import (
    ApiKeyRegistry,
    RateLimitConfig,
    RateLimiter,
    authenticate,
    map_error,
)
from repro.pipeline.gateway.routing import RequestContext, Route, RouteTable
from repro.pipeline.gateway.schema import Field, Number, RequestSchema

__all__ = [
    "ApiKeyRegistry",
    "ApiRequest",
    "ApiResponse",
    "Field",
    "Gateway",
    "GatewayConfig",
    "Number",
    "RateLimitConfig",
    "RateLimiter",
    "RequestContext",
    "RequestSchema",
    "Route",
    "RouteTable",
    "authenticate",
    "map_error",
]
