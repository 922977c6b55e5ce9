"""Declarative routes and the route table that dispatches them.

A :class:`Route` is data, not code: method + path template + handler +
optional request schema.  The whole public surface of the gateway is the
list of routes registered in one place
(:meth:`~repro.pipeline.gateway.gateway.Gateway._register_routes`), which is
what lets :meth:`Gateway.handle <repro.pipeline.gateway.gateway.Gateway.handle>`
meter, throttle and error-map every endpoint uniformly instead of
per-method ``try``/``except`` blocks.

Path templates use ``{name}`` placeholders per segment
(``/v1/users/{user_id}``); matched values are delivered to handlers as
string path parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ValidationError
from repro.pipeline.gateway.http import ApiRequest, ApiResponse
from repro.pipeline.gateway.schema import RequestSchema


@dataclass
class RequestContext:
    """Everything the request path and handlers need about one request.

    ``data`` is the schema-validated body (populated at dispatch time) and
    ``principal`` the authenticated caller (set by
    :func:`~repro.pipeline.gateway.middleware.authenticate`), which
    :meth:`RateLimiter.admit
    <repro.pipeline.gateway.middleware.RateLimiter.admit>` keys buckets on.
    """

    request: ApiRequest
    route: Optional["Route"]
    path_params: Dict[str, str] = field(default_factory=dict)
    data: Dict[str, Any] = field(default_factory=dict)
    principal: Optional[str] = None


Handler = Callable[[RequestContext], ApiResponse]


@dataclass(frozen=True)
class Route:
    """One declarative endpoint: method, path template, handler, schema."""

    method: str
    path: str
    handler: Handler
    request_schema: Optional[RequestSchema] = None
    name: str = ""
    #: Compiled template — the split segments and, per position, the
    #: parameter name (or None for a literal).  Built once at registration
    #: so matching never re-parses the template.
    segments: Tuple[str, ...] = ()
    param_names: Tuple[Optional[str], ...] = ()

    def __post_init__(self) -> None:
        if not self.path.startswith("/"):
            raise ValidationError(f"route path must start with '/', got {self.path!r}")
        object.__setattr__(self, "method", self.method.upper())
        if not self.name:
            object.__setattr__(self, "name", f"{self.method} {self.path}")
        segments = tuple(self.path.strip("/").split("/"))
        object.__setattr__(self, "segments", segments)
        object.__setattr__(
            self,
            "param_names",
            tuple(
                segment[1:-1] if segment.startswith("{") and segment.endswith("}") else None
                for segment in segments
            ),
        )


class RouteTable:
    """Routes indexed by (method, segment count) for dispatch.

    With segment-count bucketing a match only compares templates of the
    right shape — the table stays a flat declarative list to read, but a
    lookup never scans routes that cannot match.
    """

    def __init__(self) -> None:
        self._routes: List[Route] = []
        self._by_shape: Dict[Tuple[str, int], List[Route]] = {}

    @staticmethod
    def _shape_key(route: Route) -> Tuple[str, ...]:
        """The template with parameter names erased — two routes whose keys
        match would dispatch the same paths regardless of parameter naming."""
        return tuple(
            "{}" if param is not None else literal
            for literal, param in zip(route.segments, route.param_names)
        )

    def add(self, route: Route) -> None:
        """Register a route (template collisions are rejected)."""
        shape = self._shape_key(route)
        for existing in self._by_shape.get((route.method, len(route.segments)), []):
            if self._shape_key(existing) == shape:
                raise ValidationError(
                    f"route {route.method} {route.path!r} collides with {existing.path!r}"
                )
        self._routes.append(route)
        self._by_shape.setdefault((route.method, len(route.segments)), []).append(route)

    def routes(self) -> List[Route]:
        """All registered routes, in registration order."""
        return list(self._routes)

    @staticmethod
    def _match_route(route: Route, parts: Tuple[str, ...]) -> Optional[Dict[str, str]]:
        params: Dict[str, str] = {}
        for template, param, actual in zip(route.segments, route.param_names, parts):
            if param is not None:
                if not actual:
                    return None
                params[param] = actual
            elif template != actual:
                return None
        return params

    def match(self, method: str, path: str) -> Optional[Tuple[Route, Dict[str, str]]]:
        """The route and path parameters for ``method path``, if any."""
        parts = tuple(path.strip("/").split("/"))
        for route in self._by_shape.get((method.upper(), len(parts)), []):
            params = self._match_route(route, parts)
            if params is not None:
                return route, params
        return None

    def allowed_methods(self, path: str) -> List[str]:
        """Methods that *do* serve ``path`` (for 405 ``Allow`` headers)."""
        parts = tuple(path.strip("/").split("/"))
        allowed = set()
        for (method, count), routes in self._by_shape.items():
            if count != len(parts):
                continue
            for route in routes:
                if self._match_route(route, parts) is not None:
                    allowed.add(method)
        return sorted(allowed)
