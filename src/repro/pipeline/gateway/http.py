"""Request/response primitives of the public API gateway.

The gateway models the paper's "Public Rest API Server" wire format without
an actual HTTP stack: an :class:`ApiRequest` carries method, path, query
parameters, headers and a JSON-like body; an :class:`ApiResponse` carries a
status code, a JSON-like body and response headers (used for ``ETag``,
``Retry-After`` and friends), and, when the route already holds it, the
body's encoded wire text.  Both are plain immutable dataclasses so
requests can be replayed and responses asserted in tests and benchmarks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.errors import ValidationError


def encode_body(body: Dict[str, Any]) -> str:
    """The wire text of a response body: compact JSON."""
    return json.dumps(body, separators=(",", ":"))


@dataclass(frozen=True)
class ApiResponse:
    """A REST-style response: status code, JSON-like body, headers.

    ``text``, when set, is :func:`encode_body` of the body, kept by routes
    that serve repeated bodies from their encoded text (see
    :meth:`Gateway.handle <repro.pipeline.gateway.gateway.Gateway.handle>`):
    the wire sends it as is instead of encoding ``body`` again.
    """

    status: int
    body: Dict[str, Any] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    text: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the request succeeded (2xx)."""
        return 200 <= self.status < 300

    def header(self, name: str) -> Optional[str]:
        """A response header by case-insensitive name."""
        return self.headers.get(name.lower())


@dataclass(frozen=True)
class ApiRequest:
    """One request entering the gateway.

    ``method`` is normalized to upper case and header names to lower case,
    so lookups never depend on the caller's casing.  ``body`` is the parsed
    JSON payload (a plain dictionary) and ``query`` the string-valued query
    parameters.
    """

    method: str
    path: str
    body: Dict[str, Any] = field(default_factory=dict)
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.method or not isinstance(self.method, str):
            raise ValidationError("method must be a non-empty string")
        if not isinstance(self.path, str) or not self.path.startswith("/"):
            raise ValidationError(f"path must start with '/', got {self.path!r}")
        object.__setattr__(self, "method", self.method.upper())
        object.__setattr__(
            self, "headers", {name.lower(): value for name, value in self.headers.items()}
        )

    def header(self, name: str) -> Optional[str]:
        """A request header by case-insensitive name."""
        return self.headers.get(name.lower())
