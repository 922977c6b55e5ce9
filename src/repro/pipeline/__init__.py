"""Server-side pipeline: message bus, the PPHCR server, and the public API.

Mirrors Figure 3 of the paper: live streams and podcasts are ingested into
the content repository, speech content passes through ASR and Bayesian
classification, user data (profiles, feedback, tracking) is managed, and the
recommender produces context-aware plans that the public API serves to the
clients.  RabbitMQ is replaced by an in-process publish/subscribe bus, and
the "Public Rest API Server" by the :mod:`repro.pipeline.gateway` subsystem
(declarative routes behind one checked request path).
"""

from repro.pipeline.messaging import Message, MessageBus
from repro.pipeline.server import PphcrServer, ServerConfig
from repro.pipeline.gateway import (
    ApiKeyRegistry,
    ApiRequest,
    ApiResponse,
    Gateway,
    GatewayConfig,
    RateLimitConfig,
    Route,
)

__all__ = [
    "ApiKeyRegistry",
    "ApiRequest",
    "ApiResponse",
    "Gateway",
    "GatewayConfig",
    "Message",
    "MessageBus",
    "PphcrServer",
    "RateLimitConfig",
    "Route",
    "ServerConfig",
]
