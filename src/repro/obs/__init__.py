"""Unified observability: metrics registry, tracer, slow-query log.

The substrate every layer reports through (see ``docs/ARCHITECTURE.md``,
"Observability"):

* :class:`MetricsRegistry` — labeled counters/gauges and fixed-bucket
  streaming histograms with O(1) record and bounded-error p50/p95/p99;
* :class:`Tracer` — trace/span context that follows a request from
  ``Gateway.handle_wire`` down every layer on its thread, with ring
  buffers of recent and slow traces;
* :class:`SlowQueryLog` — table operations over a threshold, with their
  access plan and shard;
* :class:`Telemetry` — the bundle the server wires through the layers,
  with null variants behind ``TelemetryConfig(enabled=False)`` keeping
  the disabled hot path negligible.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    CounterFamily,
    GaugeFamily,
    HistogramFamily,
    HistogramSeries,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.slowlog import SlowQueryLog
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.obs.tracing import NullTracer, Span, Trace, Tracer

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "CounterFamily",
    "GaugeFamily",
    "HistogramFamily",
    "HistogramSeries",
    "MetricsRegistry",
    "NullRegistry",
    "NullTracer",
    "SlowQueryLog",
    "Span",
    "Telemetry",
    "TelemetryConfig",
    "Trace",
    "Tracer",
]
