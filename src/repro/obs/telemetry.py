"""The telemetry bundle: one object wiring registry, tracer and slow log.

:class:`Telemetry` is what the server constructs from its
:class:`TelemetryConfig` and threads through the layers; it owns

* the :class:`~repro.obs.metrics.MetricsRegistry` every counter/histogram
  records into (or the null registry when disabled),
* the :class:`~repro.obs.tracing.Tracer` whose context flows from the
  gateway down every layer on the request's thread (or the null tracer),
* the :class:`~repro.obs.slowlog.SlowQueryLog` fed by the query observer.

The ``observe_*`` helpers install the instrumentation:

* :meth:`observe_database` / :meth:`observe_sharded` attach a query
  observer to every table (timing planner queries and keyset page walks)
  and register a pull-time collector folding ``Database.stats()`` row/
  index-hit/scan counters into gauges.

Telemetry state is process-lifetime observability: it is deliberately
**excluded** from server snapshot/restore (a restored process starts with
fresh counters, exactly like a restarted one — see
``PphcrServer.snapshot``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.errors import PipelineError
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.slowlog import SlowQueryLog
from repro.obs.tracing import NullTracer, Tracer


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs of the unified telemetry subsystem.

    ``enabled=False`` swaps in the null registry/tracer: instrumented call
    sites stay, each costing one no-op call (the <5 % budget asserted by
    ``BENCH_telemetry_overhead.json``).  ``slow_query_threshold_s`` gates
    the slow-query log and slow-span recording;
    ``slow_trace_threshold_s`` gates the slow-trace ring buffer.
    ``keep_samples`` retains raw histogram samples for exact-reference
    percentile tests — debug only, it makes histograms O(n) in memory.
    """

    enabled: bool = True
    slow_query_threshold_s: float = 0.050
    slow_trace_threshold_s: float = 0.500
    trace_buffer: int = 128
    slow_query_buffer: int = 256
    latency_buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    keep_samples: bool = False

    def __post_init__(self) -> None:
        if self.slow_query_threshold_s < 0:
            raise PipelineError("slow_query_threshold_s must be >= 0")
        if self.slow_trace_threshold_s < 0:
            raise PipelineError("slow_trace_threshold_s must be >= 0")
        if self.trace_buffer < 1 or self.slow_query_buffer < 1:
            raise PipelineError("telemetry buffers must be >= 1")


class Telemetry:
    """Registry + tracer + slow-query log behind one enable switch."""

    def __init__(self, config: TelemetryConfig = TelemetryConfig()) -> None:
        self._config = config
        if config.enabled:
            self.metrics: Union[MetricsRegistry, NullRegistry] = MetricsRegistry(
                keep_samples=config.keep_samples
            )
            self.tracer: Union[Tracer, NullTracer] = Tracer(
                buffer=config.trace_buffer,
                slow_threshold_s=config.slow_trace_threshold_s,
            )
        else:
            self.metrics = NullRegistry()
            self.tracer = NullTracer()
        self.slow_queries = SlowQueryLog(maxlen=config.slow_query_buffer)

    @property
    def config(self) -> TelemetryConfig:
        """The telemetry configuration."""
        return self._config

    @property
    def enabled(self) -> bool:
        """Whether real (non-null) telemetry is active."""
        return self._config.enabled

    def latency_histogram(self, name: str, help: str = "", labels=()) :
        """A histogram family on the configured latency buckets."""
        return self.metrics.histogram(
            name, help, labels, buckets=self._config.latency_buckets
        )

    # Storage instrumentation ---------------------------------------------

    def query_observer(
        self, database: str, shard: Optional[int] = None
    ) -> Optional[Callable[[Dict[str, Any], float, int], None]]:
        """The observer a :class:`~repro.storage.table.Table` calls per query.

        Receives ``(plan, elapsed_s, rows)`` where ``plan`` is
        :meth:`Query.explain`-shaped (keyset page walks report strategy
        ``index_page``).  Records a per-database latency histogram and a
        per-strategy counter; anything over the slow threshold also lands
        in the slow-query log and — when a trace is active — as a slow
        span carrying the shard id and the full plan.
        """
        if not self.enabled:
            return None
        queries = self.metrics.counter(
            "storage_queries_total",
            "Observed table operations by access strategy",
            labels=("database", "strategy"),
        )
        latency = self.latency_histogram(
            "storage_query_seconds",
            "Table operation latency by database",
            labels=("database",),
        )
        threshold = self._config.slow_query_threshold_s
        tracer = self.tracer
        slow_log = self.slow_queries
        # The database label is fixed per observer and strategies are a
        # small closed set, so resolved series are cached: one dict lookup
        # (not a labels() validation) per observed query.
        latency_series = latency.labels(database=database)
        strategy_series: Dict[str, Any] = {}

        def observe(plan: Dict[str, Any], elapsed_s: float, rows: int) -> None:
            strategy = plan.get("strategy", "?")
            series = strategy_series.get(strategy)
            if series is None:
                series = queries.labels(database=database, strategy=strategy)
                strategy_series[strategy] = series
            series.inc()
            latency_series.record(elapsed_s)
            if elapsed_s >= threshold:
                slow_log.record(
                    database=database,
                    shard=shard,
                    plan=plan,
                    elapsed_s=elapsed_s,
                    rows=rows,
                )
                tags = dict(plan)
                tags["database"] = database
                tags["rows"] = rows
                if shard is not None:
                    tags["shard"] = shard
                tracer.record_span("storage.query", elapsed_s, slow=True, **tags)

        return observe

    def observe_database(self, database, *, name: Optional[str] = None) -> None:
        """Instrument one plain :class:`~repro.storage.database.Database`."""
        if not self.enabled:
            return
        label = name if name is not None else database.name
        database.set_query_observer(self.query_observer(label))
        self._register_stats_collector(label, database.stats, shard="all")

    def observe_sharded(self, sharded, *, name: Optional[str] = None) -> None:
        """Instrument a :class:`~repro.storage.sharding.ShardedDatabase`.

        Each shard's tables get an observer tagged with the shard id; a
        pull-time collector folds the merged and per-shard stats into
        gauges; fan-out page merges record into a fan-out histogram.
        """
        if not self.enabled:
            return
        label = name if name is not None else sharded.name
        for index, shard_db in enumerate(sharded.databases):
            shard_db.set_query_observer(self.query_observer(label, shard=index))
        fanout = self.latency_histogram(
            "storage_fanout_seconds",
            "Cross-shard fan-out read latency by database",
            labels=("database", "table"),
        )
        fanout_series: Dict[str, Any] = {}

        def observe_fanout(table: str, elapsed_s: float) -> None:
            series = fanout_series.get(table)
            if series is None:
                series = fanout.labels(database=label, table=table)
                fanout_series[table] = series
            series.record(elapsed_s)

        sharded.set_fanout_observer(observe_fanout)

        def collect(registry) -> None:
            stats = sharded.stats()
            self._set_stats_gauges(label, stats, shard="all")
            for index, shard_stats in enumerate(stats["shards"]):
                self._set_stats_gauges(label, shard_stats, shard=str(index))

        self.metrics.register_collector(collect)

    def _stats_gauges(self):
        rows = self.metrics.gauge(
            "storage_rows", "Rows stored by database/shard", labels=("database", "shard")
        )
        hits = self.metrics.gauge(
            "storage_index_hits",
            "Planner index hits by database/shard",
            labels=("database", "shard"),
        )
        scans = self.metrics.gauge(
            "storage_scans",
            "Planner full scans (fallback path) by database/shard",
            labels=("database", "shard"),
        )
        return rows, hits, scans

    def _set_stats_gauges(self, label: str, stats: Dict[str, Any], *, shard: str) -> None:
        rows, hits, scans = self._stats_gauges()
        rows.labels(database=label, shard=shard).set(stats["total_rows"])
        hits.labels(database=label, shard=shard).set(stats["index_hits"])
        scans.labels(database=label, shard=shard).set(stats["scans"])

    def _register_stats_collector(
        self, label: str, stats_fn: Callable[[], Dict[str, Any]], *, shard: str
    ) -> None:
        def collect(registry) -> None:
            self._set_stats_gauges(label, stats_fn(), shard=shard)

        self.metrics.register_collector(collect)

    # Wire payloads --------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The registry's JSON payload (collectors run first)."""
        return self.metrics.snapshot()

    def prometheus_text(self) -> str:
        """The registry's Prometheus text exposition."""
        return self.metrics.prometheus_text()

    def traces_snapshot(self, limit: int = 50) -> Dict[str, Any]:
        """Recent traces, slow traces and the slow-query log, newest first."""
        return {
            "recent": self.tracer.recent(limit),
            "slow": self.tracer.slow(limit),
            "slow_queries": self.slow_queries.entries(limit),
        }
