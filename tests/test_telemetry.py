"""Unified telemetry: histogram accuracy, tracing, slow-query log, ops API.

The contracts under test:

* histogram p50/p95/p99 estimates always land in the same bucket as the
  exact nearest-rank reference over the raw samples (bounded error), on
  randomized workloads and the degenerate edge cases;
* a wire workload through the gateway yields per-route percentiles from
  ``GET /v1/ops/metrics`` matching an exact offline computation within
  the documented bucket error, and slow table operations surface in
  ``GET /v1/ops/traces`` with their shard and ``explain()`` plan;
* the message bus counts every publish, and records each failed delivery
  as a dead letter (topic, handler, reason) counted in the registry;
* a full compaction pass and one pass per shard agree on everything
  except the per-shard wall-time breakdown;
* telemetry is excluded from server snapshots by design, and a disabled
  configuration degrades every surface to a cheap no-op.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import PipelineError, ValidationError
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    HistogramSeries,
    MetricsRegistry,
    NullRegistry,
    NullTracer,
    Telemetry,
    TelemetryConfig,
    Tracer,
)
from repro.pipeline import Gateway
from repro.pipeline.gateway.gateway import DEFAULT_PAGE_LIMIT, MAX_PAGE_LIMIT
from repro.pipeline.messaging import MessageBus
from repro.pipeline.server import PphcrServer, ServerConfig
from repro.spatialdb import GpsFix
from repro.geo import GeoPoint
from repro.geo.geodesy import destination_point
from repro.client.dashboard import ControlDashboard
from repro.content import AudioClip, ContentKind
from repro.storage import DurabilityConfig, ShardingConfig
from repro.storage.wal import log_paths, scan_frames
from repro.users.profile import UserProfile
from repro.util.ids import reset_ids
from repro.util.rng import DeterministicRng


# Histogram quantile accuracy ----------------------------------------------


def _exact_nearest_rank(samples, q):
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _histogram_series(**kwargs):
    registry = MetricsRegistry(**kwargs)
    return registry.histogram("h_seconds", "test histogram").labels()


def _assert_quantiles_bounded(series, samples):
    for q in (0.50, 0.95, 0.99):
        exact = _exact_nearest_rank(samples, q)
        estimate = series.quantile(q)
        low, high = series.bucket_range(exact)
        assert low < estimate <= high or estimate == exact, (
            f"q={q}: estimate {estimate} not in bucket ({low}, {high}] of exact {exact}"
        )
        assert min(samples) <= estimate <= max(samples)


def test_histogram_quantiles_match_reference_on_randomized_workloads():
    rng = DeterministicRng(7)
    workloads = {
        "uniform": [rng.uniform(0.0001, 2.0) for _ in range(500)],
        "exponential": [rng.exponential(0.02) for _ in range(500)],
        "bimodal": [
            rng.uniform(0.0005, 0.002) if rng.bernoulli(0.8) else rng.uniform(0.5, 4.0)
            for _ in range(500)
        ],
    }
    for name, samples in workloads.items():
        series = _histogram_series()
        for value in samples:
            series.record(value)
        _assert_quantiles_bounded(series, samples)


def test_histogram_single_sample_and_all_equal():
    single = _histogram_series()
    single.record(0.0123)
    for q in (0.5, 0.95, 0.99, 1.0):
        assert single.quantile(q) == pytest.approx(0.0123)

    equal = _histogram_series()
    for _ in range(100):
        equal.record(0.25)
    for q in (0.5, 0.95, 0.99):
        assert equal.quantile(q) == pytest.approx(0.25)


def test_histogram_bucket_edges_are_le_inclusive():
    series = _histogram_series()
    # Values sitting exactly on bucket bounds must count into the bucket
    # whose ``le`` equals the value (Prometheus semantics).
    for bound in DEFAULT_LATENCY_BUCKETS[:5]:
        series.record(bound)
    snapshot = series.snapshot()
    populated = {bucket["le"]: bucket["count"] for bucket in snapshot["buckets"]}
    assert populated == {bound: 1 for bound in DEFAULT_LATENCY_BUCKETS[:5]}
    samples = list(DEFAULT_LATENCY_BUCKETS[:5])
    _assert_quantiles_bounded(series, samples)


def test_histogram_overflow_bucket_uses_observed_max():
    series = _histogram_series()
    top = DEFAULT_LATENCY_BUCKETS[-1]
    samples = [top * 2, top * 3, top * 10]
    for value in samples:
        series.record(value)
    assert series.snapshot()["overflow"] == 3
    # All mass is above every bound: the estimate falls back to the max.
    assert series.quantile(0.99) == top * 10
    _assert_quantiles_bounded(series, samples)


def test_histogram_empty_and_invalid_quantile():
    series = _histogram_series()
    assert series.quantile(0.5) is None
    with pytest.raises(ValidationError):
        series.quantile(0.0)
    with pytest.raises(ValidationError):
        series.quantile(1.5)


def test_registry_declarations_are_idempotent_but_typed():
    registry = MetricsRegistry()
    counter = registry.counter("events_total", "help", labels=("kind",))
    assert registry.counter("events_total", "help", labels=("kind",)) is counter
    with pytest.raises(ValidationError):
        registry.gauge("events_total")  # same name, different kind
    with pytest.raises(ValidationError):
        registry.counter("events_total", labels=("other",))  # label mismatch
    with pytest.raises(ValidationError):
        counter.labels(kind="x").inc(-1)  # counters only go up


def test_prometheus_text_exposition_shape():
    registry = MetricsRegistry()
    histogram = registry.histogram("req_seconds", "request latency", labels=("route",))
    histogram.labels(route="GET /x").record(0.001)
    histogram.labels(route="GET /x").record(100.0)  # overflow
    text = registry.prometheus_text()
    assert "# TYPE req_seconds histogram" in text
    assert 'req_seconds_bucket{route="GET /x",le="+Inf"} 2' in text
    assert 'req_seconds_count{route="GET /x"} 2' in text
    assert 'req_seconds_sum{route="GET /x"}' in text


def test_tracer_ring_buffers_and_slow_marking():
    tracer = Tracer(buffer=2, slow_threshold_s=0.0)
    for index in range(3):
        with tracer.trace(f"t{index}"):
            pass
    recent = tracer.recent()
    assert [trace["name"] for trace in recent] == ["t2", "t1"]  # newest first
    assert all(trace["slow"] for trace in tracer.slow())


# Wire workload: ops metrics vs exact reference ----------------------------


def _fixes_for(user_id, *, t0=0.0, count=10):
    origin = GeoPoint(45.06, 7.66)
    fixes = []
    for index in range(count):
        point = destination_point(origin, 90.0, 250.0 * index)
        fixes.append(
            GpsFix(user_id, t0 + 30.0 * index, point, speed_mps=14.0, accuracy_m=8.0)
        )
    return fixes


def _telemetry_server(*, shards=4, telemetry=None):
    reset_ids()
    config = ServerConfig(
        sharding=ShardingConfig(shards=shards),
        telemetry=telemetry if telemetry is not None else TelemetryConfig(),
    )
    server = PphcrServer(config=config)
    gateway = Gateway(server)
    for index in range(6):
        server.register_user(
            UserProfile(user_id=f"user-{index:03d}", display_name=f"User {index}")
        )
    return server, gateway


def _drive_mixed_workload(gateway):
    for index in range(6):
        user_id = f"user-{index:03d}"
        fixes = [
            {"lat": fix.position.lat, "lon": fix.position.lon, "timestamp_s": fix.timestamp_s}
            for fix in _fixes_for(user_id)
        ]
        status, _, _ = gateway.handle_wire(
            "POST", "/v1/tracking/batch",
            json.dumps({"user_id": user_id, "fixes": fixes}),
        )
        assert status == 202
        for _ in range(3):
            status, _, _ = gateway.handle_wire("GET", f"/v1/users/{user_id}")
            assert status == 200
        status, _, _ = gateway.handle_wire(
            "POST", "/v1/feedback",
            json.dumps({
                "user_id": user_id, "content_id": f"clip-{index}",
                "kind": "like", "timestamp_s": 100.0 * index,
            }),
        )
        assert status == 201
        status, _, _ = gateway.handle_wire("GET", f"/v1/users/{user_id}/feedback")
        assert status == 200
    status, _, _ = gateway.handle_wire("GET", "/v1/users/ghost")
    assert status == 404
    status, _, _ = gateway.handle_wire("GET", "/v1/users")
    assert status == 200


def test_ops_metrics_percentiles_match_exact_reference(monkeypatch):
    # The registry keeps no raw samples: collect each series' values by
    # wrapping HistogramSeries.record for the duration of the test.
    recorded = {}
    record = HistogramSeries.record

    def record_and_keep(series, value):
        recorded.setdefault(series, []).append(float(value))
        record(series, value)

    monkeypatch.setattr(HistogramSeries, "record", record_and_keep)
    server, gateway = _telemetry_server()
    _drive_mixed_workload(gateway)
    status, body, _ = gateway.handle_wire("GET", "/v1/ops/metrics")
    assert status == 200
    payload = json.loads(body)
    assert payload["enabled"] is True
    latency = payload["metrics"]["histograms"]["api_request_seconds"]
    family = server.telemetry.metrics.histogram(
        "api_request_seconds", labels=("route",)
    )
    checked = 0
    for entry in latency["series"]:
        route = entry["labels"]["route"]
        series = family.labels(route=route)
        samples = recorded.get(series)
        assert samples and len(samples) == entry["count"]
        for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            exact = _exact_nearest_rank(samples, q)
            low, high = series.bucket_range(exact)
            assert low < entry[name] <= high or entry[name] == exact, (
                f"{route} {name}: {entry[name]} vs exact {exact} in ({low}, {high}]"
            )
        checked += 1
    assert checked >= 5  # several distinct routes were exercised
    statuses = payload["metrics"]["counters"]["api_requests_total"]["series"]
    classes = {entry["labels"]["status_class"] for entry in statuses}
    assert "2xx" in classes and "4xx" in classes


def test_ops_metrics_prometheus_format_and_bad_format():
    server, gateway = _telemetry_server()
    gateway.handle_wire("GET", "/v1/users")
    status, body, headers = gateway.handle_wire(
        "GET", "/v1/ops/metrics", query={"format": "prometheus"}
    )
    assert status == 200
    assert headers["content-type"].startswith("text/plain")
    payload = json.loads(body)
    assert payload["format"] == "prometheus"
    assert "api_request_seconds_bucket" in payload["text"]
    status, _, _ = gateway.handle_wire(
        "GET", "/v1/ops/metrics", query={"format": "xml"}
    )
    assert status == 400


def test_slow_queries_surface_in_ops_traces_with_shard_and_plan():
    # A zero threshold makes every observed table operation "slow", so the
    # ordinary wire traffic below deliberately produces slow queries.
    server, gateway = _telemetry_server(
        telemetry=TelemetryConfig(slow_query_threshold_s=0.0)
    )
    _drive_mixed_workload(gateway)
    # A cursor walk of the clip listing reads the metadata database too.
    for index in range(5):
        server.content.add_clip(
            AudioClip(
                clip_id=f"clip-{index}",
                title=f"Clip {index}",
                kind=ContentKind.PODCAST,
                duration_s=60.0,
                published_s=float(index),
            )
        )
    query = {"limit": "2"}
    while True:
        status, body, _ = gateway.handle_wire("GET", "/v1/clips", query=query)
        assert status == 200
        cursor = json.loads(body)["next_cursor"]
        if cursor is None:
            break
        query = {"limit": "2", "cursor": cursor}
    status, body, _ = gateway.handle_wire(
        "GET", "/v1/ops/traces", query={"limit": "200"}
    )
    assert status == 200
    payload = json.loads(body)
    assert payload["enabled"] is True
    slow = payload["slow_queries"]
    assert slow
    # The feedback history read is a per-shard keyset walk: it reports the
    # owning shard and an index_page plan.
    sharded = [
        entry for entry in slow
        if entry["database"] == "feedbacks" and entry["shard"] is not None
    ]
    assert sharded
    assert sharded[0]["plan"]["strategy"] == "index_page"
    assert sharded[0]["table"] == "feedback"
    assert sharded[0]["elapsed_ms"] >= 0.0
    # So is each page of the clip listing, on the unsharded metadata DB.
    listing = [entry for entry in slow if entry["database"] == "metadata"]
    assert len(listing) == 3
    assert all(entry["shard"] is None for entry in listing)
    assert all(entry["table"] == "clips" for entry in listing)
    assert all(entry["plan"]["strategy"] == "index_page" for entry in listing)
    # Slow queries inside a request also mark the request trace slow, with
    # the plan attached to the storage.query span.
    slow_traces = payload["slow"]
    assert slow_traces
    spans = [
        span
        for trace in slow_traces
        for span in trace["spans"]
        if span["name"] == "storage.query"
    ]
    assert spans
    assert any("shard" in span["tags"] for span in spans)
    assert all("strategy" in span["tags"] for span in spans)


def test_ops_traces_validates_limit():
    server, gateway = _telemetry_server()
    status, _, _ = gateway.handle_wire("GET", "/v1/ops/traces", query={"limit": "x"})
    assert status == 400
    status, _, _ = gateway.handle_wire("GET", "/v1/ops/traces", query={"limit": "0"})
    assert status == 400


def test_ops_traces_limit_parses_like_a_page_limit_but_is_uncapped():
    server, gateway = _telemetry_server(
        telemetry=TelemetryConfig(slow_query_threshold_s=0.0)
    )
    # The same parser answers both routes, with the same messages.
    for raw in ("x", "0", "-3", "1.5"):
        page = gateway.handle_wire("GET", "/v1/users", query={"limit": raw})
        ops = gateway.handle_wire("GET", "/v1/ops/traces", query={"limit": raw})
        assert page[0] == ops[0] == 400
        assert json.loads(page[1])["error"] == json.loads(ops[1])["error"]
    # Every read is slow at a zero threshold: fill the log past a page's cap.
    for _ in range(130):
        for index in (0, 1):
            gateway.handle_wire("GET", f"/v1/users/user-{index:03d}/feedback")
    assert server.telemetry.slow_queries.recorded > MAX_PAGE_LIMIT
    status, body, _ = gateway.handle_wire("GET", "/v1/ops/traces", query={"limit": "256"})
    assert status == 200
    assert len(json.loads(body)["slow_queries"]) > MAX_PAGE_LIMIT
    status, body, _ = gateway.handle_wire("GET", "/v1/ops/traces")
    assert len(json.loads(body)["slow_queries"]) == DEFAULT_PAGE_LIMIT


def test_storage_and_worker_collectors_populate_gauges():
    server, gateway = _telemetry_server()
    _drive_mixed_workload(gateway)
    snapshot = server.telemetry.metrics_snapshot()
    rows = snapshot["gauges"]["storage_rows"]["series"]
    by_key = {
        (entry["labels"]["database"], entry["labels"]["shard"]): entry["value"]
        for entry in rows
    }
    assert by_key[("profiles", "all")] == 6.0
    # Per-shard entries sum to the merged value.
    per_shard = sum(
        value for (database, shard), value in by_key.items()
        if database == "profiles" and shard != "all"
    )
    assert per_shard == by_key[("profiles", "all")]
    strategies = {
        entry["labels"]["strategy"]
        for entry in snapshot["counters"]["storage_queries_total"]["series"]
    }
    assert "index_page" in strategies


# Message bus dead letters -------------------------------------------------


def test_dead_letter_records_and_counter():
    registry = MetricsRegistry()
    bus = MessageBus(registry)
    bus.publish("orphan.topic", {})  # no subscriber: counted, not dead-lettered

    def bad_handler(message):
        raise RuntimeError("boom")

    def good_handler(message):
        pass

    bus.subscribe("mixed.topic", bad_handler)
    bus.subscribe("mixed.topic", good_handler)
    bus.subscribe("failing.topic", bad_handler)
    bus.publish("mixed.topic", {})
    bus.publish("failing.topic", {})

    records = bus.dead_letter_records()
    assert [(r.topic, r.reason) for r in records] == [
        ("mixed.topic", "handler_error"),
        ("failing.topic", "handler_error"),
        ("failing.topic", "all_handlers_failed"),
    ]
    assert records[0].handler and "bad_handler" in records[0].handler
    assert "boom" in records[0].error
    assert records[2].handler is None
    assert bus.dead_letter_records(topic="mixed.topic")[0].reason == "handler_error"

    counter = registry.counter(
        "bus_dead_letters_total", labels=("topic", "reason")
    )
    assert counter.labels(topic="mixed.topic", reason="handler_error").value == 1.0
    assert counter.labels(topic="failing.topic", reason="handler_error").value == 1.0
    assert counter.labels(topic="failing.topic", reason="all_handlers_failed").value == 1.0
    published = registry.counter("bus_published_total", labels=("topic",))
    assert [
        published.labels(topic=topic).value
        for topic in ("orphan.topic", "mixed.topic", "failing.topic")
    ] == [1.0, 1.0, 1.0]


def test_server_bus_dead_letters_flow_into_registry():
    server, gateway = _telemetry_server()

    def failing(message):
        raise RuntimeError("subscriber crashed")

    server.bus.subscribe("user.registered", failing)
    server.register_user(UserProfile(user_id="u-new", display_name="New"))
    snapshot = server.telemetry.metrics_snapshot()
    series = snapshot["counters"]["bus_dead_letters_total"]["series"]
    reasons = {
        (entry["labels"]["topic"], entry["labels"]["reason"]): entry["value"]
        for entry in series
    }
    assert reasons[("user.registered", "handler_error")] >= 1.0


# Compaction parity --------------------------------------------------------


def _ingest_rounds(server, *, rounds=3):
    for round_index in range(rounds):
        for index in range(6):
            user_id = f"user-{index:03d}"
            server.users.ingest_fixes(
                _fixes_for(user_id, t0=round_index * 86400.0), skip_stale=True
            )


def test_compaction_reports_identical_apart_from_timing_fields():
    """A full pass and one single-shard pass per shard report the same work."""
    servers = []
    for _ in range(2):
        reset_ids()
        server = PphcrServer(config=ServerConfig(sharding=ShardingConfig(shards=4)))
        for index in range(6):
            server.register_user(
                UserProfile(user_id=f"user-{index:03d}", display_name=f"User {index}")
            )
        reset_ids()
        _ingest_rounds(server)
        servers.append(server)
    full, per_shard = servers
    keep = 86400.0
    report_full = full.compactor.run_pass(keep_window_s=keep)
    reports = [
        per_shard.compactor.run_pass(keep_window_s=keep, shard=shard)
        for shard in range(per_shard.shard_count)
    ]
    # Identical apart from the timing field...
    removed = {}
    for report in reports:
        removed.update(report.removed)
    assert removed == report_full.removed
    assert sorted(
        user for report in reports for user in report.visited_users
    ) == sorted(report_full.visited_users)
    for field in ("unchanged_users", "deferred_users", "skipped_users"):
        assert sum(getattr(report, field) for report in reports) == getattr(
            report_full, field
        )
    assert report_full.shard is None
    assert [report.shard for report in reports] == [0, 1, 2, 3]
    # ...which covers the same shards either way (values differ).
    timed_shards = set()
    for report in reports:
        timed_shards.update(report.shard_elapsed_s)
    assert timed_shards == set(report_full.shard_elapsed_s)
    assert all(value >= 0.0 for value in report_full.shard_elapsed_s.values())
    expected_shards = {
        full.users.shard_of(user) for user in report_full.visited_users
    }
    assert expected_shards <= set(report_full.shard_elapsed_s)
    # Both leave identical stores behind.
    for index in range(6):
        user_id = f"user-{index:03d}"
        assert full.users.tracking.fixes_for(user_id) == per_shard.users.tracking.fixes_for(
            user_id
        )


def test_compaction_pass_records_metrics():
    server, gateway = _telemetry_server()
    _ingest_rounds(server)
    server.compact_tracking_data(keep_window_s=86400.0)
    snapshot = server.telemetry.metrics_snapshot()
    pass_hist = snapshot["histograms"]["compaction_pass_seconds"]["series"]
    assert pass_hist and pass_hist[0]["count"] == 1
    shard_gauge = snapshot["gauges"]["compaction_shard_seconds"]["series"]
    assert shard_gauge
    removed_total = snapshot["counters"]["compaction_fixes_removed_total"]["series"]
    assert removed_total and removed_total[0]["value"] >= 0.0


# Streaming instrumentation ------------------------------------------------


def test_streaming_batch_ingest_records_per_shard_histograms():
    server, gateway = _telemetry_server()
    _ingest_rounds(server, rounds=1)
    snapshot = server.telemetry.metrics_snapshot()
    ingest = snapshot["histograms"]["streaming_ingest_seconds"]["series"]
    assert ingest
    assert all(entry["count"] >= 1 for entry in ingest)


def test_write_path_series_match_what_was_written(tmp_path):
    """The WAL and streaming-ingest series are resolved once per key and
    reused; the registry still holds exactly what the writes produced: one
    ``wal_appends_total`` series per log, equal to its frame count, byte and
    fsync totals over every frame, and one ingest sample per shard batch."""
    reset_ids()
    server = PphcrServer(
        config=ServerConfig(
            sharding=ShardingConfig(shards=4),
            durability=DurabilityConfig(enabled=True, directory=str(tmp_path / "wal")),
        )
    )
    try:
        gateway = Gateway(server)
        expected_ingests = {}
        for index in range(6):
            server.register_user(
                UserProfile(user_id=f"user-{index:03d}", display_name=f"User {index}")
            )
        for round_index in range(3):
            for index in range(6):
                user_id = f"user-{index:03d}"
                fixes = [
                    {"lat": fix.position.lat, "lon": fix.position.lon, "timestamp_s": fix.timestamp_s}
                    for fix in _fixes_for(user_id, t0=round_index * 86400.0)
                ]
                status, _, _ = gateway.handle_wire(
                    "POST", "/v1/tracking/batch",
                    json.dumps({"user_id": user_id, "fixes": fixes}),
                )
                assert status == 202
                shard = str(server.users.shard_of(user_id))
                expected_ingests[shard] = expected_ingests.get(shard, 0) + 1
        server.durability.flush()
        logs = log_paths(server.durability.directory)
        frames = {path.stem: len(scan_frames(path.read_bytes())[0]) for path in logs}
        snapshot = server.telemetry.metrics_snapshot()
        appends = {
            entry["labels"]["shard"]: entry["value"]
            for entry in snapshot["counters"]["wal_appends_total"]["series"]
        }
        assert appends == {key: float(count) for key, count in frames.items()}
        assert len(appends) >= 3
        (wal_bytes,) = snapshot["counters"]["wal_bytes_total"]["series"]
        assert wal_bytes == {
            "labels": {},
            "value": float(sum(path.stat().st_size for path in logs)),
        }
        (fsync,) = snapshot["histograms"]["wal_fsync_seconds"]["series"]
        assert fsync["labels"] == {}
        assert fsync["count"] == sum(frames.values())
        ingest = {
            entry["labels"]["shard"]: entry["count"]
            for entry in snapshot["histograms"]["streaming_ingest_seconds"]["series"]
        }
        assert ingest == expected_ingests
        assert len(ingest) >= 2
    finally:
        server.durability.close()


# Dashboard ----------------------------------------------------------------


def test_dashboard_ops_report_includes_telemetry():
    server, gateway = _telemetry_server(
        telemetry=TelemetryConfig(slow_query_threshold_s=0.0)
    )
    _drive_mixed_workload(gateway)
    dashboard = ControlDashboard(server.users, server.content)
    report = dashboard.ops_report(telemetry=server.telemetry)
    assert report.metrics is not None
    assert report.slow_queries
    lines = report.summary_lines()
    assert any("route latency" in line for line in lines)
    assert any("slow queries" in line for line in lines)
    # Request counts come from the registry's api_requests_total.
    requests = report.metrics["counters"]["api_requests_total"]["series"]
    assert f"api gateway: {int(sum(entry['value'] for entry in requests))} requests" in lines
    # Without telemetry the report covers storage only.
    storage_only = dashboard.ops_report()
    assert storage_only.metrics is None and storage_only.slow_queries is None


# Disabled path and snapshot exclusion -------------------------------------


def test_disabled_telemetry_is_a_noop_everywhere():
    server, gateway = _telemetry_server(
        telemetry=TelemetryConfig(enabled=False)
    )
    assert isinstance(server.telemetry.metrics, NullRegistry)
    assert isinstance(server.telemetry.tracer, NullTracer)
    _drive_mixed_workload(gateway)
    status, body, _ = gateway.handle_wire("GET", "/v1/ops/metrics")
    assert (status, json.loads(body)) == (200, {"enabled": False})
    status, body, _ = gateway.handle_wire("GET", "/v1/ops/traces")
    assert (status, json.loads(body)) == (200, {"enabled": False})
    snapshot = server.telemetry.metrics_snapshot()
    assert snapshot == {"counters": {}, "gauges": {}, "histograms": {}}
    assert server.telemetry.prometheus_text() == ""
    assert server.telemetry.tracer.recent() == []


def test_telemetry_config_validates():
    with pytest.raises(PipelineError):
        TelemetryConfig(slow_query_threshold_s=-1.0)


def test_telemetry_excluded_from_server_snapshot_by_design():
    server, gateway = _telemetry_server()
    _drive_mixed_workload(gateway)
    payload = server.snapshot()
    assert "telemetry" not in payload
    assert "metrics" not in payload
    # A restore into a fresh server starts with fresh counters — exactly
    # like a restarted process would.
    reset_ids()
    restored = PphcrServer(
        config=ServerConfig(sharding=ShardingConfig(shards=4))
    )
    restored.restore_snapshot(payload)
    families = restored.telemetry.metrics_snapshot()
    latency = families["histograms"].get("api_request_seconds", {"series": []})
    assert latency["series"] == []
