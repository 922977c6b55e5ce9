"""CI perf-smoke runner for the tracked hot paths.

Times each optimized hot path (with a reference-path sample for comparison)
and emits machine-readable ops/sec numbers to ``benchmarks/results/`` so
the performance trajectory is tracked from PR to PR:

* ``BENCH_geo_scoring.json`` — batched geographic-relevance scoring
  (PR 1's fast path vs. the per-clip reference path);
* ``BENCH_streaming_ingest.json`` — streaming mobility mining
  (sessionizer + incremental models vs. per-tick batch rebuilds);
* ``BENCH_route_clustering.json`` — signature-cached route-cluster
  coherence (PR 3's fast path vs. the pairwise-resampling reference);
* ``BENCH_api_gateway.json`` — gateway request throughput (PR 4's batch
  tracking ingest vs. per-call posts, ETag revalidation vs. cold
  recommendation reads);
* ``BENCH_storage_engine.json`` — index-aware query planning (PR 5's
  declarative indexes + planner vs. the full-scan reference path);
* ``BENCH_shard_overhead.json`` — what a 4-shard layout costs over one
  shard on the same ``commute``-shaped multi-user tracking batches (CPU
  only, no wire wait; responses and stores asserted identical), with the
  ratio ceiling CI asserts;
* ``BENCH_telemetry_overhead.json`` — unified telemetry cost (PR 7's
  instrumented gateway drive vs. the disabled no-op path over the same
  mixed wire workload, asserted under the 5% budget);
* ``BENCH_world_replay.json`` — wire-level scenario replays (PR 8's
  load generator: rush hour, flash crowd, broadcast→unicast handover)
  with per-scenario p50/p95/p99 request latency, script and response
  digests, asserted under the recorded p95 ceiling;
* ``BENCH_wal_durability.json`` — write-ahead-log cost (PR 9's durable
  serving drive vs. the identical no-WAL drive, asserted under the 10%
  budget) and recovery time (snapshot + WAL tail vs. full client
  re-ingest of the whole stream).

Run:  PYTHONPATH=src python benchmarks/perf_smoke.py
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))  # for the bench_* modules

from bench_concurrent_serving import (  # noqa: E402
    BATCH_FIXES_PER_USER,
    BATCH_USERS,
    OVERHEAD_ROUNDS as SHARD_OVERHEAD_ROUNDS,
    SHARD_OVERHEAD_CEILING,
    SHARDS as SERVING_SHARDS,
    WIRE_IO_S,
    build_batch_stream,
    build_workload as build_serving_workload,
    run_parity_phase as run_serving_parity,
    run_shard_overhead_phase,
)
from bench_telemetry_overhead import (  # noqa: E402
    OVERHEAD_CEILING_PCT,
    ROUNDS as OVERHEAD_ROUNDS,
    run_overhead_phase,
)
from bench_api_gateway import (  # noqa: E402
    DRIVE_FIXES,
    REVALIDATION_ROUNDS,
    USERS as GATEWAY_USERS,
    assert_ingest_equivalent,
    build_ingest_workload,
    build_read_world,
    encode_payloads,
    run_batch_ingest,
    run_cold_reads,
    run_conditional_reads,
    run_single_fix_ingest,
)
from bench_perf_geo_scoring import (  # noqa: E402
    CLIP_COUNT,
    ROUTE_SAMPLES,
    build_workload,
    fast_scores,
    reference_scores,
)
from bench_perf_route_clustering import (  # noqa: E402
    REFERENCE_SUBSET as CLUSTERING_REFERENCE_SUBSET,
    TRIP_COUNT,
    build_history,
    cluster_trips,
    fast_run,
    reference_subset_run,
)
from bench_storage_engine import (  # noqa: E402
    QUERIES as STORAGE_QUERIES,
    ROWS as STORAGE_ROWS,
    SCAN_SUBSET as STORAGE_SCAN_SUBSET,
    assert_parity as assert_storage_parity,
    build_workload as build_storage_workload,
    run_workload as run_storage_workload,
)
from bench_wal_durability import (  # noqa: E402
    OVERHEAD_CEILING_PCT as WAL_OVERHEAD_CEILING_PCT,
    run_overhead_phase as run_wal_overhead,
    run_recovery_phase as run_wal_recovery,
)
from bench_world_replay import (  # noqa: E402
    COMMUTERS as REPLAY_COMMUTERS,
    P95_CEILING_MS,
    SCRIPT_SEED as REPLAY_SCRIPT_SEED,
    SHARDS as REPLAY_SHARDS,
    run_all_scenarios,
)
from bench_streaming_ingest import (  # noqa: E402
    BASELINE_SUBSET,
    DAYS,
    USERS,
    assert_stream_equivalent,
    build_fix_ticks,
    run_batch_replay,
    run_streaming_replay,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Reference path is ~an order of magnitude slower; time a subset and scale.
REFERENCE_SUBSET = 500
FAST_ROUNDS = 3


def _write(name: str, payload: dict) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


def smoke_geo_scoring() -> str:
    route, clips, index = build_workload()
    position = route.start
    destination = route.end

    # Reference path over a subset (it is the slow side being replaced).
    subset = clips[:REFERENCE_SUBSET]
    start = time.perf_counter()
    reference_scores(route, subset, position, destination)
    reference_elapsed = time.perf_counter() - start
    reference_ops = len(subset) / reference_elapsed

    # Fast path over the full workload, best of a few rounds.
    best_elapsed = float("inf")
    for _ in range(FAST_ROUNDS):
        start = time.perf_counter()
        fast_scores(route, clips, index, position, destination)
        best_elapsed = min(best_elapsed, time.perf_counter() - start)
    fast_ops = len(clips) / best_elapsed

    payload = {
        "bench": "geo_scoring",
        "unix_time_s": round(time.time(), 3),
        "workload": {
            "clips": CLIP_COUNT,
            "route_samples": ROUTE_SAMPLES,
            "reference_subset": REFERENCE_SUBSET,
        },
        "results": {
            "reference_clips_per_s": round(reference_ops, 1),
            "fast_clips_per_s": round(fast_ops, 1),
            "speedup": round(fast_ops / reference_ops, 2),
            "fast_elapsed_ms": round(best_elapsed * 1000.0, 2),
        },
    }
    path = _write("BENCH_geo_scoring.json", payload)
    print(
        f"geo-scoring smoke: fast path {fast_ops:,.0f} clips/s "
        f"(reference {reference_ops:,.0f} clips/s, {fast_ops / reference_ops:.1f}x)"
    )
    return path


def smoke_streaming_ingest() -> str:
    ticks, histories = build_fix_ticks()
    total_fixes = sum(len(tick) for tick in ticks)
    subset_users = sorted(histories.keys())[:BASELINE_SUBSET]

    baseline_elapsed, _baseline_fixes = run_batch_replay(ticks, subset_users)
    baseline_total_elapsed = baseline_elapsed * (USERS / BASELINE_SUBSET)

    streaming_elapsed, _streamed, engine = run_streaming_replay(ticks)

    # Guard the equivalence claim in CI too (a handful of users is enough).
    sample = sorted(histories.keys())[:: max(1, USERS // 10)]
    assert_stream_equivalent(engine, histories, sample)

    streaming_ops = total_fixes / streaming_elapsed
    baseline_ops = total_fixes / baseline_total_elapsed
    payload = {
        "bench": "streaming_ingest",
        "unix_time_s": round(time.time(), 3),
        "workload": {
            "users": USERS,
            "days": DAYS,
            "fixes": total_fixes,
            "baseline_subset": BASELINE_SUBSET,
        },
        "results": {
            "baseline_fixes_per_s": round(baseline_ops, 1),
            "streaming_fixes_per_s": round(streaming_ops, 1),
            "speedup": round(streaming_ops / baseline_ops, 2),
            "streaming_elapsed_ms": round(streaming_elapsed * 1000.0, 2),
        },
    }
    path = _write("BENCH_streaming_ingest.json", payload)
    print(
        f"streaming-ingest smoke: {streaming_ops:,.0f} fixes/s to fresh models "
        f"(per-tick batch rebuild {baseline_ops:,.0f} fixes/s, "
        f"{streaming_ops / baseline_ops:.1f}x)"
    )
    return path


def smoke_route_clustering() -> str:
    trips, stay_points = build_history()

    # Reference path over a per-cluster pair subset (the slow side being
    # replaced), scaled to the full pair count.
    reference_clusters = cluster_trips(trips, stay_points)
    total_pairs = sum(
        len(c.trips) * (len(c.trips) - 1) // 2 for c in reference_clusters
    )
    start = time.perf_counter()
    reference_values, subset_pairs = reference_subset_run(
        reference_clusters, CLUSTERING_REFERENCE_SUBSET
    )
    reference_elapsed = time.perf_counter() - start
    reference_scaled = reference_elapsed * (total_pairs / subset_pairs)
    reference_ops = total_pairs / reference_scaled

    # Fast path: cluster the history and read every coherence.  The first
    # call pays the signature builds; later rounds measure warm reads.
    best_elapsed = float("inf")
    for _ in range(FAST_ROUNDS):
        start = time.perf_counter()
        clusters, _ = fast_run(trips, stay_points)
        best_elapsed = min(best_elapsed, time.perf_counter() - start)
    fast_ops = total_pairs / best_elapsed

    # Equivalence guard: the subset values the reference produced must match
    # the running-sum path on the same trips.
    from repro.trajectory.clustering import RouteCluster

    max_diff = 0.0
    for cluster in clusters:
        key = (cluster.origin_stay_point, cluster.destination_stay_point)
        subset_cluster = RouteCluster(
            cluster_id=cluster.cluster_id,
            origin_stay_point=key[0],
            destination_stay_point=key[1],
            trips=list(cluster.trips[:CLUSTERING_REFERENCE_SUBSET]),
        )
        max_diff = max(
            max_diff, abs(subset_cluster.geometric_coherence() - reference_values[key])
        )
    assert max_diff <= 1e-9, f"fast clustering diverged from reference by {max_diff}"

    payload = {
        "bench": "route_clustering",
        "unix_time_s": round(time.time(), 3),
        "workload": {
            "trips": TRIP_COUNT,
            "pairs": total_pairs,
            "reference_subset_per_cluster": CLUSTERING_REFERENCE_SUBSET,
        },
        "results": {
            "reference_pairs_per_s": round(reference_ops, 1),
            "fast_pairs_per_s": round(fast_ops, 1),
            "speedup": round(fast_ops / reference_ops, 2),
            "fast_elapsed_ms": round(best_elapsed * 1000.0, 2),
            "max_coherence_diff": max_diff,
        },
    }
    path = _write("BENCH_route_clustering.json", payload)
    print(
        f"route-clustering smoke: fast path {fast_ops:,.0f} pairs/s "
        f"(reference {reference_ops:,.0f} pairs/s, {fast_ops / reference_ops:.1f}x)"
    )
    return path


def smoke_api_gateway() -> str:
    drives = build_ingest_workload()
    single_payloads, batch_payloads = encode_payloads(drives)
    total_fixes = GATEWAY_USERS * DRIVE_FIXES

    single_elapsed, single_server = run_single_fix_ingest(drives, single_payloads)
    batch_elapsed = float("inf")
    batch_server = None
    for _ in range(FAST_ROUNDS):
        elapsed, server = run_batch_ingest(drives, batch_payloads)
        if elapsed < batch_elapsed:
            batch_elapsed, batch_server = elapsed, server
    assert_ingest_equivalent(single_server, batch_server, drives.keys())

    gateway, readers, now_s = build_read_world()
    cold_elapsed, etags = run_cold_reads(gateway, readers, now_s)
    conditional_elapsed = run_conditional_reads(
        gateway, readers, etags, now_s, REVALIDATION_ROUNDS
    )
    single_ops = total_fixes / single_elapsed
    batch_ops = total_fixes / batch_elapsed
    cold_ops = len(readers) / cold_elapsed
    cached_ops = len(readers) * REVALIDATION_ROUNDS / conditional_elapsed

    payload = {
        "bench": "api_gateway",
        "unix_time_s": round(time.time(), 3),
        "workload": {
            "users": GATEWAY_USERS,
            "fixes_per_drive": DRIVE_FIXES,
            "readers": len(readers),
            "revalidation_rounds": REVALIDATION_ROUNDS,
        },
        "results": {
            "single_fixes_per_s": round(single_ops, 1),
            "batch_fixes_per_s": round(batch_ops, 1),
            "ingest_speedup": round(batch_ops / single_ops, 2),
            "cold_reads_per_s": round(cold_ops, 1),
            "revalidated_reads_per_s": round(cached_ops, 1),
            "read_speedup": round(cached_ops / cold_ops, 2),
        },
    }
    path = _write("BENCH_api_gateway.json", payload)
    print(
        f"api-gateway smoke: batch ingest {batch_ops:,.0f} fixes/s "
        f"(per-call {single_ops:,.0f} fixes/s, {batch_ops / single_ops:.1f}x); "
        f"ETag revalidation {cached_ops:,.0f} reads/s "
        f"(cold {cold_ops:,.0f} reads/s, {cached_ops / cold_ops:.1f}x)"
    )
    return path


def smoke_storage_engine() -> str:
    db, queries = build_storage_workload()
    assert_storage_parity(db, queries[:20])

    scan_elapsed, _scan_results = run_storage_workload(
        db, queries[:STORAGE_SCAN_SUBSET], scan=True
    )
    scan_scaled = scan_elapsed * (STORAGE_QUERIES / STORAGE_SCAN_SUBSET)

    best_elapsed = float("inf")
    for _ in range(FAST_ROUNDS):
        elapsed, _results = run_storage_workload(db, queries, scan=False)
        best_elapsed = min(best_elapsed, elapsed)

    scan_ops = STORAGE_QUERIES / scan_scaled
    fast_ops = STORAGE_QUERIES / best_elapsed
    stats = db.table("clips").stats()
    payload = {
        "bench": "storage_engine",
        "unix_time_s": round(time.time(), 3),
        "workload": {
            "rows": STORAGE_ROWS,
            "queries": STORAGE_QUERIES,
            "scan_subset": STORAGE_SCAN_SUBSET,
        },
        "results": {
            "scan_queries_per_s": round(scan_ops, 1),
            "indexed_queries_per_s": round(fast_ops, 1),
            "speedup": round(fast_ops / scan_ops, 2),
            "indexed_elapsed_ms": round(best_elapsed * 1000.0, 2),
            "index_hits": stats["index_hits"],
        },
    }
    path = _write("BENCH_storage_engine.json", payload)
    print(
        f"storage-engine smoke: planner {fast_ops:,.0f} queries/s "
        f"(scan {scan_ops:,.0f} queries/s, {fast_ops / scan_ops:.1f}x)"
    )
    return path


def smoke_shard_overhead() -> str:
    payloads, ops = build_serving_workload()
    # The parity replay is part of the claim: identical responses from both
    # shard layouts before any timing is believed.
    run_serving_parity(payloads, ops)
    bodies = build_batch_stream()
    single_best, sharded_best, ratio = run_shard_overhead_phase(bodies)
    payload = {
        "bench": "shard_overhead",
        "unix_time_s": round(time.time(), 3),
        "workload": {
            "batches": len(bodies),
            "users_per_batch": BATCH_USERS,
            "fixes_per_user": BATCH_FIXES_PER_USER,
            "shards": SERVING_SHARDS,
            "rounds": SHARD_OVERHEAD_ROUNDS,
        },
        "results": {
            "single_shard_best_ms": round(single_best * 1000.0, 2),
            "sharded_best_ms": round(sharded_best * 1000.0, 2),
            "ratio": round(ratio, 3),
            "ratio_ceiling": SHARD_OVERHEAD_CEILING,
        },
    }
    path = _write("BENCH_shard_overhead.json", payload)
    print(
        f"shard-overhead smoke: {SERVING_SHARDS} shards {sharded_best * 1000.0:,.0f} ms "
        f"vs 1 shard {single_best * 1000.0:,.0f} ms for {len(bodies)} multi-user "
        f"batches (median paired ratio {ratio:.2f}x, ceiling {SHARD_OVERHEAD_CEILING}x)"
    )
    return path


def smoke_telemetry_overhead() -> str:
    payloads, ops = build_serving_workload()
    noop_best, instrumented_best, overhead_pct, cpu_overhead_pct, _server = (
        run_overhead_phase(payloads, ops)
    )
    assert overhead_pct < OVERHEAD_CEILING_PCT, (
        f"telemetry overhead {overhead_pct:.2f}% exceeds the "
        f"{OVERHEAD_CEILING_PCT:.0f}% budget"
    )
    instrumented_ops = len(ops) / instrumented_best
    noop_ops = len(ops) / noop_best
    payload = {
        "bench": "telemetry_overhead",
        "unix_time_s": round(time.time(), 3),
        "workload": {
            "requests": len(ops),
            "shards": SERVING_SHARDS,
            "rounds": OVERHEAD_ROUNDS,
            "wire_io_ms": round(WIRE_IO_S * 1000.0, 2),
        },
        "results": {
            "noop_requests_per_s": round(noop_ops, 1),
            "instrumented_requests_per_s": round(instrumented_ops, 1),
            "overhead_pct": round(overhead_pct, 2),
            "cpu_overhead_pct": round(cpu_overhead_pct, 2),
            "overhead_ceiling_pct": OVERHEAD_CEILING_PCT,
            "instrumented_elapsed_ms": round(instrumented_best * 1000.0, 2),
        },
    }
    path = _write("BENCH_telemetry_overhead.json", payload)
    print(
        f"telemetry-overhead smoke: instrumented {instrumented_ops:,.0f} req/s "
        f"(no-op {noop_ops:,.0f} req/s, {overhead_pct:+.2f}% "
        f"within the {OVERHEAD_CEILING_PCT:.0f}% budget)"
    )
    return path


def smoke_wal_durability() -> str:
    import pathlib
    import tempfile

    payloads, ops = build_serving_workload()
    with tempfile.TemporaryDirectory(prefix="pphcr-wal-") as scratch:
        wal_root = pathlib.Path(scratch)
        best_off, best_on, overhead_pct, server_on = run_wal_overhead(
            payloads, ops, wal_root
        )
        assert overhead_pct < WAL_OVERHEAD_CEILING_PCT, (
            f"WAL append overhead {overhead_pct:.2f}% exceeds the "
            f"{WAL_OVERHEAD_CEILING_PCT:.0f}% budget"
        )
        recovery = run_wal_recovery(payloads, ops, wal_root)
        wal_stats = server_on.durability.stats()
    frames = sum(log["frames"] for log in wal_stats["logs"].values())
    wal_bytes = sum(log["bytes"] for log in wal_stats["logs"].values())
    payload = {
        "bench": "wal_durability",
        "unix_time_s": round(time.time(), 3),
        "workload": {
            "requests": len(ops),
            "wire_io_ms": round(WIRE_IO_S * 1000.0, 2),
            "wal_frames": frames,
            "wal_bytes": wal_bytes,
        },
        "results": {
            "off_requests_per_s": round(len(ops) / best_off, 1),
            "on_requests_per_s": round(len(ops) / best_on, 1),
            "overhead_pct": round(overhead_pct, 2),
            "overhead_ceiling_pct": WAL_OVERHEAD_CEILING_PCT,
            "recovery_ms": round(recovery["recovery_elapsed_s"] * 1000.0, 2),
            "reingest_ms": round(recovery["reingest_elapsed_s"] * 1000.0, 2),
            "recovery_speedup": round(recovery["recovery_speedup"], 2),
            "tail_frames": recovery["tail_frames"],
        },
    }
    path = _write("BENCH_wal_durability.json", payload)
    print(
        f"wal-durability smoke: durable serving {len(ops) / best_on:,.0f} req/s "
        f"(no-WAL {len(ops) / best_off:,.0f} req/s, {overhead_pct:+.2f}% within "
        f"the {WAL_OVERHEAD_CEILING_PCT:.0f}% budget); snapshot+tail recovery "
        f"{payload['results']['recovery_ms']:.0f} ms vs re-ingest "
        f"{payload['results']['reingest_ms']:.0f} ms "
        f"({recovery['recovery_speedup']:.1f}x)"
    )
    return path


def smoke_world_replay() -> str:
    runs = run_all_scenarios()
    scenarios = {}
    for name, (script, report) in runs.items():
        summary = report.summary()
        summary["script_fingerprint"] = script.fingerprint()
        assert summary["p95_ms"] <= P95_CEILING_MS, (
            f"{name} replay p95 {summary['p95_ms']:.2f} ms exceeds the "
            f"{P95_CEILING_MS:.0f} ms ceiling"
        )
        scenarios[name] = summary
    payload = {
        "bench": "world_replay",
        "unix_time_s": round(time.time(), 3),
        "workload": {
            "seed": REPLAY_SCRIPT_SEED,
            "commuters": REPLAY_COMMUTERS,
            "shards": REPLAY_SHARDS,
            "requests": sum(s["requests"] for s in scenarios.values()),
        },
        "results": {
            "p95_ceiling_ms": P95_CEILING_MS,
            "scenarios": scenarios,
        },
    }
    path = _write("BENCH_world_replay.json", payload)
    worst = max(scenarios.values(), key=lambda s: s["p95_ms"])
    print(
        f"world-replay smoke: {len(scenarios)} scenarios, "
        f"{payload['workload']['requests']} requests, worst p95 "
        f"{worst['p95_ms']:.2f} ms ({worst['scenario']}) within the "
        f"{P95_CEILING_MS:.0f} ms ceiling"
    )
    return path


def main() -> int:
    for path in (
        smoke_geo_scoring(),
        smoke_streaming_ingest(),
        smoke_route_clustering(),
        smoke_api_gateway(),
        smoke_storage_engine(),
        smoke_shard_overhead(),
        smoke_telemetry_overhead(),
        smoke_wal_durability(),
        smoke_world_replay(),
    ):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
