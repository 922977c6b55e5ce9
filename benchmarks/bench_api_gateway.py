"""PERF — gateway request throughput: batch vs. per-call, cached vs. cold.

The gateway redesign's two throughput claims, measured at the wire level
(JSON text in / JSON text out via ``Gateway.handle_wire``, auth enabled —
what an HTTP server in front of the gateway pays per request):

* **Batch tracking ingest** — a mobile client buffers a drive and uploads
  it as one ``POST /v1/tracking/batch`` request instead of one
  ``POST /v1/tracking`` call per fix.  The batch path pays the per-request
  costs (routing, middleware, auth, metrics, JSON codec, response
  envelope) once per drive instead of once per fix, and feeds the
  streaming engine through the bulk listener.  The bench asserts a >= 5x
  ingest throughput improvement for a 200-fix drive and that the two
  paths leave *identical* tracking stores and streaming mobility models.

* **Cacheable recommendation reads** — ``GET /v1/recommendations`` carries
  a freshness ETag keyed on the streaming-model epoch; a client that
  revalidates with ``If-None-Match`` while nothing changed gets a 304
  from O(1) counter reads instead of a recommender tick.  The bench
  asserts the revalidating path is >= 5x the cold path (in practice it is
  orders of magnitude faster).

* **Encode-once catalogue reads** — repeated cursor walks of a 1,500-clip
  catalogue and popularity-skewed clip reads, at the wire.  The gateway
  keeps each clip and clip-page 200's JSON text, so a repeated read skips
  the repository, the body build and the encoder.  The gate is byte
  parity: every page of the walk and every clip equals a freshly built
  body.  The per-read times are a trend, not a floor.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_api_gateway.py -q
"""

from __future__ import annotations

import json
import random
import time
from typing import Dict, List, Tuple

from conftest import format_table, write_result

from repro.content.model import AudioClip, ContentKind
from repro.geo import GeoPoint
from repro.geo.geodesy import destination_point
from repro.pipeline import Gateway, GatewayConfig, PphcrServer, RateLimitConfig
from repro.spatialdb import GpsFix
from repro.users.profile import UserProfile
from repro.util.rng import DeterministicRng

USERS = 20
#: One buffered drive per user — the acceptance workload.
DRIVE_FIXES = 200
FIX_INTERVAL_S = 20.0
SINGLE_ROUNDS = 2
BATCH_ROUNDS = 3

READ_USERS = 12
HISTORY_DAYS = 3
REVALIDATION_ROUNDS = 50

CATALOGUE_CLIPS = 1500
CATALOGUE_PAGE_LIMIT = "20"
#: Walks of the whole catalogue: the first builds every page, the rest
#: read them again.
CATALOGUE_WALKS = 4
#: Skewed clip reads per pass (two passes over the same picks).
CATALOGUE_CLIP_READS = 3000


# Ingest workload ----------------------------------------------------------


def _drive(rng: DeterministicRng, *, t0: float, n: int = DRIVE_FIXES) -> List[dict]:
    base = GeoPoint(45.07 + rng.uniform(-0.05, 0.05), 7.68 + rng.uniform(-0.05, 0.05))
    bearing = rng.uniform(0.0, 360.0)
    speed = rng.uniform(9.0, 14.0)
    fixes = []
    for index in range(n):
        position = destination_point(base, bearing, speed * FIX_INTERVAL_S * index)
        position = destination_point(
            position, rng.uniform(0.0, 360.0), abs(rng.gauss(0.0, 6.0))
        )
        fixes.append(
            {
                "lat": position.lat,
                "lon": position.lon,
                "timestamp_s": t0 + FIX_INTERVAL_S * index,
                "speed_mps": speed,
            }
        )
    return fixes


def build_ingest_workload(seed: int = 11) -> Dict[str, List[dict]]:
    """One 200-fix drive per user, as wire-format fix dictionaries."""
    rng = DeterministicRng(seed)
    return {
        f"user-{index:03d}": _drive(rng.fork("drive", index), t0=7.5 * 3600.0)
        for index in range(USERS)
    }


def _gateway_with_users(user_ids) -> Tuple[PphcrServer, Gateway, Dict[str, dict]]:
    """An auth-requiring gateway with one issued token per user."""
    server = PphcrServer()
    gateway = Gateway(server, GatewayConfig(require_auth=True))
    headers = {}
    for user_id in user_ids:
        server.register_user(UserProfile(user_id=user_id, display_name=user_id))
        headers[user_id] = {"authorization": f"Bearer {gateway.auth.issue(user_id)}"}
    return server, gateway, headers


def run_single_fix_ingest(
    drives: Dict[str, List[dict]], payloads: Dict[str, List[str]]
) -> Tuple[float, PphcrServer]:
    """Replay every drive one ``POST /v1/tracking`` request per fix."""
    server, gateway, headers = _gateway_with_users(drives)
    handle_wire = gateway.handle_wire
    start = time.perf_counter()
    for user_id in drives:
        user_headers = headers[user_id]
        for payload in payloads[user_id]:
            status, _body, _response_headers = handle_wire(
                "POST", "/v1/tracking", payload, headers=user_headers
            )
            assert status == 202
    return time.perf_counter() - start, server


def run_batch_ingest(
    drives: Dict[str, List[dict]], payloads: Dict[str, str]
) -> Tuple[float, PphcrServer]:
    """Upload every drive as one ``POST /v1/tracking/batch`` request."""
    server, gateway, headers = _gateway_with_users(drives)
    handle_wire = gateway.handle_wire
    start = time.perf_counter()
    for user_id in drives:
        status, body, _response_headers = handle_wire(
            "POST", "/v1/tracking/batch", payloads[user_id], headers=headers[user_id]
        )
        assert status == 202
        assert json.loads(body)["accepted"] == DRIVE_FIXES
    return time.perf_counter() - start, server


def encode_payloads(
    drives: Dict[str, List[dict]]
) -> Tuple[Dict[str, List[str]], Dict[str, str]]:
    """Pre-encode the wire payloads (client-side cost, excluded from both)."""
    single = {
        user_id: [json.dumps({"user_id": user_id, **fix}) for fix in drive]
        for user_id, drive in drives.items()
    }
    batch = {
        user_id: json.dumps({"user_id": user_id, "fixes": drive})
        for user_id, drive in drives.items()
    }
    return single, batch


def assert_ingest_equivalent(server_a: PphcrServer, server_b: PphcrServer, user_ids) -> None:
    """Both ingest paths must leave identical stores and mobility models."""
    for user_id in user_ids:
        assert server_a.users.tracking.fixes_for(user_id) == server_b.users.tracking.fixes_for(user_id), user_id
        snap_a = server_a.streaming.model_snapshot(user_id, include_open_tail=True)
        snap_b = server_b.streaming.model_snapshot(user_id, include_open_tail=True)
        assert (snap_a is None) == (snap_b is None), user_id
        if snap_a is None:
            continue
        assert snap_a.trip_count == snap_b.trip_count, user_id
        assert [
            (sp.stay_point_id, sp.center, sp.support, sp.total_dwell_s)
            for sp in snap_a.stay_points
        ] == [
            (sp.stay_point_id, sp.center, sp.support, sp.total_dwell_s)
            for sp in snap_b.stay_points
        ], user_id
        assert [
            (c.cluster_id, c.origin_stay_point, c.destination_stay_point, c.support)
            for c in snap_a.clusters
        ] == [
            (c.cluster_id, c.origin_stay_point, c.destination_stay_point, c.support)
            for c in snap_b.clusters
        ], user_id


# Read workload ------------------------------------------------------------


def build_read_world(seed: int = 23) -> Tuple[Gateway, List[str], float]:
    """A server with commute histories and clips, behind a plain gateway."""
    rng = DeterministicRng(seed)
    server = PphcrServer()
    categories = ["news-national", "economics", "culture", "cinema", "history"]
    for index in range(60):
        server.content.add_clip(
            AudioClip(
                clip_id=f"clip-{index:03d}",
                title=f"Clip {index}",
                kind=ContentKind.PODCAST,
                duration_s=90.0 + 10.0 * (index % 12),
                category_scores={categories[index % len(categories)]: 1.0},
                published_s=float(index),
            )
        )
    gateway = Gateway(server)
    user_ids = []
    for index in range(READ_USERS):
        user_id = f"reader-{index:03d}"
        user_ids.append(user_id)
        server.register_user(UserProfile(user_id=user_id, display_name=user_id))
        urng = rng.fork("reader", index)
        history: List[dict] = []
        for day in range(HISTORY_DAYS):
            history.extend(
                _drive(urng.fork("am", day), t0=day * 86400.0 + 7.5 * 3600.0, n=60)
            )
            history.extend(
                _drive(urng.fork("pm", day), t0=day * 86400.0 + 17.75 * 3600.0, n=60)
            )
        # A partial "today" commute so every reader is mid-drive at now_s —
        # the cold read then runs the whole pipeline (context building,
        # destination prediction, scoring), not the parked short-circuit.
        history.extend(
            _drive(urng.fork("am", HISTORY_DAYS), t0=HISTORY_DAYS * 86400.0 + 7.5 * 3600.0, n=30)
        )
        server.users.ingest_fixes(
            [
                GpsFix(
                    user_id,
                    fix["timestamp_s"],
                    GeoPoint(fix["lat"], fix["lon"]),
                    speed_mps=fix["speed_mps"],
                )
                for fix in history
            ],
            skip_stale=True,
        )
    now_s = HISTORY_DAYS * 86400.0 + 7.5 * 3600.0 + 30 * FIX_INTERVAL_S
    return gateway, user_ids, now_s


def run_cold_reads(gateway: Gateway, user_ids: List[str], now_s: float) -> Tuple[float, Dict[str, str]]:
    """First (uncached) recommendation read per user — a full pipeline run."""
    etags: Dict[str, str] = {}
    start = time.perf_counter()
    for user_id in user_ids:
        response = gateway.request(
            "GET", f"/v1/recommendations/{user_id}", query={"now_s": repr(now_s)}
        )
        assert response.status == 200, response.body
        etags[user_id] = response.header("etag")
    return time.perf_counter() - start, etags


def run_conditional_reads(
    gateway: Gateway, user_ids: List[str], etags: Dict[str, str], now_s: float, rounds: int
) -> float:
    """Revalidating reads while nothing changed — all must 304."""
    start = time.perf_counter()
    for _ in range(rounds):
        for user_id in user_ids:
            response = gateway.request(
                "GET",
                f"/v1/recommendations/{user_id}",
                query={"now_s": repr(now_s)},
                headers={"if-none-match": etags[user_id]},
            )
            assert response.status == 304
    return time.perf_counter() - start


# Catalogue reads -----------------------------------------------------------


def build_catalogue(seed: int = 29) -> Tuple[PphcrServer, Gateway, List[str]]:
    """A server with a ``CATALOGUE_CLIPS`` catalogue behind a plain gateway."""
    rng = random.Random(seed)
    server = PphcrServer()
    categories = ["news-national", "economics", "culture", "cinema", "history"]
    clip_ids = []
    for index in range(CATALOGUE_CLIPS):
        clip_id = f"clip-{index:05d}"
        clip_ids.append(clip_id)
        server.content.add_clip(
            AudioClip(
                clip_id=clip_id,
                title=f"Clip {index}",
                kind=ContentKind.PODCAST,
                duration_s=round(rng.uniform(60.0, 600.0), 1),
                category_scores={rng.choice(categories): round(rng.uniform(0.3, 1.0), 3)},
                published_s=float(rng.randrange(0, 86400 * 7, 60)),
            )
        )
    # One anonymous client reads the whole catalogue in a burst: the
    # limiter still runs on every read but never throttles it.
    gateway = Gateway(server, GatewayConfig(rate_limit=RateLimitConfig(capacity=1e9)))
    return server, gateway, clip_ids


def _fresh_text(server: PphcrServer, path: str, query: Dict[str, str]) -> str:
    """The wire text of a body built from the repository (a gateway's first read)."""
    response = Gateway(server).request("GET", path, query=query)
    assert response.status == 200, response.body
    return json.dumps(response.body, separators=(",", ":"))


def run_catalogue_phase(seed: int = 29) -> Dict[str, float]:
    """Cursor walks and skewed clip reads at the wire; parity-checked.

    Returns µs per page read on the first walk and on the warm walks, µs
    per clip read on the first and second pass over the same skewed picks,
    and the share of 200s served from the encoded-body map.
    """
    server, gateway, clip_ids = build_catalogue(seed)
    handle_wire = gateway.handle_wire
    walks: List[List[Tuple[Dict[str, str], str]]] = []
    walk_s: List[float] = []
    clock = time.perf_counter
    for _ in range(CATALOGUE_WALKS):
        pages: List[Tuple[Dict[str, str], str]] = []
        cursor = None
        elapsed = 0.0
        while True:
            query = {"limit": CATALOGUE_PAGE_LIMIT}
            if cursor is not None:
                query["cursor"] = cursor
            start = clock()
            status, text, _headers = handle_wire("GET", "/v1/clips", query=query)
            elapsed += clock() - start
            assert status == 200, text
            pages.append((query, text))
            # The client's decode of the page is not the server's cost.
            cursor = json.loads(text)["next_cursor"]
            if cursor is None:
                break
        walk_s.append(elapsed)
        walks.append(pages)
    rng = random.Random(f"catalogue-picks:{seed}")
    weights = [1.0 / (rank + 1) for rank in range(len(clip_ids))]
    picks = rng.choices(clip_ids, weights=weights, k=CATALOGUE_CLIP_READS)
    pass_s: List[float] = []
    clip_texts: Dict[str, str] = {}
    for _ in range(2):
        texts = []
        start = clock()
        for clip_id in picks:
            texts.append(handle_wire("GET", f"/v1/clips/{clip_id}"))
        pass_s.append(clock() - start)
        for clip_id, (status, text, _headers) in zip(picks, texts):
            assert status == 200, text
            assert clip_texts.setdefault(clip_id, text) == text
    hits = {
        entry["labels"]["result"]: entry["value"]
        for entry in server.telemetry.metrics_snapshot()["counters"][
            "api_encoded_responses_total"
        ]["series"]
    }
    # The gate: every read equals a freshly built body, byte for byte.
    for pages in walks[1:]:
        assert pages == walks[0]
    for query, text in walks[0]:
        assert text == _fresh_text(server, "/v1/clips", query), query
    for clip_id, text in clip_texts.items():
        assert text == _fresh_text(server, f"/v1/clips/{clip_id}", {}), clip_id
    pages_per_walk = len(walks[0])
    return {
        "pages_per_walk": pages_per_walk,
        "distinct_clips": len(clip_texts),
        "first_walk_us_per_page": walk_s[0] / pages_per_walk * 1e6,
        "warm_walk_us_per_page": sum(walk_s[1:]) / (len(walk_s) - 1) / pages_per_walk * 1e6,
        "first_pass_us_per_clip": pass_s[0] / len(picks) * 1e6,
        "second_pass_us_per_clip": pass_s[1] / len(picks) * 1e6,
        "hit_share": hits.get("hit", 0.0) / (hits.get("hit", 0.0) + hits.get("miss", 0.0)),
    }


# The benchmark ------------------------------------------------------------


def test_perf_api_gateway(benchmark):
    drives = build_ingest_workload()
    single_payloads, batch_payloads = encode_payloads(drives)
    total_fixes = USERS * DRIVE_FIXES

    single_elapsed = float("inf")
    single_server = None
    for _ in range(SINGLE_ROUNDS):
        elapsed, single_server = run_single_fix_ingest(drives, single_payloads)
        single_elapsed = min(single_elapsed, elapsed)

    batch_results = benchmark.pedantic(
        run_batch_ingest,
        args=(drives, batch_payloads),
        rounds=BATCH_ROUNDS,
        iterations=1,
    )
    batch_elapsed, batch_server = batch_results
    for _ in range(BATCH_ROUNDS - 1):
        elapsed, server = run_batch_ingest(drives, batch_payloads)
        if elapsed < batch_elapsed:
            batch_elapsed, batch_server = elapsed, server

    # Correctness first: both paths leave identical models.
    assert_ingest_equivalent(single_server, batch_server, drives.keys())

    ingest_speedup = single_elapsed / batch_elapsed
    assert ingest_speedup >= 5.0, (
        f"batch ingest only {ingest_speedup:.1f}x over per-call post_location "
        f"({single_elapsed * 1000.0:.0f}ms vs {batch_elapsed * 1000.0:.0f}ms "
        f"for {USERS} x {DRIVE_FIXES}-fix drives)"
    )

    gateway, readers, now_s = build_read_world()
    cold_elapsed, etags = run_cold_reads(gateway, readers, now_s)
    conditional_elapsed = run_conditional_reads(
        gateway, readers, etags, now_s, REVALIDATION_ROUNDS
    )
    cold_reads_per_s = len(readers) / cold_elapsed
    cached_reads_per_s = len(readers) * REVALIDATION_ROUNDS / conditional_elapsed
    read_speedup = cached_reads_per_s / cold_reads_per_s
    assert read_speedup >= 5.0, (
        f"ETag revalidation only {read_speedup:.1f}x over cold recommendation reads"
    )

    rows = [
        {
            "path": "per-call POST /v1/tracking (wire-level, auth)",
            "requests": total_fixes,
            "fixes": total_fixes,
            "elapsed_ms": f"{single_elapsed * 1000.0:.1f}",
            "throughput": f"{total_fixes / single_elapsed:.0f} fixes/s",
        },
        {
            "path": "batched POST /v1/tracking/batch (one request per drive)",
            "requests": USERS,
            "fixes": total_fixes,
            "elapsed_ms": f"{batch_elapsed * 1000.0:.1f}",
            "throughput": f"{total_fixes / batch_elapsed:.0f} fixes/s",
        },
        {
            "path": "cold GET /v1/recommendations (full pipeline)",
            "requests": len(readers),
            "fixes": "-",
            "elapsed_ms": f"{cold_elapsed * 1000.0:.1f}",
            "throughput": f"{cold_reads_per_s:.0f} reads/s",
        },
        {
            "path": "revalidating GET /v1/recommendations (ETag -> 304)",
            "requests": len(readers) * REVALIDATION_ROUNDS,
            "fixes": "-",
            "elapsed_ms": f"{conditional_elapsed * 1000.0:.1f}",
            "throughput": f"{cached_reads_per_s:.0f} reads/s",
        },
    ]
    lines = format_table(rows)
    lines.append("")
    lines.append(
        f"batch ingest speedup: {ingest_speedup:.1f}x   "
        f"ETag revalidation speedup: {read_speedup:.1f}x"
    )
    write_result("perf_api_gateway", lines)

    benchmark.extra_info["ingest_speedup"] = round(ingest_speedup, 1)
    benchmark.extra_info["read_speedup"] = round(read_speedup, 1)
    benchmark.extra_info["batch_fixes_per_s"] = round(total_fixes / batch_elapsed)
    benchmark.extra_info["single_fixes_per_s"] = round(total_fixes / single_elapsed)
    benchmark.extra_info["cached_reads_per_s"] = round(cached_reads_per_s)


def test_perf_catalogue_reads(benchmark):
    results = benchmark.pedantic(run_catalogue_phase, rounds=1, iterations=1)
    assert results["pages_per_walk"] == CATALOGUE_CLIPS // int(CATALOGUE_PAGE_LIMIT)
    for key, value in results.items():
        benchmark.extra_info[key] = round(value, 3)
