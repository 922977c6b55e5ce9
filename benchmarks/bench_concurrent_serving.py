"""PERF — shard layouts: what 4 shards cost over 1 on the same streams.

The shard router partitions every piece of per-user state (tracking
histories, profiles, feedback, streaming models) into crc32 shards, each
its own database.  Every request runs on the caller's thread whatever the
layout, so sharding buys placement (shard snapshots, moves, rebalancing),
not concurrency; this bench holds it to *same results, bounded cost*.

* **Parity** — a mixed wire-level op stream (buffered drive uploads,
  feedback posts, cold and conditional recommendation reads, merged
  listing walks) replays through a 1-shard and a 4-shard server and every
  response must be byte-identical (pagination cursors are opaque
  shard-layout handles, so ``next_cursor`` is normalized to presence; the
  *items* of full listing walks are compared instead), as must the final
  mobility models, merged listings and recommendations.  The other
  serving benches (telemetry overhead, WAL durability) reuse this stream
  and its helpers, with its simulated per-request client-link wait
  (``WIRE_IO_S``).
* **Shard overhead** — CPU only, no wire wait: ``commute``-shaped
  multi-user tracking batches (every user's fixes for one upload window
  in one ``POST /v1/tracking/batch``) stream through a 1-shard and a
  4-shard server in ``OVERHEAD_ROUNDS`` paired rounds.  The responses
  and the stores must match, and the median of the rounds' 4-shard/1-shard
  time ratios must stay under ``SHARD_OVERHEAD_CEILING``: a multi-shard
  batch may pay for per-shard grouping, not for dispatch.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_concurrent_serving.py -q
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

from conftest import format_table, write_result

from repro.content.model import AudioClip, ContentKind
from repro.geo import GeoPoint
from repro.geo.geodesy import destination_point
from repro.pipeline import Gateway, PphcrServer
from repro.pipeline.gateway.gateway import GatewayConfig
from repro.pipeline.server import ServerConfig
from repro.storage.sharding import ShardingConfig
from repro.users.profile import UserProfile
from repro.util.ids import reset_ids
from repro.util.rng import DeterministicRng

USERS = 24
ROUNDS = 3
FIXES_PER_ROUND = 30
FIX_INTERVAL_S = 20.0
REVALIDATIONS = 5
#: Page size for the merged listing reads (small enough to need cursors).
LIST_LIMIT = 10
SHARDS = 4
#: Per-request client-link transfer time: the wire wait an HTTP front end
#: pays per request (socket read/write), modelled as a sleep by the drives
#: that want a served request's whole cost.  Identical for every
#: configuration they compare.
WIRE_IO_S = 0.002
CLIPS = 40

#: Shard-overhead stream: upload windows, users per batch and fixes per
#: user per window (``commute``'s shape: 20 drivers, 10 s windows), and
#: the windows of each drive and each stop.
BATCH_WINDOWS = 300
BATCH_USERS = 20
BATCH_FIXES_PER_USER = 2
BATCH_WINDOW_S = 10.0
BATCH_DRIVE_WINDOWS = 60
BATCH_PARK_WINDOWS = 30
#: Paired rounds per layout (interleaved, so machine drift hits both).
OVERHEAD_ROUNDS = 5
#: Gate: median over rounds of the 4-shard over the 1-shard stream time.
SHARD_OVERHEAD_CEILING = 1.5

#: Op kinds: ("batch", user, round) / ("feedback", user, round)
#: ("rec", user, now_s) / ("reval", user, now_s)
#: ("users_list", None, None) / ("clips_list", None, None)
Op = Tuple[str, Optional[str], Any]


# Workload -----------------------------------------------------------------


def _drive(rng: DeterministicRng, *, t0: float) -> List[dict]:
    base = GeoPoint(45.07 + rng.uniform(-0.05, 0.05), 7.68 + rng.uniform(-0.05, 0.05))
    bearing = rng.uniform(0.0, 360.0)
    speed = rng.uniform(9.0, 14.0)
    fixes = []
    for index in range(FIXES_PER_ROUND):
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


def _round_t0(round_index: int) -> float:
    return round_index * 86400.0 + 7.5 * 3600.0


def user_ids() -> List[str]:
    return [f"user-{index:03d}" for index in range(USERS)]


def build_workload(seed: int = 17) -> Tuple[Dict[Tuple[str, int], str], List[Op]]:
    """Pre-encoded drive payloads plus the global request order.

    The op stream interleaves all users round by round — one buffered
    drive upload, one feedback post, one cold recommendation read and
    ``REVALIDATIONS`` conditional reads per user per round, with merged
    listing reads between rounds — the mixed ingest + read mix a serving
    node sees.
    """
    rng = DeterministicRng(seed)
    payloads: Dict[Tuple[str, int], str] = {}
    ops: List[Op] = []
    users = user_ids()
    for round_index in range(ROUNDS):
        t0 = _round_t0(round_index)
        now_s = t0 + FIX_INTERVAL_S * (FIXES_PER_ROUND - 1)
        for user_index, user_id in enumerate(users):
            drive = _drive(rng.fork("drive", user_id, round_index), t0=t0)
            payloads[(user_id, round_index)] = json.dumps(
                {"user_id": user_id, "fixes": drive}
            )
            ops.append(("batch", user_id, round_index))
            ops.append(("feedback", user_id, round_index))
            ops.append(("rec", user_id, now_s))
            for _ in range(REVALIDATIONS):
                ops.append(("reval", user_id, now_s))
        ops.append(("users_list", None, None))
        ops.append(("clips_list", None, None))
    return payloads, ops


def build_server(
    shards: int, *, telemetry=None, durability=None
) -> Tuple[PphcrServer, Gateway]:
    """A warmed server/gateway pair with the requested shard layout.

    ``telemetry`` overrides the server's :class:`TelemetryConfig` (the
    overhead bench drives the same workload with it enabled and disabled);
    None keeps the default (enabled).  ``durability`` overrides the
    :class:`DurabilityConfig` (the WAL bench drives the same workload with
    the log on and off); None keeps the default (off).
    """
    reset_ids()
    kwargs = {"sharding": ShardingConfig(shards=shards)}
    if telemetry is not None:
        kwargs["telemetry"] = telemetry
    if durability is not None:
        kwargs["durability"] = durability
    server = PphcrServer(config=ServerConfig(**kwargs))
    categories = ["news-national", "economics", "culture", "cinema", "history"]
    for index in range(CLIPS):
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
    for user_id in user_ids():
        server.register_user(UserProfile(user_id=user_id, display_name=user_id))
    return server, gateway


# Request execution --------------------------------------------------------


def execute_op(
    gateway: Gateway,
    payloads: Dict[Tuple[str, int], str],
    op: Op,
    etags: Dict[str, str],
    *,
    wire_io_s: float = 0.0,
) -> Tuple[int, str]:
    """Serve one op at the wire level; returns ``(status, body_json)``.

    ``etags`` accumulates the freshest recommendation validator per user.
    """
    kind, user_id, arg = op
    if wire_io_s > 0.0:
        time.sleep(wire_io_s)
    if kind == "batch":
        status, body, _headers = gateway.handle_wire(
            "POST", "/v1/tracking/batch", payloads[(user_id, arg)]
        )
        assert status == 202, body
    elif kind == "feedback":
        status, body, _headers = gateway.handle_wire(
            "POST",
            "/v1/feedback",
            json.dumps(
                {
                    "user_id": user_id,
                    "content_id": f"clip-{arg:03d}",
                    "kind": "like",
                    "timestamp_s": _round_t0(arg) + 600.0,
                }
            ),
        )
        assert status == 201, body
    elif kind == "rec":
        status, body, headers = gateway.handle_wire(
            "GET",
            f"/v1/recommendations/{user_id}",
            query={"now_s": repr(arg)},
        )
        assert status == 200, body
        etags[user_id] = headers["etag"]
    elif kind == "reval":
        status, body, _headers = gateway.handle_wire(
            "GET",
            f"/v1/recommendations/{user_id}",
            query={"now_s": repr(arg)},
            headers={"if-none-match": etags[user_id]},
        )
        assert status == 304, body
    elif kind == "users_list":
        status, body, _headers = gateway.handle_wire(
            "GET", "/v1/users", query={"limit": str(LIST_LIMIT)}
        )
        assert status == 200, body
    elif kind == "clips_list":
        status, body, _headers = gateway.handle_wire(
            "GET", "/v1/clips", query={"limit": str(LIST_LIMIT)}
        )
        assert status == 200, body
    else:  # pragma: no cover - workload construction error
        raise AssertionError(f"unknown op kind {kind!r}")
    return status, body


def run_serial(
    gateway: Gateway, payloads: Dict[Tuple[str, int], str], ops: List[Op]
) -> Tuple[float, List[float]]:
    """One thread serves every request in global order."""
    etags: Dict[str, str] = {}
    latencies: List[float] = []
    start = time.perf_counter()
    for op in ops:
        begin = time.perf_counter()
        execute_op(gateway, payloads, op, etags, wire_io_s=WIRE_IO_S)
        latencies.append(time.perf_counter() - begin)
    return time.perf_counter() - start, latencies


# Parity -------------------------------------------------------------------


def _normalized(body: str) -> Any:
    """Response body with pagination cursors reduced to their presence.

    Cursor tokens encode per-shard resume positions, so their *strings*
    are shard-layout specific by design; whether a next page exists — and
    every other byte of the body — must match exactly.
    """
    data = json.loads(body)
    if isinstance(data, dict) and "next_cursor" in data:
        data = dict(data)
        data["next_cursor"] = data["next_cursor"] is not None
    return data


def replay_for_parity(
    shards: int, payloads: Dict[Tuple[str, int], str], ops: List[Op]
) -> Tuple[List[Tuple[int, Any]], PphcrServer, Gateway]:
    """Serve the op stream on a fresh server; collect responses."""
    server, gateway = build_server(shards)
    etags: Dict[str, str] = {}
    responses = []
    for op in ops:
        status, body = execute_op(gateway, payloads, op, etags)
        responses.append((status, _normalized(body)))
    return responses, server, gateway


def walk_listing(gateway: Gateway, path: str, items_key: str) -> List[Any]:
    """Every item of a paginated listing, following each config's cursors."""
    items: List[Any] = []
    cursor: Optional[str] = None
    while True:
        query = {"limit": str(LIST_LIMIT)}
        if cursor is not None:
            query["cursor"] = cursor
        status, body, _headers = gateway.handle_wire("GET", path, query=query)
        assert status == 200, body
        data = json.loads(body)
        items.extend(data[items_key])
        cursor = data["next_cursor"]
        if cursor is None:
            return items


def model_fingerprint(server: PphcrServer, user_id: str) -> Any:
    snapshot = server.streaming.model_snapshot(user_id, include_open_tail=True)
    if snapshot is None:
        return None
    return (
        snapshot.trip_count,
        [
            (sp.stay_point_id, sp.center, sp.support, sp.total_dwell_s)
            for sp in snapshot.stay_points
        ],
        [
            (c.cluster_id, c.origin_stay_point, c.destination_stay_point, c.support)
            for c in snapshot.clusters
        ],
    )


def assert_end_state_equal(
    server_a: PphcrServer,
    gateway_a: Gateway,
    server_b: PphcrServer,
    gateway_b: Gateway,
) -> None:
    """Both servers must hold identical per-user state and listings."""
    now_s = _round_t0(ROUNDS)  # a fresh bucket: both sides re-evaluate
    for user_id in user_ids():
        assert server_a.users.tracking.fixes_for(user_id) == server_b.users.tracking.fixes_for(
            user_id
        ), user_id
        assert model_fingerprint(server_a, user_id) == model_fingerprint(
            server_b, user_id
        ), user_id
        response_a = gateway_a.request(
            "GET", f"/v1/recommendations/{user_id}", query={"now_s": repr(now_s)}
        )
        response_b = gateway_b.request(
            "GET", f"/v1/recommendations/{user_id}", query={"now_s": repr(now_s)}
        )
        assert response_a.status == response_b.status == 200
        assert response_a.body == response_b.body, user_id
    assert walk_listing(gateway_a, "/v1/users", "users") == walk_listing(
        gateway_b, "/v1/users", "users"
    )
    for user_id in user_ids():
        status_a, body_a, _h = gateway_a.handle_wire(
            "GET", f"/v1/users/{user_id}/feedback"
        )
        status_b, body_b, _h = gateway_b.handle_wire(
            "GET", f"/v1/users/{user_id}/feedback"
        )
        assert status_a == status_b == 200
        assert _normalized(body_a) == _normalized(body_b), user_id


# Shard overhead -----------------------------------------------------------


def build_batch_stream(seed: int = 23) -> List[str]:
    """Encoded multi-user tracking batches, one per upload window.

    Each of the first ``BATCH_USERS`` users shuttles between two places:
    ``BATCH_DRIVE_WINDOWS`` windows of driving, ``BATCH_PARK_WINDOWS``
    parked, then back, so trips complete along the stream.  Every window's
    request carries ``BATCH_FIXES_PER_USER`` fixes of each user, like
    ``commute``'s uploads.
    """
    rng = DeterministicRng(seed)
    users = user_ids()[:BATCH_USERS]
    step_s = BATCH_WINDOW_S / BATCH_FIXES_PER_USER
    drive = BATCH_DRIVE_WINDOWS * BATCH_FIXES_PER_USER
    leg = drive + BATCH_PARK_WINDOWS * BATCH_FIXES_PER_USER
    routes = {}
    for user_id in users:
        user_rng = rng.fork("shuttle", user_id)
        home = GeoPoint(
            45.07 + user_rng.uniform(-0.05, 0.05), 7.68 + user_rng.uniform(-0.05, 0.05)
        )
        routes[user_id] = (home, user_rng.uniform(0.0, 360.0), user_rng.uniform(9.0, 14.0))
    bodies = []
    for window in range(BATCH_WINDOWS):
        fixes = []
        for user_id in users:
            home, bearing, speed = routes[user_id]
            for index in range(BATCH_FIXES_PER_USER):
                tick = window * BATCH_FIXES_PER_USER + index
                driven = min(tick % leg, drive)
                outbound = (tick // leg) % 2 == 0
                distance_m = speed * step_s * (driven if outbound else drive - driven)
                position = destination_point(home, bearing, distance_m)
                fixes.append(
                    {
                        "user_id": user_id,
                        "lat": position.lat,
                        "lon": position.lon,
                        "timestamp_s": _round_t0(0) + tick * step_s,
                        "speed_mps": speed if tick % leg < drive else 0.0,
                    }
                )
        bodies.append(json.dumps({"fixes": fixes}))
    return bodies


def run_batch_stream(server: PphcrServer, bodies: List[str]) -> Tuple[float, List[str]]:
    """Post every batch in order; returns the elapsed time and the bodies.

    The gateway's rate-limiter clock follows the upload windows, as a
    device's would, so one client posting every window is never throttled.
    The collector runs once before the timed loop, so garbage from earlier
    rounds is not charged to whichever layout runs next; inside the loop it
    runs as it would when serving, charging each layout its own garbage.
    """
    window = [0]
    gateway = Gateway(
        server,
        GatewayConfig(clock=lambda: window[0] * BATCH_WINDOW_S),
    )
    responses = []
    gc.collect()
    start = time.perf_counter()
    for index, body in enumerate(bodies):
        window[0] = index
        status, response, _headers = gateway.handle_wire(
            "POST", "/v1/tracking/batch", body
        )
        assert status == 202, response
        responses.append(response)
    return time.perf_counter() - start, responses


def run_shard_overhead_phase(bodies: List[str]) -> Tuple[float, float, float]:
    """Interleaved 1-shard and 4-shard stream runs, results asserted equal.

    Returns each layout's best time and the median over rounds of the
    round's 4-shard/1-shard time ratio.  The two runs of a round are
    adjacent (which goes first alternates), so the ratio cancels the
    machine's speed drift that a ratio of two best times still carries.
    """
    best = {1: float("inf"), SHARDS: float("inf")}
    ratios = []
    outcome = {}
    for round_index in range(OVERHEAD_ROUNDS):
        elapsed = {}
        for shards in (1, SHARDS) if round_index % 2 == 0 else (SHARDS, 1):
            server, _gateway = build_server(shards)
            elapsed[shards], responses = run_batch_stream(server, bodies)
            best[shards] = min(best[shards], elapsed[shards])
            outcome[shards] = (server, responses)
        ratios.append(elapsed[SHARDS] / elapsed[1])
    (single, single_responses), (sharded, sharded_responses) = (
        outcome[1],
        outcome[SHARDS],
    )
    assert single_responses == sharded_responses
    for user_id in user_ids()[:BATCH_USERS]:
        assert single.users.tracking.fixes_for(user_id) == sharded.users.tracking.fixes_for(
            user_id
        ), user_id
        assert model_fingerprint(single, user_id) == model_fingerprint(
            sharded, user_id
        ), user_id
    return best[1], best[SHARDS], statistics.median(ratios)


# The benchmark ------------------------------------------------------------


def run_parity_phase(payloads, ops) -> None:
    """Identical responses from both shard layouts for the same stream."""
    responses_single, server_single, gateway_single = replay_for_parity(1, payloads, ops)
    responses_sharded, server_sharded, gateway_sharded = replay_for_parity(
        SHARDS, payloads, ops
    )
    assert responses_single == responses_sharded
    assert_end_state_equal(
        server_single, gateway_single, server_sharded, gateway_sharded
    )


def test_perf_shard_overhead(benchmark):
    payloads, ops = build_workload()
    run_parity_phase(payloads, ops)

    bodies = build_batch_stream()
    single_best, sharded_best, ratio = benchmark.pedantic(
        run_shard_overhead_phase, args=(bodies,), rounds=1, iterations=1
    )
    assert ratio <= SHARD_OVERHEAD_CEILING, (
        f"{SHARDS}-shard batch ingest took {ratio:.2f}x the 1-shard time "
        f"(ceiling {SHARD_OVERHEAD_CEILING}x) over {len(bodies)} batches"
    )

    fixes = len(bodies) * BATCH_USERS * BATCH_FIXES_PER_USER
    rows = [
        {
            "configuration": f"{shards} shard{'s' if shards > 1 else ''}",
            "batches": len(bodies),
            "best_ms": f"{elapsed * 1000.0:.0f}",
            "per_batch_ms": f"{elapsed * 1000.0 / len(bodies):.3f}",
            "fixes_per_s": f"{fixes / elapsed:.0f}",
        }
        for shards, elapsed in ((1, single_best), (SHARDS, sharded_best))
    ]
    lines = format_table(rows)
    lines.append("")
    lines.append(
        f"{SHARDS}-shard / 1-shard time: {ratio:.2f}x, median of {OVERHEAD_ROUNDS} "
        f"paired rounds (ceiling {SHARD_OVERHEAD_CEILING}x; {BATCH_USERS} users x "
        f"{BATCH_FIXES_PER_USER} fixes per batch; responses and stores identical)"
    )
    write_result("shard_overhead", lines)
    benchmark.extra_info["ratio"] = round(ratio, 3)
    print("\n".join(lines))
