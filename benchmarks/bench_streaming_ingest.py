"""PERF — streaming mobility mining vs. per-tick batch rebuilds.

The seed compaction path re-mines every user's *entire* GPS history on
every pass: split the full trajectory into trips, DBSCAN the endpoints,
re-cluster the routes — O(users × history²) as histories grow.  The
streaming subsystem sessionizes fixes online and folds completed trips
into incremental models, so keeping models fresh costs O(new fixes).

Workload (from the issue's acceptance criteria): a 1 000-user commute
replay delivered in daily ticks, where after every tick each user's
mobility model must be fresh.  The baseline runs the batch miner per user
per tick (timed on a subset and scaled — it is the slow side being
replaced); the streaming path ingests the same fixes once and snapshots
every user's model per tick.  The bench asserts a >= 5x ingest-to-fresh-
model throughput improvement and that the streamed models are equivalent
to batch rebuilds over the full history.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_streaming_ingest.py -q
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from conftest import format_table, write_result

from repro.geo import GeoPoint
from repro.geo.geodesy import destination_point, initial_bearing_deg
from repro.spatialdb import GpsFix
from repro.streaming import StreamingMobilityEngine
from repro.trajectory.clustering import cluster_trips
from repro.trajectory.model import Trajectory, split_into_trips
from repro.trajectory.staypoints import stay_points_from_trips
from repro.util.rng import DeterministicRng

USERS = 1000
#: Replay length matches the compaction keep-window the paper's pipeline
#: maintains: the baseline re-mines up to 14 days of history per tick.
DAYS = 14
BASELINE_SUBSET = 40
FIX_INTERVAL_S = 20.0
BASE = GeoPoint(45.07, 7.68)

#: Batch-miner parameters — the server defaults both paths share.
STAY_POINT_EPS_M = 300.0
ASSIGN_RADIUS_M = 500.0


def _drive(rng, user_id, origin, destination, departure_s) -> List[GpsFix]:
    distance = origin.distance_m(destination)
    bearing = initial_bearing_deg(origin, destination) + rng.uniform(-2.0, 2.0)
    speed = rng.uniform(9.0, 14.0)
    steps = max(8, int(distance / (speed * FIX_INTERVAL_S)))
    fixes = []
    for step in range(steps + 1):
        position = destination_point(origin, bearing, distance * step / steps)
        position = destination_point(position, rng.uniform(0.0, 360.0), abs(rng.gauss(0.0, 6.0)))
        fixes.append(
            GpsFix(user_id, departure_s + step * FIX_INTERVAL_S, position, speed_mps=speed)
        )
    return fixes


def build_fix_ticks(
    users: int = USERS, days: int = DAYS, seed: int = 4
) -> Tuple[List[List[GpsFix]], Dict[str, List[GpsFix]]]:
    """Daily ticks of commute fixes, plus the per-user full histories."""
    rng = DeterministicRng(seed)
    anchors = []
    for index in range(users):
        urng = rng.fork("user", index)
        home = destination_point(BASE, urng.uniform(0.0, 360.0), urng.uniform(0.0, 20000.0))
        work = destination_point(home, urng.uniform(0.0, 360.0), urng.uniform(3000.0, 6000.0))
        anchors.append((f"user-{index:04d}", home, work))

    ticks: List[List[GpsFix]] = []
    histories: Dict[str, List[GpsFix]] = {user_id: [] for user_id, _, _ in anchors}
    for day in range(days):
        day_fixes: List[GpsFix] = []
        for index, (user_id, home, work) in enumerate(anchors):
            drng = rng.fork("day", day, index)
            morning = _drive(
                drng.fork("am"), user_id, home, work,
                day * 86400.0 + 7.5 * 3600.0 + drng.uniform(-600.0, 600.0),
            )
            evening = _drive(
                drng.fork("pm"), user_id, work, home,
                day * 86400.0 + 17.75 * 3600.0 + drng.uniform(-600.0, 600.0),
            )
            day_fixes.extend(morning)
            day_fixes.extend(evening)
            histories[user_id].extend(morning)
            histories[user_id].extend(evening)
        ticks.append(day_fixes)
    return ticks, histories


def batch_model(fixes: List[GpsFix]):
    """One full-history batch rebuild: the batch miner with the streaming
    engine's parameters, the oracle its full snapshot must equal."""
    trips = split_into_trips(Trajectory.from_fixes(fixes[0].user_id, fixes))
    stay_points = stay_points_from_trips(trips, eps_m=STAY_POINT_EPS_M) if trips else []
    clusters = (
        cluster_trips(trips, stay_points, max_endpoint_distance_m=ASSIGN_RADIUS_M)
        if stay_points
        else []
    )
    return trips, stay_points, clusters


def run_batch_replay(
    ticks: List[List[GpsFix]], subset_users: List[str]
) -> Tuple[float, int]:
    """Per-tick batch rebuilds over growing histories for a user subset.

    Returns (elapsed seconds, fixes processed for the subset).
    """
    subset = set(subset_users)
    histories: Dict[str, List[GpsFix]] = {user_id: [] for user_id in subset_users}
    fixes_seen = 0
    start = time.perf_counter()
    for tick in ticks:
        for fix in tick:
            if fix.user_id in subset:
                histories[fix.user_id].append(fix)
                fixes_seen += 1
        for user_id in subset_users:
            if len(histories[user_id]) >= 2:
                batch_model(histories[user_id])
    return time.perf_counter() - start, fixes_seen


def run_streaming_replay(ticks: List[List[GpsFix]]) -> Tuple[float, int, StreamingMobilityEngine]:
    """Stream every fix once; snapshot every user's model after each tick."""
    engine = StreamingMobilityEngine()
    fixes_seen = 0
    start = time.perf_counter()
    for tick in ticks:
        engine.observe_fixes(tick)
        fixes_seen += len(tick)
        for user_id in engine.model.user_ids():
            engine.model_snapshot(user_id)
    return time.perf_counter() - start, fixes_seen, engine


def assert_stream_equivalent(
    engine: StreamingMobilityEngine, histories: Dict[str, List[GpsFix]], sample: List[str]
) -> None:
    """Streamed models (tail folded in) must equal full-history rebuilds."""
    for user_id in sample:
        snapshot = engine.model_snapshot(user_id, include_open_tail=True)
        trips, stay_points, clusters = batch_model(histories[user_id])
        assert snapshot.trip_count == len(trips), user_id
        assert [
            (sp.stay_point_id, sp.center, sp.support, sp.total_dwell_s)
            for sp in snapshot.stay_points
        ] == [
            (sp.stay_point_id, sp.center, sp.support, sp.total_dwell_s) for sp in stay_points
        ], user_id
        assert [
            (c.cluster_id, c.origin_stay_point, c.destination_stay_point, c.support)
            for c in snapshot.clusters
        ] == [
            (c.cluster_id, c.origin_stay_point, c.destination_stay_point, c.support)
            for c in clusters
        ], user_id


def test_perf_streaming_ingest(benchmark):
    ticks, histories = build_fix_ticks()
    total_fixes = sum(len(tick) for tick in ticks)
    subset_users = sorted(histories.keys())[:BASELINE_SUBSET]

    baseline_elapsed, baseline_fixes = run_batch_replay(ticks, subset_users)
    baseline_fixes_per_s = baseline_fixes / baseline_elapsed
    # The full-population baseline cost, scaled from the measured subset.
    baseline_total_elapsed = baseline_elapsed * (USERS / BASELINE_SUBSET)

    streaming_elapsed, streamed_fixes, engine = benchmark.pedantic(
        run_streaming_replay, args=(ticks,), rounds=1, iterations=1
    )
    assert streamed_fixes == total_fixes
    streaming_fixes_per_s = total_fixes / streaming_elapsed

    # Correctness first: streamed models match batch over the full history.
    sample = sorted(histories.keys())[:: max(1, USERS // 25)]
    assert_stream_equivalent(engine, histories, sample)

    speedup = baseline_total_elapsed / streaming_elapsed
    assert speedup >= 5.0, (
        f"streaming only {speedup:.1f}x over per-tick batch rebuilds "
        f"({baseline_total_elapsed:.1f}s scaled vs {streaming_elapsed:.1f}s)"
    )

    rows = [
        {
            "path": f"batch rebuild per tick (subset of {BASELINE_SUBSET}, scaled)",
            "users": USERS,
            "days": DAYS,
            "fixes": total_fixes,
            "elapsed_s": f"{baseline_total_elapsed:.2f}",
            "fixes_per_s": f"{total_fixes / baseline_total_elapsed:.0f}",
        },
        {
            "path": "streaming (sessionize + incremental + snapshot)",
            "users": USERS,
            "days": DAYS,
            "fixes": total_fixes,
            "elapsed_s": f"{streaming_elapsed:.2f}",
            "fixes_per_s": f"{streaming_fixes_per_s:.0f}",
        },
    ]
    lines = format_table(rows)
    lines.append("")
    lines.append(
        f"speedup: {speedup:.1f}x   trips folded: "
        f"{sum(engine.model.trip_count(u) for u in engine.model.user_ids())}   "
        f"stay points spawned online: {engine.model.spawned_stay_points}"
    )
    write_result("perf_streaming_ingest", lines)

    benchmark.extra_info["speedup"] = round(speedup, 1)
    benchmark.extra_info["streaming_fixes_per_s"] = round(streaming_fixes_per_s)
    benchmark.extra_info["baseline_fixes_per_s"] = round(baseline_fixes_per_s)
    benchmark.extra_info["users"] = USERS
    benchmark.extra_info["total_fixes"] = total_fixes
