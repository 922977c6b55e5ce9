"""Q-6 — distraction-aware delivery timing.

The scheduler takes "driving conditions as well as driver's projected
distraction levels at intersections and roundabouts" into account: clip
boundaries (the moments when content changes) must not fall inside
high-distraction windows.  The bench compares the number of boundaries
landing in distraction zones with and without the distraction model across
the commuter population.  Expected shape: ~0 offending boundaries with the
model, a clearly positive number without it.
"""

from __future__ import annotations

from conftest import format_table, write_result

from repro.recommender import DistractionModel, Scheduler
from repro.recommender.compound import CompoundScorer
from repro.recommender.content_based import ContentBasedScorer
from repro.roadnet.intersections import distraction_zones_along


def evaluate_population(world, *, max_users=8):
    """Count clip boundaries inside high-distraction windows, with/without the model."""
    server = world.server
    planner = server.route_planner
    content_scorer = ContentBasedScorer(server.content, server.users)
    compound = CompoundScorer(content_scorer, context_weight=server.compound_scorer.context_weight)
    scheduler = Scheduler()
    rows = []
    totals = {"with_model": 0, "without_model": 0, "boundaries": 0}

    for commuter in world.commuters[:max_users]:
        drive = world.commuter_generator.live_drive(commuter, day=world.today)
        observe = drive.departure_s + max(90.0, 0.3 * drive.expected_duration_s)
        server.users.ingest_fixes(drive.fixes(until_s=observe), skip_stale=True)
        context = server.build_context(commuter.user_id, now_s=observe)
        if not context.is_driving or context.destination is None or context.available_time_s is None:
            continue
        route = planner.route_between_points(context.position, context.destination.center)
        zones = distraction_zones_along(world.city.network, route, departure_s=observe)
        if not zones:
            continue
        model = DistractionModel(zones)
        candidates = server.proactive_engine._filter.candidates(  # noqa: SLF001
            commuter.user_id, now_s=observe
        )
        ranked = compound.rank(candidates, context)
        try:
            aware = scheduler.build_plan(ranked, context, distraction=model)
            unaware = scheduler.build_plan(ranked, context, distraction=None)
        except Exception:  # noqa: BLE001 - no feasible plan for this drive
            continue
        if not aware.items or not unaware.items:
            continue
        aware_hits = model.boundaries_in_blocked(aware.boundaries())
        unaware_hits = model.boundaries_in_blocked(unaware.boundaries())
        totals["with_model"] += aware_hits
        totals["without_model"] += unaware_hits
        totals["boundaries"] += len(unaware.boundaries())
        rows.append(
            {
                "listener": commuter.user_id,
                "high_distraction_zones": sum(1 for z in zones if z.is_high),
                "blocked_time_s": round(model.total_blocked_s(), 1),
                "boundaries_in_zones_without_model": unaware_hits,
                "boundaries_in_zones_with_model": aware_hits,
            }
        )
    return rows, totals


def test_q6_distraction_aware_timing(benchmark, bench_world):
    rows, totals = benchmark.pedantic(
        evaluate_population, args=(bench_world,), rounds=1, iterations=1
    )

    assert rows, "no drive produced distraction zones and a feasible plan"
    # Shape: the distraction-aware scheduler never places boundaries inside
    # high-distraction windows; the unaware scheduler does at least sometimes
    # (or, at worst, the aware one is never worse).
    assert totals["with_model"] == 0
    assert totals["without_model"] >= totals["with_model"]

    lines = (
        ["Q-6: clip boundaries inside high-distraction windows", ""]
        + format_table(rows)
        + [
            "",
            f"total boundaries examined: {totals['boundaries']}",
            f"in-zone boundaries without the distraction model: {totals['without_model']}",
            f"in-zone boundaries with the distraction model:    {totals['with_model']}",
        ]
    )
    path = write_result("q6_distraction", lines)
    benchmark.extra_info["without_model_hits"] = totals["without_model"]
    benchmark.extra_info["with_model_hits"] = totals["with_model"]
    benchmark.extra_info["results_file"] = path
