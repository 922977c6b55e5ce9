"""Q-5 — the relevance objective of ΔT-bounded scheduling vs baselines.

Given the same candidate set and the same available time, compares the
relevance objective achieved by the paper's compound-score scheduling
(greedy-by-density and exact knapsack) against random and popularity-ordered
filling.  Expected shape: compound scheduling dominates the baselines on the
objective value and on relevance per scheduled minute at every ΔT.
"""

from __future__ import annotations

import pytest
from conftest import format_table, write_result

from repro.datasets import BroadcasterConfig, CommuterConfig, WorldConfig, build_world
from repro.recommender import Scheduler, SchedulerPolicy
from repro.roadnet import CityGeneratorConfig
from repro.recommender.baselines import PopularityRecommender, RandomRecommender
from repro.recommender.compound import CompoundScorer
from repro.recommender.content_based import ContentBasedScorer
from repro.recommender.evaluation import plan_relevance_per_minute

DELTA_T_BUDGETS = (300.0, 600.0, 1200.0, 2400.0)

#: Item-count cap high enough that the time budget is always the binding
#: constraint (the relevant regime for ΔT-bounded scheduling).
MAX_ITEMS = 50


@pytest.fixture(scope="module")
def scheduling_world():
    """A private world so earlier benches cannot perturb the candidate pool."""
    return build_world(
        WorldConfig(
            seed=5150,
            city=CityGeneratorConfig(grid_rows=12, grid_cols=12, poi_count=18, seed=23),
            broadcaster=BroadcasterConfig(seed=27, clips_per_day=120),
            commuters=CommuterConfig(seed=31, commuters=6, history_days=7),
            classifier_documents_per_category=8,
            feedback_events_per_user=24,
        )
    )


def prepare(world):
    server = world.server
    commuter = world.commuters[0]
    drive = world.commuter_generator.live_drive(commuter, day=world.today)
    observe = drive.departure_s + max(90.0, 0.3 * drive.expected_duration_s)
    server.users.ingest_fixes(drive.fixes(until_s=observe), skip_stale=True)
    context = server.build_context(commuter.user_id, now_s=observe)
    candidates = server.proactive_engine._filter.candidates(  # noqa: SLF001 - shared filter
        commuter.user_id, now_s=observe
    )
    content_scorer = ContentBasedScorer(server.content, server.users)
    compound = CompoundScorer(content_scorer, context_weight=server.compound_scorer.context_weight)
    rankings = {
        "compound": compound.rank(candidates, context),
        "random": RandomRecommender(seed=5).rank(candidates, context),
        "popularity": PopularityRecommender(server.content, server.users).rank(candidates, context),
    }
    return context, rankings


def test_q5_scheduling_objective(benchmark, scheduling_world):
    context, rankings = prepare(scheduling_world)
    greedy = Scheduler(policy=SchedulerPolicy.GREEDY, max_items=MAX_ITEMS)
    knapsack = Scheduler(policy=SchedulerPolicy.KNAPSACK, max_items=MAX_ITEMS)
    # All plans are evaluated under the SAME relevance measure (the compound
    # score), no matter which ranking selected the items: a random baseline
    # assigning itself inflated scores must not look good for free.
    true_relevance = {item.clip_id: item.final_score for item in rankings["compound"]}

    def plan_true_objective(plan):
        return sum(true_relevance.get(item.clip_id, 0.0) for item in plan.items)

    def sweep():
        rows = []
        for budget in DELTA_T_BUDGETS:
            row = {"delta_t_min": round(budget / 60.0, 1)}
            for name, ranked in rankings.items():
                plan = greedy.build_plan(ranked, context, available_s=budget)
                row[f"{name}_objective"] = round(plan_true_objective(plan), 2)
                row[f"{name}_rel_per_min"] = round(plan_relevance_per_minute(plan), 3)
            knapsack_plan = knapsack.build_plan(rankings["compound"], context, available_s=budget)
            row["knapsack_objective"] = round(plan_true_objective(knapsack_plan), 2)
            rows.append(row)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    for row in rows:
        # Compound scheduling beats both baselines on the relevance objective.
        assert row["compound_objective"] >= row["random_objective"] - 1e-9
        assert row["compound_objective"] >= row["popularity_objective"] - 1e-9
        # The exact knapsack never does much worse than greedy on the same ranking.
        assert row["knapsack_objective"] >= row["compound_objective"] - 0.25
    # The objective grows with the available time.
    objectives = [row["compound_objective"] for row in rows]
    assert objectives == sorted(objectives)

    lines = ["Q-5: scheduling objective vs baselines per available time dT", ""] + format_table(rows)
    path = write_result("q5_scheduling", lines)
    benchmark.extra_info["results_file"] = path


def test_q5_scheduler_latency(benchmark, scheduling_world):
    """Scheduling latency for a realistic candidate set (greedy policy)."""
    context, rankings = prepare(scheduling_world)
    scheduler = Scheduler(policy=SchedulerPolicy.GREEDY)

    plan = benchmark(lambda: scheduler.build_plan(rankings["compound"], context, available_s=1200.0))
    assert plan.items
