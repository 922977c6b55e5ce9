"""A-3 — extension ablation: the ensemble effect of the recommendations list.

The paper's future work plans to account for "the ensemble effect of the
recommendations list".  The bench sweeps the diversity weight of the
MMR-style re-ranker over realistic candidate rankings and measures the
trade-off between list relevance and category diversity.  Expected shape:
diversity rises monotonically with the weight while mean relevance falls
only slightly for moderate weights (a cheap ensemble improvement).
"""

from __future__ import annotations

from conftest import format_table, write_result

from repro.recommender.compound import CompoundScorer
from repro.recommender.content_based import ContentBasedScorer
from repro.recommender.extensions import diversify, list_diversity

DIVERSITY_WEIGHTS = (0.0, 0.2, 0.4, 0.6)
LIST_SIZE = 6


def prepare_ranking(world, commuter):
    server = world.server
    drive = world.commuter_generator.live_drive(commuter, day=world.today)
    observe = drive.departure_s + max(90.0, 0.3 * drive.expected_duration_s)
    server.users.ingest_fixes(drive.fixes(until_s=observe), skip_stale=True)
    context = server.build_context(commuter.user_id, now_s=observe)
    candidates = server.proactive_engine._filter.candidates(  # noqa: SLF001
        commuter.user_id, now_s=observe
    )
    compound = CompoundScorer(
        ContentBasedScorer(server.content, server.users),
        context_weight=server.compound_scorer.context_weight,
    )
    return compound.rank(candidates, context)


def sweep_diversity(rankings):
    rows = []
    for weight in DIVERSITY_WEIGHTS:
        relevances = []
        diversities = []
        for ranking in rankings:
            reranked = diversify(ranking, diversity_weight=weight, top_k=LIST_SIZE)
            items = [item.scored for item in reranked]
            if not items:
                continue
            relevances.append(sum(item.final_score for item in items) / len(items))
            diversities.append(list_diversity(items))
        rows.append(
            {
                "diversity_weight": weight,
                "mean_list_relevance": round(sum(relevances) / max(1, len(relevances)), 4),
                "mean_list_diversity": round(sum(diversities) / max(1, len(diversities)), 4),
            }
        )
    return rows


def test_a3_ensemble_diversification(benchmark, bench_world):
    rankings = [
        prepare_ranking(bench_world, commuter) for commuter in bench_world.commuters[:6]
    ]
    rankings = [ranking for ranking in rankings if len(ranking) >= LIST_SIZE]
    assert rankings, "no commuter produced a large enough candidate ranking"

    rows = benchmark.pedantic(sweep_diversity, args=(rankings,), rounds=1, iterations=1)

    diversities = [row["mean_list_diversity"] for row in rows]
    relevances = [row["mean_list_relevance"] for row in rows]
    # Diversity never decreases as the weight grows; relevance never increases.
    assert all(later >= earlier - 1e-9 for earlier, later in zip(diversities, diversities[1:]))
    assert all(later <= earlier + 1e-9 for earlier, later in zip(relevances, relevances[1:]))
    # A moderate weight buys a real diversity gain at a small relevance cost.
    assert diversities[1] >= diversities[0]
    assert relevances[0] - relevances[1] < 0.15

    lines = ["A-3: ensemble diversification of the recommendation list", ""] + format_table(rows)
    path = write_result("a3_ensemble_diversity", lines)
    benchmark.extra_info["results_file"] = path
