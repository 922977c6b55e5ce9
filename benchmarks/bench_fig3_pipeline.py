"""FIG-3 — the server architecture / data flow (paper Figure 3).

Times the full server-side ingest path (ASR -> Bayesian classification ->
repository) and the recommendation path (context building -> compound
scoring -> scheduling), and regenerates the component/data-flow summary that
the architecture diagram describes.
"""

from __future__ import annotations

from conftest import format_table, write_result

from repro.asr import SyntheticNewsCorpus
from repro.content.model import AudioClip, ContentKind
from repro.pipeline import PphcrServer
from repro.storage.wal import WAL_LOGGED_TOPICS, WAL_SUPPRESSED_TOPICS
from repro.util.ids import new_id


def build_ingest_workload(documents=60):
    corpus = SyntheticNewsCorpus(seed=91)
    train, _ = corpus.train_test_split(documents_per_category=6)
    server = PphcrServer()
    server.train_classifier([d.text for d in train], [d.category for d in train])
    clips = []
    texts = {}
    for index in range(documents):
        category = corpus.categories()[index % 30]
        clip_id = new_id("bench-clip")
        clips.append(
            AudioClip(
                clip_id=clip_id,
                title=f"Ingest bench {index}",
                kind=ContentKind.NEWS,
                duration_s=180.0,
            )
        )
        texts[clip_id] = corpus.generate_document(category, word_count=120).text
    return server, clips, texts


def test_fig3_ingest_throughput(benchmark):
    def run_once():
        server, clips, texts = build_ingest_workload(documents=60)
        classified = []
        server.bus.subscribe("clip.classified", classified.append)
        server.ingest_clips(clips, speech_texts=texts)
        return server, classified

    server, classified = benchmark.pedantic(run_once, rounds=3, iterations=1)
    assert server.content.clip_count() == 60
    assert len(classified) == 60

    lines = [
        "FIG-3: server data flow (ingest side)",
        "",
        f"clips ingested: {server.content.clip_count()}",
        f"ASR+classification events: {len(classified)}",
        f"bus deliveries: {server.bus.delivery_count()}",
    ]
    write_result("fig3_pipeline_ingest", lines)
    benchmark.extra_info["clips_per_round"] = 60


def test_fig3_recommendation_path(benchmark, bench_world):
    """End-to-end recommendation latency for one listener mid-commute."""
    server = bench_world.server
    commuter = bench_world.commuters[1]
    drive = bench_world.commuter_generator.live_drive(commuter, day=bench_world.today)
    observe = drive.departure_s + max(90.0, 0.3 * drive.expected_duration_s)

    def recommend_once():
        return server.recommend(commuter.user_id, now_s=observe, drive_elapsed_s=240.0)

    # Count a fixed amount of work, not however many times the benchmark
    # calls recommend: the world build (nothing subscribes during it, so the
    # bus's exact dead-letter tally counts each of its messages once) plus
    # one ingest-and-recommend pass, counted by a subscriber on every topic.
    counters = server.telemetry.metrics_snapshot()["counters"]
    build_messages = sum(
        entry["value"] for entry in counters["bus_dead_letters_total"]["series"]
    )
    pass_messages = []
    for topic in sorted(WAL_LOGGED_TOPICS | WAL_SUPPRESSED_TOPICS):
        server.bus.subscribe(topic, pass_messages.append)
    server.users.ingest_fixes(drive.fixes(until_s=observe), skip_stale=True)
    recommend_once()
    bus_messages = int(build_messages) + len(pass_messages)

    decision = benchmark(recommend_once)
    assert decision is not None

    component_rows = [
        {"component": "metadata / content repository", "rows": server.content.clip_count()},
        {"component": "profiles DB (users)", "rows": server.users.user_count()},
        {"component": "feedbacks DB (events)", "rows": len(server.users.feedback)},
        {"component": "tracking DB (GPS fixes)", "rows": server.users.tracking.fix_count()},
        {"component": "bus messages published", "rows": bus_messages},
    ]
    lines = [
        "FIG-3: server data flow (recommendation side)",
        "",
        f"decision: {'recommend' if decision.should_recommend else 'wait'} ({decision.reason})",
        "",
    ] + format_table(component_rows)
    path = write_result("fig3_pipeline_recommendation", lines)
    benchmark.extra_info["results_file"] = path
