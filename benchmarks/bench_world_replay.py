"""World-replay latency bench: scenario scripts through the wire gateway.

Replays each recorded traffic scenario (rush hour, flash crowd,
broadcast→unicast handover) from the same seed against a freshly built
sharded world and reports exact nearest-rank per-request latency
percentiles plus the responses digest — so CI tracks both how fast the
wire path is and that the traffic stayed byte-deterministic.

Run:  PYTHONPATH=src python benchmarks/bench_world_replay.py
"""

from __future__ import annotations

import sys

from repro.datasets import BroadcasterConfig, CommuterConfig, WorldConfig, build_world
from repro.loadgen import SCENARIO_NAMES, WorldReplay, build_scenario
from repro.pipeline import Gateway
from repro.pipeline.server import ServerConfig
from repro.roadnet import CityGeneratorConfig
from repro.storage import ShardingConfig
from repro.util.ids import reset_ids

SCRIPT_SEED = 99
SHARDS = 4
COMMUTERS = 6

#: CI gate: every scenario's p95 request latency must stay under this.
P95_CEILING_MS = 250.0


def build_replay_world():
    """The bench world — same twin-buildable config the chaos matrix uses."""
    reset_ids()
    return build_world(
        WorldConfig(
            seed=4242,
            city=CityGeneratorConfig(
                grid_rows=8, grid_cols=8, block_size_m=600.0, poi_count=16, seed=3
            ),
            broadcaster=BroadcasterConfig(seed=5, clips_per_day=40),
            commuters=CommuterConfig(seed=11, commuters=COMMUTERS, history_days=4),
            server=ServerConfig(sharding=ShardingConfig(shards=SHARDS)),
            classifier_documents_per_category=4,
            feedback_events_per_user=10,
        )
    )


def run_scenario_phase(name: str):
    """Build a fresh world, record the scenario and replay it; the report."""
    world = build_replay_world()
    script = build_scenario(name, world, seed=SCRIPT_SEED)
    report = WorldReplay(Gateway(world.server)).run(script)
    failed = {
        status: count for status, count in report.status_counts.items() if status >= 400
    }
    assert not failed, f"{name} replay returned error statuses: {failed}"
    return script, report


def run_all_scenarios():
    """Every scenario's (script, report), keyed by scenario name."""
    return {name: run_scenario_phase(name) for name in SCENARIO_NAMES}


def main() -> int:
    for name, (script, report) in run_all_scenarios().items():
        summary = report.summary()
        print(
            f"{name}: {summary['requests']} requests, "
            f"p50 {summary['p50_ms']:.2f} ms, p95 {summary['p95_ms']:.2f} ms, "
            f"p99 {summary['p99_ms']:.2f} ms "
            f"(script {script.fingerprint()[:12]}, "
            f"responses {summary['responses_digest'][:12]})"
        )
        if summary["p95_ms"] > P95_CEILING_MS:
            print(
                f"FAIL: {name} p95 {summary['p95_ms']:.2f} ms exceeds the "
                f"{P95_CEILING_MS:.0f} ms ceiling",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
