"""The chaos scenario matrix: every scenario × every fault, on purpose.

For each traffic scenario (rush hour, flash crowd, broadcast→unicast
handover) a reference replay runs with no faults and its end state is
fingerprinted.  Then each fault family — kill+restore from snapshot,
shard drop/move, bus dead-letter, torn WAL tail, replica failover — is
injected mid-replay into a twin world, and the survivor's state must be
indistinguishable from the reference: same recommendations, same model
freshness, same tracking counters, same merged user directory, sane ops
metrics.

Excluded from tier-1 via ``pytest.ini`` (``addopts = -m "not chaos"``);
CI runs it as its own job with ``pytest -m chaos``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.datasets import BroadcasterConfig, CommuterConfig, WorldConfig, build_world
from repro.loadgen import (
    SCENARIO_NAMES,
    ChaosController,
    WorldReplay,
    build_scenario,
    check_invariants,
    state_fingerprint,
)
from repro.pipeline import Gateway
from repro.pipeline.server import PphcrServer, ServerConfig
from repro.roadnet import CityGeneratorConfig
from repro.storage import DurabilityConfig, ShardingConfig
from repro.storage.sharding import shard_of
from repro.util.ids import reset_ids

pytestmark = pytest.mark.chaos

SCRIPT_SEED = 99
FAULTS = (
    "kill_restore",
    "shard_move",
    "bus_dead_letter",
    "torn_log",
    "replica_failover",
)
#: Faults that need a WAL under the server (the twin world gets a
#: durability-enabled config; the reference stays durability-off — the WAL
#: observes writes, it never changes them, so fingerprints are unaffected).
DURABLE_FAULTS = frozenset({"torn_log", "replica_failover"})
DEAD_LETTER_TOPIC = "recommendation.decision"


def chaos_world(durability: DurabilityConfig = None):
    """Twin-buildable sharded world (ids reset so builds are identical)."""
    reset_ids()
    server = ServerConfig(sharding=ShardingConfig(shards=4))
    if durability is not None:
        server = replace(server, durability=durability)
    return build_world(
        WorldConfig(
            seed=4242,
            city=CityGeneratorConfig(
                grid_rows=8, grid_cols=8, block_size_m=600.0, poi_count=16, seed=3
            ),
            broadcaster=BroadcasterConfig(seed=5, clips_per_day=40),
            commuters=CommuterConfig(seed=11, commuters=6, history_days=4),
            server=server,
            classifier_documents_per_category=4,
            feedback_events_per_user=10,
        )
    )


@pytest.fixture(scope="module")
def references():
    """Per-scenario uninjected reference runs: the ground truth state."""
    refs = {}
    for name in SCENARIO_NAMES:
        world = chaos_world()
        script = build_scenario(name, world, seed=SCRIPT_SEED)
        report = WorldReplay(Gateway(world.server)).run(script)
        assert all(status < 400 for status in report.status_counts), (
            f"reference run for {name} must be fault-free: {report.status_counts}"
        )
        user_ids = [commuter.user_id for commuter in world.commuters]
        probe_t = max(event.t_s for event in script)
        refs[name] = {
            "script_fingerprint": script.fingerprint(),
            "responses_digest": report.responses_digest(),
            "fingerprint": state_fingerprint(
                world.server, user_ids=user_ids, now_s=probe_t
            ),
            "user_ids": user_ids,
            "probe_t": probe_t,
        }
    return refs


def schedule_fault(fault, chaos, world, script):
    """Arm one fault family at the scenario's standard injection points."""
    n = len(script)
    snapshot_at, strike_at = n // 3, (2 * n) // 3
    if fault == "kill_restore":
        chaos.schedule_kill_restore(snapshot_at=snapshot_at, kill_at=strike_at)
    elif fault == "shard_move":
        # Pick the shard owning a commuter with guaranteed traffic so the
        # lost window is non-empty and the recovery path actually runs.
        shards = world.server.config.sharding.shards
        shard = shard_of(world.commuters[0].user_id, shards)
        chaos.schedule_shard_move(
            shard=shard, snapshot_at=snapshot_at, restore_at=strike_at
        )
    elif fault == "bus_dead_letter":
        chaos.schedule_bus_dead_letter(topic=DEAD_LETTER_TOPIC, arm_at=snapshot_at)
    elif fault == "torn_log":
        chaos.schedule_torn_log(
            snapshot_at=snapshot_at,
            tear_at=(snapshot_at + strike_at) // 2,
            kill_at=strike_at,
        )
    elif fault == "replica_failover":
        replica_config = replace(
            world.server.config, durability=DurabilityConfig()
        )
        chaos.schedule_replica_failover(
            promote_at=strike_at,
            build_server=lambda: PphcrServer(city=world.city, config=replica_config),
        )
    else:  # pragma: no cover - parametrization guards this
        raise AssertionError(f"unknown fault {fault}")


@pytest.fixture
def survivors():
    """Chaos controllers whose surviving server's WAL closes at teardown.

    The controller closes every server it replaces; the one still serving
    when the replay ends is the test's to close.
    """
    controllers = []
    yield controllers
    for chaos in controllers:
        durability = getattr(chaos.server, "durability", None)
        if durability is not None:
            durability.close()


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_scenario_survives_fault(references, scenario, fault, tmp_path, survivors):
    ref = references[scenario]
    durability = (
        DurabilityConfig(enabled=True, directory=str(tmp_path / "wal"))
        if fault in DURABLE_FAULTS
        else None
    )
    world = chaos_world(durability)
    script = build_scenario(scenario, world, seed=SCRIPT_SEED)
    # The twin world records byte-identical traffic before any fault lands.
    assert script.fingerprint() == ref["script_fingerprint"]

    gateway = Gateway(world.server)
    chaos = ChaosController(
        world.server,
        gateway,
        rebuild=lambda: PphcrServer(city=world.city, config=world.server.config),
    )
    survivors.append(chaos)
    schedule_fault(fault, chaos, world, script)
    WorldReplay(gateway, chaos=chaos).run(script)

    fired = [entry for entry in chaos.log if entry["fault"] == fault]
    assert fired, f"scheduled {fault} never fired in {scenario} (log: {chaos.log})"

    if fault == "kill_restore":
        assert fired[0]["replayed"] == fired[0]["lost_events"]
    elif fault == "shard_move":
        assert fired[0]["lost_events"] > 0, "shard move must lose live writes"
    elif fault == "bus_dead_letter":
        # The once-raising handler was the topic's only subscriber: its one
        # failure is the run's only failed delivery.
        records = chaos.server.bus.dead_letter_records()
        assert [(record.topic, record.reason) for record in records] == [
            (DEAD_LETTER_TOPIC, "handler_error"),
            (DEAD_LETTER_TOPIC, "all_handlers_failed"),
        ]
    elif fault == "torn_log":
        entry = fired[0]
        # The crash's half-written frame was salvaged, not fatal …
        assert entry["salvaged"], "the torn tail must have been detected"
        assert all(r["bytes_dropped"] > 0 for r in entry["salvaged"])
        # … the logged window was recovered from the WAL, not from clients …
        assert entry["wal_frames_replayed"] > 0
        # … and only the post-tear window was re-dispatched.
        assert entry["replayed"] == entry["lost_events"]
    elif fault == "replica_failover":
        entry = fired[0]
        assert entry["lag"] == 0, "promotion requires a fully caught-up replica"
        assert entry["applied"] > 0, "the replica must have applied shipped frames"
        assert entry["etag_probes"] > 0, "the cutover must have compared reads"
        assert entry["etag_matches"] == entry["etag_probes"]
    if fault != "bus_dead_letter":
        # Nothing subscribes outside the injected fault, so nothing fails.
        assert chaos.server.bus.dead_letter_records() == []

    violations = check_invariants(
        chaos.server,
        ref["fingerprint"],
        user_ids=ref["user_ids"],
        now_s=ref["probe_t"],
    )
    assert violations == [], "\n".join(violations)


@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_uninjected_twin_matches_reference_digest(references, scenario):
    """Control arm: without chaos, a twin replay is byte-identical."""
    ref = references[scenario]
    world = chaos_world()
    script = build_scenario(scenario, world, seed=SCRIPT_SEED)
    report = WorldReplay(Gateway(world.server)).run(script)
    assert report.responses_digest() == ref["responses_digest"]
    assert check_invariants(
        world.server,
        ref["fingerprint"],
        user_ids=ref["user_ids"],
        now_s=ref["probe_t"],
    ) == []
