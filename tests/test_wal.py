"""Durability subsystem: frame codec, torn-tail salvage, replay parity,
checkpoint compaction and log-shipped read replicas.

The contract under test: every committed write is recoverable from the
WAL alone (replay-from-birth), a snapshot plus the log tail recovers to
the last durable commit, damage at a log's tail truncates cleanly at the
last complete commit, and a replica that has applied the same frames
serves byte-identical cacheable reads.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import replace
from pathlib import Path

import pytest

from repro.client.dashboard import ControlDashboard
from repro.datasets import BroadcasterConfig, CommuterConfig, WorldConfig, build_world
from repro.errors import PipelineError, ValidationError
from repro.loadgen.invariants import state_fingerprint
from repro.pipeline import Gateway
from repro.pipeline.server import PphcrServer, ServerConfig
from repro.roadnet import CityGeneratorConfig
from repro.storage.replica import ReadReplica
from repro.storage.wal import (
    DurabilityConfig,
    encode_frame,
    log_paths,
    read_log_commits,
    salvage_file,
    scan_frames,
)
from repro.util.ids import reset_ids
from repro.util.timeutils import SECONDS_PER_DAY

#: The small world below has 3 days of history; probe mid-morning of the
#: live day so the candidate recency window still has content in it.
PROBE_S = 3 * SECONDS_PER_DAY + 8 * 3600.0


def durable_world(directory):
    """A compact world whose server logs every write from birth."""
    reset_ids()
    config = ServerConfig(
        durability=DurabilityConfig(enabled=True, directory=str(directory))
    )
    return build_world(
        WorldConfig(
            seed=2024,
            city=CityGeneratorConfig(
                grid_rows=6, grid_cols=6, block_size_m=600.0, poi_count=8, seed=5
            ),
            broadcaster=BroadcasterConfig(seed=6, clips_per_day=20),
            commuters=CommuterConfig(seed=7, commuters=3, history_days=3),
            classifier_documents_per_category=4,
            feedback_events_per_user=8,
            server=config,
        )
    )


class DurableServers:
    """Opens durable worlds and servers on one WAL directory, then closes them."""

    def __init__(self, directory) -> None:
        self.directory = directory
        self._servers = []

    def world(self):
        world = durable_world(self.directory)
        self._servers.append(world.server)
        return world

    def recover(self, world):
        """A fresh server on the world's WAL directory, as a restart builds."""
        server = PphcrServer(city=world.city, config=world.server.config)
        self._servers.append(server)
        return server

    def close(self) -> None:
        for server in self._servers:
            server.durability.close()


@pytest.fixture
def wal(tmp_path):
    """Durable worlds and servers on ``tmp_path / "wal"``, closed at teardown."""
    servers = DurableServers(tmp_path / "wal")
    yield servers
    servers.close()


def fingerprint(world_or_server, user_ids):
    server = getattr(world_or_server, "server", world_or_server)
    return state_fingerprint(server, user_ids=user_ids, now_s=PROBE_S)


def _history_bodies(gateway, user_id):
    """Every page body of one listener's feedback history, as wire text."""
    bodies, query = [], {}
    while True:
        status, body, _headers = gateway.handle_wire(
            "GET", f"/v1/users/{user_id}/feedback", None, query=query
        )
        assert status == 200
        bodies.append(body)
        cursor = json.loads(body)["next_cursor"]
        if cursor is None:
            return bodies
        query = {"cursor": cursor}


def _commits():
    return [
        {"lsn": 1, "records": [{"kind": "server", "op": "refresh_text_model"}]},
        {"lsn": 2, "records": [{"kind": "fixes", "shard": 0, "fixes": []}]},
        {"lsn": 3, "records": []},
    ]


def _frames():
    return [encode_frame(commit) for commit in _commits()]


def _flip_last_byte(frame):
    return frame[:-1] + bytes([frame[-1] ^ 0xFF])


def _raw_frame(raw: bytes) -> bytes:
    """A well-formed header + checksum over an arbitrary payload."""
    return struct.pack(">II", len(raw), zlib.crc32(raw) & 0xFFFFFFFF) + raw


# ---------------------------------------------------------------------------
# Frame codec and salvage
# ---------------------------------------------------------------------------


class TestFrameCodec:
    def test_round_trip(self):
        blob = b"".join(_frames())
        decoded, good, reason = scan_frames(blob)
        assert decoded == _commits()
        assert good == len(blob)
        assert reason is None

    def test_empty_blob_is_clean(self):
        assert scan_frames(b"") == ([], 0, None)

    @pytest.mark.parametrize(
        "build,expected_lsns,expected_reason",
        [
            # Crash mid-append: the last frame's payload is cut short.
            (
                lambda f: b"".join(f[:2]) + f[2][:-3],
                [1, 2],
                "truncated frame payload",
            ),
            # A few stray bytes after the last complete frame.
            (lambda f: b"".join(f) + b"\x00\x01", [1, 2, 3], "short frame header"),
            # Garbage that happens to parse as an absurd length prefix.
            (
                lambda f: b"".join(f) + b"\x7f\xff\xff\xff garbage!",
                [1, 2, 3],
                "implausible frame length",
            ),
            # Bit rot inside the last frame's payload.
            (
                lambda f: b"".join(f[:2]) + _flip_last_byte(f[2]),
                [1, 2],
                "frame checksum mismatch",
            ),
            # Checksummed but not JSON.
            (
                lambda f: b"".join(f[:2]) + _raw_frame(b"\xffnot json"),
                [1, 2],
                "malformed frame payload",
            ),
            # Valid JSON that is not a commit envelope.
            (
                lambda f: b"".join(f[:2]) + _raw_frame(b"[1, 2, 3]"),
                [1, 2],
                "frame payload is not a commit",
            ),
        ],
    )
    def test_damage_stops_at_last_complete_commit(
        self, build, expected_lsns, expected_reason
    ):
        frames = _frames()
        blob = build(frames)
        decoded, good, reason = scan_frames(blob)
        assert [commit["lsn"] for commit in decoded] == expected_lsns
        assert good == sum(len(frames[lsn - 1]) for lsn in expected_lsns)
        assert reason.startswith(expected_reason)

    def test_salvage_truncates_in_place_and_appends_continue(self, tmp_path):
        path = tmp_path / "shard-000.log"
        path.write_bytes(b"".join(_frames()) + b"\xde\xad half-written tail")
        report = salvage_file(path, truncate=True)
        assert report["frames"] == 3
        assert report["bytes_dropped"] > 0
        assert report["reason"] is not None
        # The file is now clean and appendable.
        assert scan_frames(path.read_bytes())[2] is None
        with open(path, "ab") as handle:
            handle.write(encode_frame({"lsn": 4, "records": []}))
        decoded, _good, reason = scan_frames(path.read_bytes())
        assert [commit["lsn"] for commit in decoded] == [1, 2, 3, 4]
        assert reason is None

    def test_read_only_scan_does_not_truncate(self, tmp_path):
        path = tmp_path / "global.log"
        path.write_bytes(encode_frame({"lsn": 1, "records": []}) + b"torn")
        before = path.read_bytes()
        commits = read_log_commits(tmp_path, after_lsn=0)
        assert [commit["lsn"] for commit in commits] == [1]
        assert path.read_bytes() == before


class TestDurabilityConfig:
    def test_enabled_requires_directory(self):
        with pytest.raises(ValidationError):
            DurabilityConfig(enabled=True)

    def test_compact_budget_validated(self):
        with pytest.raises(ValidationError):
            DurabilityConfig(compact_min_bytes=0)


# ---------------------------------------------------------------------------
# Whole-server recovery
# ---------------------------------------------------------------------------


class TestServerRecovery:
    def test_replay_from_birth_reconstructs_everything(self, wal):
        world = wal.world()
        user_ids = sorted(world.server.users.user_ids())
        live = fingerprint(world, user_ids)
        survivor = wal.recover(world)
        report = survivor.durability.replay_into(survivor, after_lsn=0)
        assert report["frames_replayed"] > 0
        assert fingerprint(survivor, user_ids) == live

    def test_snapshot_plus_tail_recovers_past_the_snapshot(self, wal):
        world = wal.world()
        user_ids = sorted(world.server.users.user_ids())
        durable = json.loads(json.dumps(world.server.snapshot()))
        assert "wal_lsn" in durable
        # Keep writing after the snapshot: the tail the WAL must cover.
        _commuter, drive = world.live_drives()[0]
        world.server.users.ingest_fixes(list(drive.fixes())[:25], skip_stale=True)
        live = fingerprint(world, user_ids)

        survivor = wal.recover(world)
        survivor.restore_snapshot(durable, replay_log=True)
        assert fingerprint(survivor, user_ids) == live

    def test_replay_log_requires_durability_and_watermark(self, wal):
        world = wal.world()
        durable = world.server.snapshot()
        plain = PphcrServer(
            city=world.city,
            config=replace(world.server.config, durability=DurabilityConfig()),
        )
        with pytest.raises(PipelineError):
            plain.restore_snapshot(durable, replay_log=True)
        undurable = dict(durable)
        undurable.pop("wal_lsn")
        with pytest.raises(PipelineError):
            world.server.restore_snapshot(undurable, replay_log=True)

    def test_torn_tail_recovers_to_last_complete_commit(self, wal):
        world = wal.world()
        user_ids = sorted(world.server.users.user_ids())
        live = fingerprint(world, user_ids)
        world.server.durability.flush()
        # The crash interrupts an append: garbage past the last commit.
        victim = max(
            log_paths(world.server.durability.directory),
            key=lambda path: path.stat().st_size,
        )
        with open(victim, "ab") as handle:
            handle.write(b"\x00\x00\x01\x00\xba\xad half-written")
        survivor = wal.recover(world)
        torn = [
            report
            for report in survivor.durability.recovery_report
            if report["bytes_dropped"]
        ]
        assert [report["path"] for report in torn] == [victim.name]
        report = survivor.durability.replay_into(survivor, after_lsn=0)
        assert report["last_lsn"] == world.server.durability.last_lsn
        assert fingerprint(survivor, user_ids) == live

    def test_registrations_and_feedback_replay_as_domain_ops(self, wal):
        """Every logged record is a domain operation, and a server replayed
        from birth serves each listener's feedback history byte for byte,
        event ids included (``state_fingerprint`` drops them)."""
        world = wal.world()
        primary = Gateway(world.server)
        status, _body, _headers = primary.handle_wire(
            "POST", "/v1/users", json.dumps({"user_id": "walk-in", "display_name": "Walk-in"})
        )
        assert status == 201
        status, body, _headers = primary.handle_wire("POST", "/v1/feedback", _feedback_body(world))
        assert status == 201
        event_id = json.loads(body)["event_id"]
        commits = world.server.durability.read_commits(after_lsn=0)
        kinds = {record["kind"] for commit in commits for record in commit["records"]}
        assert "users" in kinds
        assert kinds <= {"fixes", "users", "content", "tracking", "editorial", "server"}

        survivor = wal.recover(world)
        survivor.durability.replay_into(survivor, after_lsn=0)
        replayed = Gateway(survivor)
        user_ids = world.server.users.user_ids()
        assert "walk-in" in user_ids and survivor.users.user_ids() == user_ids
        for user_id in user_ids:
            live = _history_bodies(primary, user_id)
            assert _history_bodies(replayed, user_id) == live
        assert event_id in _history_bodies(replayed, world.commuters[0].user_id)[-1]

    def test_restored_server_does_not_relog_restored_writes(self, wal):
        world = wal.world()
        lsn_before = world.server.durability.last_lsn
        world.server.restore_snapshot(json.loads(json.dumps(world.server.snapshot())))
        assert world.server.durability.last_lsn == lsn_before


class TestClassifierDurability:
    """train_classifier() is state, not configuration: the corpus rides the
    WAL (a ``server``/``train_classifier`` record) and the snapshot, so a
    recovered process classifies exactly as the one that crashed."""

    def test_training_replays_from_the_log(self, wal):
        world = wal.world()
        probe = "notizie traffico citta"
        expected = world.server._classifier.predict_proba(probe)
        survivor = wal.recover(world)
        assert survivor._classifier is None
        survivor.durability.replay_into(survivor, after_lsn=0)
        assert survivor._classifier is not None
        assert survivor._classifier.is_trained
        assert survivor._classifier.predict_proba(probe) == expected

    def test_corpus_rides_the_snapshot(self, wal):
        world = wal.world()
        durable = json.loads(json.dumps(world.server.snapshot()))
        assert durable["classifier_corpus"] is not None
        probe = "notizie traffico citta"
        expected = world.server._classifier.predict_proba(probe)
        plain = PphcrServer(
            city=world.city,
            config=replace(world.server.config, durability=DurabilityConfig()),
        )
        undurable = dict(durable)
        undurable.pop("wal_lsn")
        plain.restore_snapshot(undurable)
        assert plain._classifier is not None
        assert plain._classifier.predict_proba(probe) == expected

    def test_retraining_past_the_snapshot_recovers_via_tail(self, wal):
        world = wal.world()
        durable = json.loads(json.dumps(world.server.snapshot()))
        world.server.train_classifier(
            ["partita pallone campionato", "meteo pioggia vento"],
            ["sport", "weather"],
        )
        probe = "partita pallone"
        expected = world.server._classifier.predict_proba(probe)
        survivor = wal.recover(world)
        survivor.restore_snapshot(durable, replay_log=True)
        assert survivor._classifier.predict_proba(probe) == expected


class TestCompaction:
    def test_maintenance_tick_compacts_over_budget(self, wal):
        world = wal.world()
        server = world.server
        # Shrink the budget so the accumulated build traffic is over it.
        server.durability._config = replace(
            server.durability._config, compact_min_bytes=1024
        )
        summary = server.maintenance_tick()
        assert summary["wal_compacted"] == 1
        assert server.durability.load_checkpoint() is not None
        # All frames were folded into the checkpoint: empty tails.
        assert server.durability.read_commits(after_lsn=0) == []
        # Under budget now — the next tick does not compact again.
        assert server.maintenance_tick()["wal_compacted"] == 0

    def test_recovery_prefers_checkpoint_plus_tail(self, wal):
        world = wal.world()
        user_ids = sorted(world.server.users.user_ids())
        report = world.server.durability.maybe_compact(world.server, force=True)
        assert report is not None and report["reclaimed_bytes"] > 0
        # Post-checkpoint traffic lands on the (fresh) tail.
        _commuter, drive = world.live_drives()[0]
        world.server.users.ingest_fixes(list(drive.fixes())[:10], skip_stale=True)
        live = fingerprint(world, user_ids)

        survivor = wal.recover(world)
        checkpoint = survivor.durability.load_checkpoint()
        assert checkpoint is not None
        survivor.restore_snapshot(checkpoint["snapshot"], replay_log=True)
        assert fingerprint(survivor, user_ids) == live

    def test_appends_racing_the_checkpoint_survive_in_the_tail(self, wal, monkeypatch):
        world = wal.world()
        server = world.server
        user_ids = sorted(server.users.user_ids())
        _commuter, drive = world.live_drives()[0]
        fixes = list(drive.fixes())[:10]
        take_snapshot = server.snapshot

        def snapshot_then_ingest():
            # Lands after the watermark is read, before the logs are rewritten.
            payload = take_snapshot()
            server.users.ingest_fixes(fixes, skip_stale=True)
            return payload

        monkeypatch.setattr(server, "snapshot", snapshot_then_ingest)
        report = server.durability.maybe_compact(server, force=True)
        watermark, last_lsn = report["lsn"], server.durability.last_lsn
        assert last_lsn > watermark
        tail = server.durability.read_commits(after_lsn=0)
        assert [commit["lsn"] for commit in tail] == list(range(watermark + 1, last_lsn + 1))
        live = fingerprint(world, user_ids)

        survivor = wal.recover(world)
        checkpoint = survivor.durability.load_checkpoint()
        assert checkpoint["lsn"] == watermark
        survivor.restore_snapshot(checkpoint["snapshot"], replay_log=True)
        assert fingerprint(survivor, user_ids) == live

    def test_fsync_orders_checkpoint_directory_then_logs(self, wal, monkeypatch):
        world = wal.world()
        durability = world.server.durability
        directory = durability.directory
        writers = {w.path.stat().st_ino: w for w in durability._writers.values()}
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            inode = os.fstat(fd).st_ino
            writer = writers.get(inode)
            # A rewritten log must still be locked while it is synced.
            calls.append(("fsync", inode, writer is None or writer.lock.locked()))
            real_fsync(fd)

        def replace_file(source, target):
            calls.append(("replace", Path(source).name, Path(target).name))
            real_replace(source, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace_file)
        # The build above ran with fsync off; only the checkpoint syncs.
        durability._config = replace(durability._config, fsync=True)
        assert durability.maybe_compact(world.server, force=True) is not None
        checkpoint = directory / "checkpoint.json.gz"
        assert calls[:3] == [
            ("fsync", checkpoint.stat().st_ino, True),
            ("replace", "checkpoint.json.tmp", checkpoint.name),
            ("fsync", directory.stat().st_ino, True),
        ]
        assert sorted(calls[3:]) == sorted(("fsync", inode, True) for inode in writers)

        calls.clear()
        durability._config = replace(durability._config, fsync=False)
        assert durability.maybe_compact(world.server, force=True) is not None
        assert calls == [("replace", "checkpoint.json.tmp", checkpoint.name)]

    def test_close_is_idempotent_and_appends_reopen(self, wal):
        world = wal.world()
        durability = world.server.durability
        durability.close()
        durability.close()
        lsn = durability.append(0, [])
        assert [commit["lsn"] for commit in durability.read_commits(after_lsn=lsn - 1)] == [lsn]


# ---------------------------------------------------------------------------
# Read replicas
# ---------------------------------------------------------------------------


def _replica_for(world):
    replica_config = replace(world.server.config, durability=DurabilityConfig())
    return ReadReplica(
        world.server.durability.directory,
        build_server=lambda: PphcrServer(city=world.city, config=replica_config),
    )


def _feedback_body(world):
    return json.dumps(
        {
            "user_id": world.commuters[0].user_id,
            "content_id": world.catalogue.clips[0].clip_id,
            "kind": "like",
            "timestamp_s": PROBE_S,
        }
    )


class TestReadReplica:
    def test_lag_zero_reads_are_byte_identical(self, wal):
        world = wal.world()
        replica = _replica_for(world)
        assert replica.catch_up() > 0
        assert replica.lag_frames() == 0
        primary = Gateway(world.server)
        user_id = world.commuters[0].user_id
        clip_id = world.catalogue.clips[0].clip_id
        probes = [
            (f"/v1/users/{user_id}", {}),
            (f"/v1/clips/{clip_id}", {}),
            (f"/v1/recommendations/{user_id}", {"now_s": str(PROBE_S)}),
        ]
        for path, query in probes:
            p_status, p_body, p_headers = primary.handle_wire(
                "GET", path, None, query=query
            )
            r_status, r_body, r_headers = replica.handle_wire(
                "GET", path, None, query=query
            )
            assert (r_status, r_body) == (p_status, p_body)
            assert "etag" in p_headers
            assert r_headers.get("etag") == p_headers.get("etag")

    def test_catch_up_follows_new_primary_writes(self, wal):
        world = wal.world()
        replica = _replica_for(world)
        replica.catch_up()
        commuter, drive = world.live_drives()[0]
        world.server.users.ingest_fixes(list(drive.fixes())[:10], skip_stale=True)
        lag = replica.lag_frames()
        assert lag > 0
        assert replica.catch_up() == lag
        assert replica.lag_frames() == 0
        assert replica.server.users.tracking.fix_count(
            commuter.user_id
        ) == world.server.users.tracking.fix_count(commuter.user_id)

    def test_writes_rejected_until_promoted(self, wal):
        world = wal.world()
        replica = _replica_for(world)
        replica.catch_up()
        status, _body, headers = replica.handle_wire(
            "POST", "/v1/feedback", _feedback_body(world)
        )
        assert status == 405
        assert headers.get("Allow") == "GET"
        assert not replica.promoted
        assert replica.promote() is replica.server
        assert replica.promoted
        status, _body, _headers = replica.handle_wire(
            "POST", "/v1/feedback", _feedback_body(world)
        )
        assert status < 400

    def test_replica_server_must_not_have_its_own_wal(self, wal, tmp_path):
        world = wal.world()
        durable_config = replace(
            world.server.config,
            durability=DurabilityConfig(
                enabled=True, directory=str(tmp_path / "replica-wal")
            ),
        )
        with pytest.raises(ValidationError):
            ReadReplica(
                world.server.durability.directory,
                build_server=lambda: PphcrServer(
                    city=world.city, config=durable_config
                ),
            )

    def test_lag_gauge_exported(self, wal):
        world = wal.world()
        replica = _replica_for(world)
        replica.catch_up()
        snapshot = replica.server.telemetry.metrics_snapshot()
        series = snapshot["gauges"]["replica_lag_frames"]["series"]
        assert series and series[0]["value"] == 0


# ---------------------------------------------------------------------------
# Telemetry and ops surfaces
# ---------------------------------------------------------------------------


class TestWalTelemetry:
    def test_ops_metrics_expose_wal_counters(self, wal):
        world = wal.world()
        gateway = Gateway(world.server)
        status, body, _headers = gateway.handle_wire("GET", "/v1/ops/metrics", None)
        assert status == 200
        payload = json.loads(body)["metrics"]
        appends = payload["counters"]["wal_appends_total"]["series"]
        assert sum(entry["value"] for entry in appends) > 0
        assert {entry["labels"]["shard"] for entry in appends} >= {"global"}
        wal_bytes = payload["counters"]["wal_bytes_total"]["series"]
        assert sum(entry["value"] for entry in wal_bytes) > 0
        fsync = payload["histograms"]["wal_fsync_seconds"]["series"]
        assert fsync and fsync[0]["count"] > 0

    def test_compaction_counters_and_dashboard_lines(self, wal):
        world = wal.world()
        server = world.server
        server.durability.maybe_compact(server, force=True)
        dashboard = ControlDashboard(
            server.users, server.content, editorial=server.editorial
        )
        report = dashboard.ops_report(telemetry=server.telemetry)
        lines = report.summary_lines()
        assert any("write-ahead log:" in line for line in lines), lines
        assert any("compactions: 1" in line for line in lines)
        counters = report.metrics["counters"]
        assert (
            sum(
                entry["value"]
                for entry in counters["wal_compactions_total"]["series"]
            )
            == 1
        )
