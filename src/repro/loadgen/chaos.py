"""Scripted fault injection for world replays.

A :class:`ChaosController` rides along a
:class:`~repro.loadgen.replay.WorldReplay` and fires injections at
scripted event indices.  Six fault families are supported, matching the
recovery surfaces the storage and pipeline layers expose:

* ``kill_restore`` — snapshot the server at index *s*, then at index *k*
  throw the server away, restore a fresh one from the snapshot, and
  re-dispatch the lost window of write traffic (the device-side retry);
* ``shard_move`` — ``snapshot_shard`` at *s*, drop/move the shard via
  ``restore_shard`` at *k*, then re-ingest only the lost-window writes of
  users living on that shard;
* ``worker_fault`` — arm a :class:`~repro.storage.sharding.ShardWorkerPool`
  fault hook so the next pooled task raises mid-group, observe the 500,
  disarm and retry the failed request once;
* ``bus_dead_letter`` — subscribe a once-raising handler to a bus topic
  so one delivery dead-letters, proving producers survive consumer bugs;
* ``torn_log`` — on a durability-enabled server: snapshot at *s*, mark a
  tear point at *t* (everything after it is "still in the page cache"),
  crash at *k* by truncating the WAL files to the tear point and leaving
  a half-written frame on one tail; a rebuilt process salvages the torn
  tail, restores snapshot + log tail (no client re-ingest for the logged
  window ``[s, t)``) and only the post-tear window ``[t, k)`` is retried;
* ``replica_failover`` — build a log-shipped
  :class:`~repro.storage.replica.ReadReplica` from the primary's WAL,
  catch it up to lag 0, byte-compare cacheable reads against the primary,
  then promote it and point the rest of the replay at it.

Every injection appends to :attr:`ChaosController.log`, so tests can
assert each scheduled fault actually fired.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional

from repro.errors import PipelineError, ValidationError
from repro.loadgen.script import WireEvent
from repro.storage.sharding import shard_of
from repro.storage.wal import log_paths


def _snapshot_roundtrip(payload: Dict) -> Dict:
    """Serialize + reparse, so restores see exactly what disk would hold."""
    return json.loads(json.dumps(payload))


class ChaosController:
    """Injects scripted faults into a replay and records what fired."""

    def __init__(
        self,
        server,
        gateway,
        *,
        rebuild: Optional[Callable[[], Any]] = None,
        gateway_factory: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        self._server = server
        self._gateway = gateway
        self._rebuild = rebuild
        self._gateway_factory = gateway_factory or self._default_gateway
        self._replay = None
        self._injections: List[Dict[str, Any]] = []
        #: Audit trail of injections that actually fired.
        self.log: List[Dict[str, Any]] = []
        # Lost-window bookkeeping for kill/shard recovery.
        self._dispatched: List[WireEvent] = []
        # Worker-fault state.
        self._fault_armed = False
        self._fault_fired_shards: List[int] = []

    @staticmethod
    def _default_gateway(server):
        from repro.pipeline.gateway.gateway import Gateway

        return Gateway(server)

    @property
    def server(self):
        """The server currently behind the gateway (swapped on kill_restore)."""
        return self._server

    def attach(self, replay) -> None:
        self._replay = replay

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule_kill_restore(self, *, snapshot_at: int, kill_at: int) -> None:
        """Snapshot at event ``snapshot_at``; kill + restore at ``kill_at``."""
        if kill_at <= snapshot_at:
            raise ValidationError("kill_at must come after snapshot_at")
        if self._rebuild is None:
            raise ValidationError("kill_restore needs a rebuild factory")
        self._injections.append(
            {
                "fault": "kill_restore",
                "snapshot_at": snapshot_at,
                "kill_at": kill_at,
                "snapshot": None,
            }
        )

    def schedule_shard_move(self, *, shard: int, snapshot_at: int, restore_at: int) -> None:
        """Snapshot one shard at ``snapshot_at``; drop + move it at ``restore_at``."""
        if restore_at <= snapshot_at:
            raise ValidationError("restore_at must come after snapshot_at")
        self._injections.append(
            {
                "fault": "shard_move",
                "shard": shard,
                "snapshot_at": snapshot_at,
                "restore_at": restore_at,
                "snapshot": None,
            }
        )

    def schedule_torn_log(self, *, snapshot_at: int, tear_at: int, kill_at: int) -> None:
        """Crash at ``kill_at`` losing everything after ``tear_at``, plus a torn tail.

        The window ``[snapshot_at, tear_at)`` reached the log and is
        recovered from snapshot + WAL tail without any client re-ingest;
        only ``[tear_at, kill_at)`` (writes the crash caught in flight) is
        re-dispatched as the device retry.
        """
        if not snapshot_at < tear_at < kill_at:
            raise ValidationError("need snapshot_at < tear_at < kill_at")
        if self._rebuild is None:
            raise ValidationError("torn_log needs a rebuild factory")
        if getattr(self._server, "durability", None) is None:
            raise ValidationError("torn_log needs a durability-enabled server")
        self._injections.append(
            {
                "fault": "torn_log",
                "snapshot_at": snapshot_at,
                "tear_at": tear_at,
                "kill_at": kill_at,
                "snapshot": None,
                "cut_sizes": None,
            }
        )

    def schedule_replica_failover(
        self, *, promote_at: int, build_server: Callable[[], Any]
    ) -> None:
        """Fail over to a log-shipped read replica at ``promote_at``.

        ``build_server`` must build a fresh, config-compatible server with
        durability *disabled* (see :class:`~repro.storage.replica.ReadReplica`).
        """
        if getattr(self._server, "durability", None) is None:
            raise ValidationError("replica_failover needs a durability-enabled primary")
        self._injections.append(
            {
                "fault": "replica_failover",
                "promote_at": promote_at,
                "build_server": build_server,
            }
        )

    def schedule_worker_fault(self, *, arm_at: int) -> None:
        """Make the next pooled shard task after ``arm_at`` raise mid-group."""
        self._injections.append({"fault": "worker_fault", "arm_at": arm_at})

    def schedule_bus_dead_letter(self, *, topic: str, arm_at: int) -> None:
        """Subscribe a once-raising handler to ``topic`` at ``arm_at``."""
        self._injections.append(
            {"fault": "bus_dead_letter", "topic": topic, "arm_at": arm_at}
        )

    # ------------------------------------------------------------------
    # Replay hooks
    # ------------------------------------------------------------------

    def before_event(self, index: int, event: WireEvent) -> None:
        for injection in self._injections:
            fault = injection["fault"]
            if fault == "kill_restore":
                if index == injection["snapshot_at"] and injection["snapshot"] is None:
                    injection["snapshot"] = _snapshot_roundtrip(self._server.snapshot())
                elif index == injection["kill_at"] and injection["snapshot"] is not None:
                    self._kill_and_restore(injection, index)
            elif fault == "shard_move":
                if index == injection["snapshot_at"] and injection["snapshot"] is None:
                    injection["snapshot"] = _snapshot_roundtrip(
                        self._server.snapshot_shard(injection["shard"])
                    )
                elif index == injection["restore_at"] and injection["snapshot"] is not None:
                    self._move_shard(injection, index)
            elif fault == "torn_log":
                if index == injection["snapshot_at"] and injection["snapshot"] is None:
                    injection["snapshot"] = _snapshot_roundtrip(self._server.snapshot())
                elif index == injection["tear_at"] and injection["cut_sizes"] is None:
                    durability = self._server.durability
                    durability.flush()
                    injection["cut_sizes"] = {
                        path: path.stat().st_size
                        for path in log_paths(durability.directory)
                    }
                elif index == injection["kill_at"] and injection["cut_sizes"] is not None:
                    self._tear_log_and_recover(injection, index)
            elif fault == "replica_failover":
                if index == injection["promote_at"] and not injection.get("fired_once"):
                    injection["fired_once"] = True
                    self._promote_replica(injection, index)
            elif fault == "worker_fault":
                if index == injection["arm_at"] and not injection.get("armed_once"):
                    injection["armed_once"] = True
                    self._arm_worker_fault()
            elif fault == "bus_dead_letter":
                if index == injection["arm_at"] and not injection.get("armed_once"):
                    injection["armed_once"] = True
                    self._arm_bus_dead_letter(injection["topic"], index)

    def after_event(self, index: int, event: WireEvent, status: int) -> None:
        self._dispatched.append(event)
        if self._fault_armed and self._fault_fired_shards:
            # The armed fault took this request down; the pool rejected the
            # whole group before any write, so one clean retry must succeed.
            self._disarm_worker_fault()
            retry_status, _body = self._replay.dispatch(event)
            self.log.append(
                {
                    "fault": "worker_fault",
                    "at": index,
                    "failed_status": status,
                    "retry_status": retry_status,
                    "shards": sorted(set(self._fault_fired_shards)),
                }
            )
            self._fault_fired_shards = []

    # ------------------------------------------------------------------
    # Fault implementations
    # ------------------------------------------------------------------

    def _kill_and_restore(self, injection: Dict[str, Any], index: int) -> None:
        """The server dies; a fresh process restores and devices retry."""
        lost = self._lost_window(injection["snapshot_at"], index)
        self._close_handles(self._server)
        server = self._rebuild()
        server.restore_snapshot(injection["snapshot"])
        self._server = server
        self._gateway = self._gateway_factory(server)
        self._replay.use_gateway(self._gateway)
        replayed = self._redispatch(lost)
        injection["snapshot"] = None  # fire once
        self.log.append(
            {
                "fault": "kill_restore",
                "at": index,
                "snapshot_at": injection["snapshot_at"],
                "lost_events": len(lost),
                "replayed": replayed,
            }
        )

    def _move_shard(self, injection: Dict[str, Any], index: int) -> None:
        """Drop a shard's live state and restore it from its snapshot."""
        shard = injection["shard"]
        self._server.restore_shard(shard, _snapshot_roundtrip(injection["snapshot"]))
        shards = self._server.config.sharding.shards
        lost = [
            event
            for event in self._lost_window(injection["snapshot_at"], index)
            if any(shard_of(user, shards) == shard for user in event.user_ids())
        ]
        replayed = self._redispatch(lost, only_shard=shard, shards=shards)
        injection["snapshot"] = None  # fire once
        self.log.append(
            {
                "fault": "shard_move",
                "at": index,
                "shard": shard,
                "snapshot_at": injection["snapshot_at"],
                "lost_events": len(lost),
                "replayed": replayed,
            }
        )

    def _tear_log_and_recover(self, injection: Dict[str, Any], index: int) -> None:
        """The crash: WAL tails past the tear point never reached disk."""
        durability = self._server.durability
        durability.close()  # the crash: buffers flushed, handles gone
        directory = durability.directory
        cut_sizes = injection["cut_sizes"]
        for path in log_paths(directory):
            with open(path, "r+b") as handle:
                handle.truncate(cut_sizes.get(path, 0))
        # One log additionally keeps a half-written frame: the append the
        # crash interrupted.  Startup salvage must cut it cleanly.
        torn_path = max(log_paths(directory), key=lambda p: p.stat().st_size)
        with open(torn_path, "ab") as handle:
            handle.write(b"\x00\x00\x30\x39\xde\xad\xbe\xeftorn")
        lost = self._lost_window(injection["tear_at"], index)
        server = self._rebuild()  # construction salvages the torn tail
        salvaged = [
            report
            for report in server.durability.recovery_report
            if report["bytes_dropped"]
        ]
        snapshot_lsn = injection["snapshot"]["wal_lsn"]
        server.restore_snapshot(injection["snapshot"], replay_log=True)
        self._server = server
        self._gateway = self._gateway_factory(server)
        self._replay.use_gateway(self._gateway)
        replayed = self._redispatch(lost)
        injection["cut_sizes"] = None  # fire once
        self.log.append(
            {
                "fault": "torn_log",
                "at": index,
                "snapshot_at": injection["snapshot_at"],
                "tear_at": injection["tear_at"],
                "wal_frames_replayed": server.durability.last_lsn - snapshot_lsn,
                "salvaged": salvaged,
                "lost_events": len(lost),
                "replayed": replayed,
            }
        )

    def _promote_replica(self, injection: Dict[str, Any], index: int) -> None:
        """Catch a log-shipped replica up to lag 0, verify reads, promote."""
        from repro.storage.replica import ReadReplica

        durability = self._server.durability
        durability.flush()
        replica = ReadReplica(
            durability.directory, build_server=injection["build_server"]
        )
        applied = replica.catch_up()
        lag = replica.lag_frames()
        # Byte-compare the most recent cacheable reads against the primary
        # before cutting over: at lag 0 bodies and validators must match.
        probes = matches = 0
        for event in reversed(self._dispatched):
            if probes >= 5:
                break
            if event.method != "GET":
                continue
            p_status, p_body, p_headers = self._gateway.handle_wire(
                "GET", event.path, None, query=event.query
            )
            if "etag" not in p_headers:
                continue
            probes += 1
            r_status, r_body, r_headers = replica.handle_wire(
                "GET", event.path, None, query=event.query
            )
            if (
                p_status == r_status
                and p_body == r_body
                and p_headers.get("etag") == r_headers.get("etag")
            ):
                matches += 1
        replica.promote()
        self._close_handles(self._server)
        self._server = replica.server
        self._gateway = replica
        self._replay.use_gateway(replica)
        self.log.append(
            {
                "fault": "replica_failover",
                "at": index,
                "applied": applied,
                "lag": lag,
                "etag_probes": probes,
                "etag_matches": matches,
            }
        )

    @staticmethod
    def _close_handles(server) -> None:
        """Release a replaced server's WAL file handles (a dead process's
        descriptors close with it)."""
        durability = getattr(server, "durability", None)
        if durability is not None:
            durability.close()

    def _lost_window(self, start: int, end: int) -> List[WireEvent]:
        """State-changing events dispatched in ``[start, end)``."""
        return [
            event for event in self._dispatched[start:end] if event.method != "GET"
        ]

    def _redispatch(
        self,
        events: List[WireEvent],
        *,
        only_shard: Optional[int] = None,
        shards: Optional[int] = None,
    ) -> int:
        """Replay lost writes against the restored server (the device retry).

        For shard recovery, batch bodies are filtered down to the affected
        shard's users: everyone else's fixes are still present, and
        re-posting them would duplicate boundary fixes.
        """
        replayed = 0
        for event in events:
            body = event.body
            if only_shard is not None and body and "fixes" in body:
                kept = [
                    item
                    for item in body["fixes"]
                    if shard_of(item.get("user_id", ""), shards) == only_shard
                ]
                if not kept:
                    continue
                body = dict(body, fixes=kept)
                event = WireEvent(
                    t_s=event.t_s,
                    method=event.method,
                    path=event.path,
                    body=body,
                    query=event.query,
                    tags=event.tags,
                )
            status, response = self._replay.dispatch(event)
            if status >= 400:
                raise PipelineError(
                    f"recovery re-dispatch of {event.method} {event.path} "
                    f"failed with {status}: {response}"
                )
            replayed += 1
        return replayed

    def _arm_worker_fault(self) -> None:
        pool = self._server.workers
        if pool is None:
            raise ValidationError("worker_fault needs a sharded, parallel server")
        self._fault_armed = True
        self._fault_fired_shards = []

        def hook(shard: int) -> None:
            self._fault_fired_shards.append(shard)
            raise PipelineError(f"chaos: injected worker fault on shard {shard}")

        pool.set_fault_hook(hook)

    def _disarm_worker_fault(self) -> None:
        pool = self._server.workers
        if pool is not None:
            pool.set_fault_hook(None)
        self._fault_armed = False

    def _arm_bus_dead_letter(self, topic: str, index: int) -> None:
        state = {"raised": False}

        def failing_handler(message) -> None:
            if not state["raised"]:
                state["raised"] = True
                self.log.append(
                    {"fault": "bus_dead_letter", "at": index, "topic": topic}
                )
                raise PipelineError(f"chaos: injected handler crash on {topic}")

        self._server.bus.subscribe(topic, failing_handler)
