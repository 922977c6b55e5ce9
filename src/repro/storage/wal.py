"""The write-ahead log: per-shard append-only change logs with checksummed frames.

Durability before this module was full-JSON snapshots: a crash lost
everything since the last :meth:`PphcrServer.snapshot`.  The WAL closes
that gap by appending every committed write to an append-only log, so
recovery becomes *snapshot + log tail* and a fresh process can replay
exactly the writes the snapshot missed — point-in-time recovery without
re-ingesting anything from clients.

Layout: one log file per user shard (``shard-000.log`` …) plus one
``global.log`` for unsharded state (the content catalogue, editorial
desk, server-level operations).  A user's writes all land on the owning
shard's log, in the order the server applied them.  Every write runs on
the caller's thread, so the LSN sequence — and with it each log's bytes —
is a function of the request stream alone.

Frame format (the unit of append and of salvage)::

    [u32 length][u32 crc32][payload]          (big-endian header)

where ``payload`` is the canonical JSON (sorted keys, no whitespace) of
one *commit*: ``{"lsn": n, "records": [...]}``.  The LSN is a global
monotonic sequence shared by all logs; merging every log's frames in LSN
order yields a valid serialization of the server's history (per-shard
order is preserved within each file, and cross-shard dependencies —
e.g. feedback learning reading the content catalogue — are ordered by
program-order happens-before).

Record kinds inside a commit, each one a domain operation replayed
through the owning store's public methods:

``fixes``
    Accepted GPS fixes (the tracking DB's dict-backed per-user histories
    cannot be reconstructed from its ``latest`` table alone, so the WAL
    subscribes to the user manager's fix-listener channel and replays
    ingest).
``users``
    Registrations (the profile row), feedback events (the stored row, its
    event id drawn live, so replay draws no new id) and preference
    seeding, replayed through :meth:`UserManager.apply_logged_op
    <repro.users.management.UserManager.apply_logged_op>`.
``content`` / ``tracking`` / ``editorial`` / ``server``
    Full clip payloads, prunes, editorial injections with their already
    generated ids, text-model refreshes and classifier training — state
    that table rows alone under-determine.

No table's raw changes are logged: every table is written by one of those
operations, so replaying them rewrites the tables (the tracking DB's
``latest`` table and the content DB's tables included) identically.

Torn tails: a crash can leave a half-written frame (or garbage) at the
end of a log.  :func:`scan_frames` walks frame by frame and stops at the
first short read, checksum mismatch or malformed payload; recovery
truncates the file at the last complete commit and reports what was
dropped — never a crash, never a partially applied commit.

Compaction: once any log exceeds ``DurabilityConfig.compact_min_bytes``
(checked from ``PphcrServer.maintenance_tick``), the manager writes a
whole-server checkpoint (snapshot + LSN watermark, gzip level 1) and
rewrites every log keeping only frames past the watermark — "snapshot +
empty tail".  Each log writer tracks the highest LSN its file holds, so a
log entirely at or below the watermark is truncated without being read
back; only a log an append reached after the watermark was taken is
scanned and filtered.  The checkpoint's cost is dominated by encoding the
snapshot, whose streaming part carries each retained trip as text encoded
once per trip (see :meth:`IncrementalMobilityModel.snapshot_state
<repro.streaming.incremental.IncrementalMobilityModel.snapshot_state>`).
With ``fsync`` on, the checkpoint file, the WAL directory and each
rewritten log are fsynced, in that order.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.storage.database import payload_from_bytes, payload_to_bytes
from repro.storage.sharding import shard_of

#: Version stamp carried in checkpoint payloads.
CHECKPOINT_VERSION = 1

#: The checkpoint file a compaction writes next to the logs.
CHECKPOINT_NAME = "checkpoint.json.gz"

#: Frame header: big-endian payload length then crc32 of the payload.
_FRAME_HEADER = struct.Struct(">II")

#: Upper bound on a single frame's payload — anything larger is treated
#: as a corrupt length prefix during salvage, not an allocation attempt.
MAX_FRAME_BYTES = 32 * 1024 * 1024

#: Log key of the unsharded ("global") log file.
GLOBAL_LOG = "global"

# Channel audit -------------------------------------------------------------
#
# Every bus topic published anywhere in ``src/repro`` must appear in exactly
# one of the two sets below — the static analyzer's ``wal-channel-audit``
# rule (``repro.analysis``) enforces it.  The sets are the durability
# decision record: adding a topic means answering "can point-in-time
# recovery rebuild the state this event announces?" and writing the answer
# down where replay code lives.

#: Topics announcing mutations some WAL channel captures: the fix stream
#: or a domain/server op record that :func:`apply_commit` replays through
#: the owning store's public methods.
WAL_LOGGED_TOPICS = frozenset(
    {
        # content op "ingest" carries the full clip payload (including any
        # classified category scores), so replay rewrites the catalogue.
        "clip.ingested",
        "clip.classified",
        # server op "train_classifier" replays the training corpus.
        "classifier.trained",
        # server op "refresh_text_model" refits the TF-IDF model.
        "recommender.text_model_refreshed",
        # users op "register" carries the profile row.
        "user.registered",
    }
)

#: Topics that are notifications over *derived* or process-local state —
#: deliberately absent from the log because replaying the logged channels
#: rewrites (streaming/mobility models from the fix stream) or never needs
#: (failure notices, restore banners, read-path telemetry) what they announce.
WAL_SUPPRESSED_TOPICS = frozenset(
    {
        # streaming/mobility model updates: rebuilt by replaying fixes.
        "tracking.trip_completed",
        "tracking.staypoint_spawned",
        "tracking.model_repaired",
        "tracking.model_rebuilt",
        "tracking.compacted",
        # failure notification — the aborted batch wrote nothing.
        "tracking.batch_failed",
        # lifecycle banners emitted *by* restore paths.
        "server.restored",
        "server.shard_restored",
        # read-path telemetry: context assembly and recommendation decisions.
        "context.built",
        "recommendation.decision",
    }
)


# Frame codec ---------------------------------------------------------------


def encode_frame(commit: Dict[str, Any]) -> bytes:
    """Serialize one commit payload into a checksummed frame."""
    raw = payload_to_bytes(commit)
    return _FRAME_HEADER.pack(len(raw), zlib.crc32(raw) & 0xFFFFFFFF) + raw


def scan_frames(blob: bytes) -> Tuple[List[Dict[str, Any]], int, Optional[str]]:
    """Walk a log's bytes frame by frame, stopping at the first damage.

    Returns ``(commits, good_bytes, reason)``: every complete, checksummed
    commit payload in file order, the byte offset of the last complete
    frame's end, and ``None`` when the whole blob was clean — otherwise a
    short human-readable reason for the torn tail.  Never raises on
    corrupt input: damage terminates the scan, it does not propagate.
    """
    commits: List[Dict[str, Any]] = []
    offset = 0
    total = len(blob)
    while offset < total:
        if total - offset < _FRAME_HEADER.size:
            return commits, offset, "short frame header"
        length, checksum = _FRAME_HEADER.unpack_from(blob, offset)
        if length > MAX_FRAME_BYTES:
            return commits, offset, f"implausible frame length {length}"
        start = offset + _FRAME_HEADER.size
        if total - start < length:
            return commits, offset, "truncated frame payload"
        payload = blob[start : start + length]
        if zlib.crc32(payload) & 0xFFFFFFFF != checksum:
            return commits, offset, "frame checksum mismatch"
        try:
            commit = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return commits, offset, "malformed frame payload"
        if (
            not isinstance(commit, dict)
            or not isinstance(commit.get("lsn"), int)
            or not isinstance(commit.get("records"), list)
        ):
            return commits, offset, "frame payload is not a commit"
        commits.append(commit)
        offset = start + length
    return commits, offset, None


def salvage_file(path: Path, *, truncate: bool = True) -> Dict[str, Any]:
    """Scan one log file and (optionally) cut its torn tail off in place.

    Returns a report: complete frames found, bytes kept, bytes dropped
    and the damage reason (``None`` for a clean file).  With
    ``truncate=True`` the file is physically truncated at the last
    complete commit, so subsequent appends continue from a clean tail.
    """
    blob = path.read_bytes()
    commits, good_bytes, reason = scan_frames(blob)
    dropped = len(blob) - good_bytes
    if dropped and truncate:
        with open(path, "r+b") as handle:
            handle.truncate(good_bytes)
    return {
        "path": path.name,
        "frames": len(commits),
        "bytes_kept": good_bytes,
        "bytes_dropped": dropped,
        "reason": reason,
    }


def _fsync_directory(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def log_paths(directory: Path) -> List[Path]:
    """Every log file in a WAL directory, in stable name order."""
    return sorted(Path(directory).glob("*.log"))


def read_log_commits(directory: Path, *, after_lsn: int = 0) -> List[Dict[str, Any]]:
    """All complete commits in a WAL directory with ``lsn > after_lsn``.

    Read-only (a replica shipping frames from a live primary must not
    truncate the primary's tails): incomplete trailing frames are simply
    not yet visible.  The merged result is sorted by LSN — the valid
    global serialization replay applies.
    """
    commits: List[Dict[str, Any]] = []
    for path in log_paths(Path(directory)):
        found, _good, _reason = scan_frames(path.read_bytes())
        commits.extend(commit for commit in found if commit["lsn"] > after_lsn)
    commits.sort(key=lambda commit: commit["lsn"])
    return commits


def load_checkpoint(directory: Path) -> Optional[Dict[str, Any]]:
    """The compaction checkpoint in a WAL directory, if one was written.

    Returns ``{"version": 1, "lsn": n, "snapshot": {...}}`` or ``None``.
    """
    path = Path(directory) / CHECKPOINT_NAME
    if not path.exists():
        return None
    payload = payload_from_bytes(path.read_bytes())
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValidationError(
            f"unsupported WAL checkpoint (want version {CHECKPOINT_VERSION})"
        )
    return payload


# Replay --------------------------------------------------------------------


def _apply_fixes_record(server, record: Dict[str, Any]) -> None:
    from repro.geo import GeoPoint
    from repro.spatialdb import GpsFix

    fixes = [
        GpsFix(
            user_id=user_id,
            timestamp_s=timestamp_s,
            position=GeoPoint(lat, lon),
            speed_mps=speed_mps,
            accuracy_m=accuracy_m,
        )
        for user_id, timestamp_s, lat, lon, speed_mps, accuracy_m in record["fixes"]
    ]
    server.users.replay_fixes(fixes)


def apply_commit(server, commit: Dict[str, Any]) -> int:
    """Apply one logged commit to a server; returns records applied.

    The caller is responsible for suspending the server's own WAL first
    (see :meth:`DurabilityManager.suspended`) so replayed writes are not
    logged again; a replica's server has no WAL attached and needs no
    guard.
    """
    applied = 0
    for record in commit["records"]:
        kind = record["kind"]
        if kind == "fixes":
            _apply_fixes_record(server, record)
        elif kind == "content":
            server.content.apply_logged_op(record["op"], record["data"])
        elif kind == "tracking":
            op = record["op"]
            if op == "prune_before":
                server.users.tracking.prune_before(record["user_id"], record["cutoff_s"])
            elif op == "clear_user":
                server.users.tracking.clear_user(record["user_id"])
            else:
                raise ValidationError(f"unknown tracking op {op!r} in WAL frame")
        elif kind == "users":
            server.users.apply_logged_op(record["op"], record["data"])
        elif kind == "editorial":
            op = record["op"]
            if op == "inject":
                server.editorial.load_injection(record["data"])
            elif op == "withdraw":
                server.editorial.withdraw(record["injection_id"])
            else:
                raise ValidationError(f"unknown editorial op {op!r} in WAL frame")
        elif kind == "server":
            op = record["op"]
            if op == "refresh_text_model":
                server.refresh_text_model()
            elif op == "train_classifier":
                data = record.get("data") or {}
                server.train_classifier(
                    data.get("texts") or [], data.get("labels") or []
                )
            else:
                raise ValidationError(f"unknown server op {op!r} in WAL frame")
        else:
            raise ValidationError(f"unknown record kind {kind!r} in WAL frame")
        applied += 1
    return applied


# The manager ---------------------------------------------------------------


@dataclass(frozen=True)
class DurabilityConfig:
    """The ``ServerConfig.durability`` knob.

    ``enabled`` turns the subsystem on (``directory`` is then required);
    ``fsync`` additionally fsyncs every frame (off by default — the tests
    and benches model durability semantics, not disk latency; flush time
    is recorded in the ``wal_fsync_seconds`` histogram either way);
    ``compact_min_bytes`` is the per-log size budget that triggers
    checkpoint compaction from ``maintenance_tick``.
    """

    enabled: bool = False
    directory: Optional[str] = None
    fsync: bool = False
    compact_min_bytes: int = 4 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.enabled and not self.directory:
            raise ValidationError("durability.enabled requires a directory")
        if self.compact_min_bytes < 1:
            raise ValidationError(
                f"compact_min_bytes must be >= 1, got {self.compact_min_bytes}"
            )


class _LogWriter:
    """One append-only log file: lazy handle, size/frame/LSN counters, a lock."""

    def __init__(self, path: Path, *, commits: Sequence[Dict[str, Any]] = ()) -> None:
        self.path = path
        self.lock = threading.Lock()
        self.size = path.stat().st_size if path.exists() else 0
        self.frames = len(commits)
        #: Highest LSN the file holds (0 when empty).  Compaction truncates
        #: a log at or below its watermark without reading the file back.
        self.last_lsn = max((commit["lsn"] for commit in commits), default=0)
        self._handle = None

    def handle(self):
        if self._handle is None:
            self._handle = open(self.path, "ab")
        return self._handle

    def append(self, frame: bytes, lsn: int, *, fsync: bool) -> None:
        handle = self.handle()
        handle.write(frame)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
        self.size += len(frame)
        self.frames += 1
        self.last_lsn = max(self.last_lsn, lsn)

    def rewrite(self, commits: List[Dict[str, Any]], *, fsync: bool) -> None:
        """Replace the file's frames with ``commits`` (compaction)."""
        self.close()
        frames = [encode_frame(commit) for commit in commits]
        with open(self.path, "wb") as handle:
            handle.writelines(frames)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        self.size = sum(len(frame) for frame in frames)
        self.frames = len(commits)
        self.last_lsn = max((commit["lsn"] for commit in commits), default=0)

    def close(self) -> None:
        """Close the append handle; the next append reopens it."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class DurabilityManager:
    """Owns a server's WAL directory: capture, recovery, replay, compaction.

    Constructed (and attached) by :class:`~repro.pipeline.server.PphcrServer`
    when ``config.durability.enabled``; construction scans the directory,
    salvages any torn tails in place (``recovery_report``) and continues
    the LSN sequence where the previous process stopped.
    """

    def __init__(
        self,
        config: DurabilityConfig,
        *,
        shards: int,
        telemetry=None,
    ) -> None:
        if not config.directory:
            raise ValidationError("DurabilityManager requires a log directory")
        self._config = config
        self._shards = shards
        self._directory = Path(config.directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._suspend_depth = 0
        self._writers: Dict[str, _LogWriter] = {}
        self._appends = None
        self._bytes = None
        self._fsync_seconds = None
        self._compactions = None
        self._reclaimed = None
        # Resolved (appends{shard}, bytes, fsync seconds) series per log
        # key, so an append pays one dict lookup, not three labels()
        # validations.  Filled on a key's first append, so the registry
        # holds the same series it would without the cache.
        self._append_series: Dict[str, Tuple[Any, Any, Any]] = {}
        if telemetry is not None and telemetry.enabled:
            metrics = telemetry.metrics
            self._appends = metrics.counter(
                "wal_appends_total",
                "Commit frames appended to the write-ahead log",
                labels=("shard",),
            )
            self._bytes = metrics.counter(
                "wal_bytes_total", "Bytes appended to the write-ahead log"
            )
            self._fsync_seconds = metrics.histogram(
                "wal_fsync_seconds",
                "Time to flush (and fsync, when enabled) one WAL frame",
            )
            self._compactions = metrics.counter(
                "wal_compactions_total",
                "Checkpoint compactions rewriting the logs as snapshot + tail",
            )
            self._reclaimed = metrics.counter(
                "wal_compaction_reclaimed_bytes_total",
                "Log bytes reclaimed by checkpoint compaction",
            )
        #: Per-file salvage reports from the startup scan (torn tails are
        #: truncated in place; ``bytes_dropped`` says what a crash cost).
        self.recovery_report: List[Dict[str, Any]] = []
        self._next_lsn = 1
        self._recover()

    # Lifecycle ------------------------------------------------------------

    def _recover(self) -> None:
        last_lsn = 0
        for path in log_paths(self._directory):
            report = salvage_file(path, truncate=True)
            self.recovery_report.append(report)
            commits, _good, _reason = scan_frames(path.read_bytes())
            writer = _LogWriter(path, commits=commits)
            last_lsn = max(last_lsn, writer.last_lsn)
            self._writers[path.stem] = writer
        checkpoint = load_checkpoint(self._directory)
        if checkpoint is not None:
            last_lsn = max(last_lsn, checkpoint["lsn"])
        self._next_lsn = last_lsn + 1

    def attach(self, server) -> None:
        """Subscribe to every domain-operation channel of a server."""
        server.users.add_fix_listener(self._on_fixes)
        server.content.set_op_listener(self._on_content_op)
        server.users.set_op_listener(self._on_users_op)
        server.users.tracking.set_op_listener(self._on_tracking_op)
        server.editorial.set_op_listener(self._on_editorial_op)

    @property
    def directory(self) -> Path:
        """The WAL directory (what a replica ships frames from)."""
        return self._directory

    @property
    def last_lsn(self) -> int:
        """The most recently allocated log sequence number (0 when empty)."""
        with self._lock:
            return self._next_lsn - 1

    @property
    def suspended(self) -> bool:
        """Whether capture is currently off (restore/replay in progress)."""
        return self._suspend_depth > 0

    @contextmanager
    def suspended_capture(self) -> Iterator[None]:
        """Turn capture off for the duration (restore and replay paths).

        Replaying a commit drives the same public mutators the original
        write did; without this guard every replayed write would be
        logged a second time.
        """
        self._suspend_depth += 1
        try:
            yield
        finally:
            self._suspend_depth -= 1

    def stats(self) -> Dict[str, Any]:
        """Counters for dashboards: per-log sizes and frames, the LSN."""
        return {
            "directory": str(self._directory),
            "last_lsn": self.last_lsn,
            "logs": {
                key: {"bytes": writer.size, "frames": writer.frames}
                for key, writer in sorted(self._writers.items())
            },
        }

    # Capture --------------------------------------------------------------

    def _on_fixes(self, fixes) -> None:
        if self.suspended or not fixes:
            return
        grouped: Dict[int, list] = {}
        for fix in fixes:
            grouped.setdefault(shard_of(fix.user_id, self._shards), []).append(fix)
        for shard in sorted(grouped):
            encoded = [
                [
                    fix.user_id,
                    fix.timestamp_s,
                    fix.position.lat,
                    fix.position.lon,
                    fix.speed_mps,
                    fix.accuracy_m,
                ]
                for fix in grouped[shard]
            ]
            self.append(shard, [{"kind": "fixes", "shard": shard, "fixes": encoded}])

    def _on_content_op(self, op: str, data: Dict[str, Any]) -> None:
        if self.suspended:
            return
        self.append(None, [{"kind": "content", "op": op, "data": data}])

    def _on_users_op(self, op: str, data: Dict[str, Any]) -> None:
        # Per-user state: the record lands on the owning shard's log, in
        # order with the user's fixes.
        if self.suspended:
            return
        shard = shard_of(data["user_id"], self._shards)
        self.append(shard, [{"kind": "users", "op": op, "data": data}])

    def _on_tracking_op(self, op: str, data: Dict[str, Any]) -> None:
        if self.suspended:
            return
        record = {"kind": "tracking", "op": op}
        record.update(data)
        self.append(None, [record])

    def _on_editorial_op(self, op: str, data: Dict[str, Any]) -> None:
        if self.suspended:
            return
        if op == "inject":
            record = {"kind": "editorial", "op": op, "data": data}
        else:
            record = {"kind": "editorial", "op": op, **data}
        self.append(None, [record])

    def record_server_op(self, op: str, data: Optional[Dict[str, Any]] = None) -> None:
        """Log a server-level operation (e.g. a text-model refresh).

        ``data`` carries the operation's replay payload (e.g. the
        classifier training corpus) and must be JSON-serializable.
        """
        if self.suspended:
            return
        record: Dict[str, Any] = {"kind": "server", "op": op}
        if data is not None:
            record["data"] = data
        self.append(None, [record])

    # Append ---------------------------------------------------------------

    def _log_key(self, shard: Optional[int]) -> str:
        return GLOBAL_LOG if shard is None else f"shard-{shard:03d}"

    def _writer(self, key: str) -> _LogWriter:
        writer = self._writers.get(key)
        if writer is None:
            with self._lock:
                writer = self._writers.get(key)
                if writer is None:
                    writer = _LogWriter(self._directory / f"{key}.log")
                    self._writers[key] = writer
        return writer

    def append(self, shard: Optional[int], records: List[Dict[str, Any]]) -> int:
        """Append one commit to the owning log; returns its LSN."""
        with self._lock:
            lsn = self._next_lsn
            self._next_lsn += 1
        frame = encode_frame({"lsn": lsn, "records": records})
        key = self._log_key(shard)
        writer = self._writer(key)
        with writer.lock:
            t0 = time.perf_counter()
            writer.append(frame, lsn, fsync=self._config.fsync)
            elapsed = time.perf_counter() - t0
        if self._appends is not None:
            series = self._append_series.get(key)
            if series is None:
                series = (
                    self._appends.labels(shard=key),
                    self._bytes.labels(),
                    self._fsync_seconds.labels(),
                )
                self._append_series[key] = series
            appends, appended_bytes, fsync_seconds = series
            appends.inc()
            appended_bytes.inc(len(frame))
            fsync_seconds.record(elapsed)
        return lsn

    def flush(self) -> None:
        """Flush every open log handle (a replica reads the files)."""
        for writer in list(self._writers.values()):
            with writer.lock:
                if writer._handle is not None:
                    writer._handle.flush()

    def close(self) -> None:
        """Close every open log handle.

        Idempotent, and not terminal: a later append reopens its log.
        """
        for writer in list(self._writers.values()):
            with writer.lock:
                writer.close()

    # Recovery / replay ----------------------------------------------------

    def read_commits(self, *, after_lsn: int = 0) -> List[Dict[str, Any]]:
        """Every complete logged commit with ``lsn > after_lsn``, LSN-sorted."""
        self.flush()
        return read_log_commits(self._directory, after_lsn=after_lsn)

    def replay_into(self, server, *, after_lsn: int) -> Dict[str, int]:
        """Replay committed frames past ``after_lsn`` into a server.

        Capture suspends for the duration so replayed writes are not
        logged again.  Returns replay counters.
        """
        commits = self.read_commits(after_lsn=after_lsn)
        applied = 0
        with self.suspended_capture():
            for commit in commits:
                applied += apply_commit(server, commit)
        return {
            "after_lsn": after_lsn,
            "last_lsn": commits[-1]["lsn"] if commits else after_lsn,
            "frames_replayed": len(commits),
            "records_applied": applied,
        }

    def load_checkpoint(self) -> Optional[Dict[str, Any]]:
        """The directory's compaction checkpoint payload, if any."""
        return load_checkpoint(self._directory)

    # Compaction -----------------------------------------------------------

    def maybe_compact(self, server, *, force: bool = False) -> Optional[Dict[str, Any]]:
        """Rewrite logs as snapshot + empty tail once over the size budget.

        Called from ``PphcrServer.maintenance_tick``: when any log's size
        reaches ``compact_min_bytes`` (or ``force``), write a whole-server
        checkpoint at the current LSN, then rewrite every log keeping only
        frames *past* the watermark (normally none — an empty tail).  A log
        whose highest LSN is at or below the watermark is truncated without
        being read back; only a log an append reached after the watermark
        was taken is scanned and filtered.  With ``fsync`` on, the
        checkpoint, its directory entry and every rewritten log are synced
        before the log's lock is released.
        Recovery and replicas prefer the checkpoint and replay the tails.
        """
        if self.suspended:
            return None
        over_budget = any(
            writer.size >= self._config.compact_min_bytes
            for writer in self._writers.values()
        )
        if not (force or over_budget):
            return None
        watermark = self.last_lsn
        payload = {
            "version": CHECKPOINT_VERSION,
            "lsn": watermark,
            "snapshot": server.snapshot(),
        }
        fsync = self._config.fsync
        target = self._directory / CHECKPOINT_NAME
        scratch = target.with_suffix(".tmp")
        with open(scratch, "wb") as handle:
            handle.write(payload_to_bytes(payload, compress=True))
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(scratch, target)
        if fsync:
            # The rename is only durable once the directory entry is.
            _fsync_directory(self._directory)
        reclaimed = 0
        for writer in list(self._writers.values()):
            with writer.lock:
                before = writer.size
                kept: List[Dict[str, Any]] = []
                if writer.last_lsn > watermark:
                    # An append raced the checkpoint: keep what it wrote.
                    commits, _good, _reason = scan_frames(writer.path.read_bytes())
                    kept = [c for c in commits if c["lsn"] > watermark]
                writer.rewrite(kept, fsync=fsync)
                reclaimed += before - writer.size
        if self._compactions is not None:
            self._compactions.inc()
            self._reclaimed.inc(reclaimed)
        return {
            "lsn": watermark,
            "reclaimed_bytes": reclaimed,
            "logs": len(self._writers),
        }
