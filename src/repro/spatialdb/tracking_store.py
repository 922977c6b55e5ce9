"""Storage for raw GPS fixes arriving from the client apps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import NotFoundError, ValidationError
from repro.geo import BoundingBox, GeoPoint
from repro.storage import (
    Column,
    IndexSpec,
    Page,
    Schema,
    ShardedDatabase,
    decode_token,
    encode_token,
)
from repro.util.validation import require_finite, require_non_empty

#: Version stamp of :meth:`TrackingStore.snapshot` payloads.
SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class GpsFix:
    """A single GPS observation from a listener's device."""

    user_id: str
    timestamp_s: float
    position: GeoPoint
    speed_mps: float = 0.0
    accuracy_m: float = 10.0

    def __post_init__(self) -> None:
        require_non_empty(self.user_id, "user_id")
        require_finite(self.timestamp_s, "timestamp_s")
        if self.speed_mps < 0:
            raise ValidationError(f"speed_mps must be >= 0, got {self.speed_mps}")
        if self.accuracy_m <= 0:
            raise ValidationError(f"accuracy_m must be > 0, got {self.accuracy_m}")


class _TrackingShard:
    """One shard's partition of the per-user tracking state.

    Everything a user's ingest touches lives in exactly one of these, so
    a shard can be captured, moved or restored on its own (see
    ``docs/ARCHITECTURE.md``, "Sharding").
    """

    __slots__ = ("fixes", "first_seq", "added", "pending", "table")

    def __init__(self, table) -> None:
        self.fixes: Dict[str, List[GpsFix]] = {}
        self.first_seq: Dict[str, int] = {}
        self.added: Dict[str, int] = {}
        #: Latest positions not yet reflected in the ``latest`` table (see
        #: class docstring of :class:`TrackingStore`: ingest defers the
        #: upsert, reads flush).
        self.pending: Dict[str, GpsFix] = {}
        self.table = table


class TrackingStore:
    """Per-user time-ordered GPS fix storage over the tracking DB.

    Fix histories are the primary data (append-only per user, time
    ordered); everything derived is declarative storage-engine state: the
    ``latest`` table carries one row per user with their most recent
    position and a **spatial** :class:`~repro.storage.spec.IndexSpec` over
    it, which is what "who is near location X right now" queries hit.

    With ``shards > 1`` the store partitions by crc32 of the user id
    behind a :class:`~repro.storage.sharding.ShardedDatabase`: each shard
    owns its users' histories, counters and ``latest`` table.  Spatial
    and listing reads fan out and merge; per-user reads route to the
    owning shard.  ``shards == 1`` (the default) is exactly the old
    single-database behaviour.

    Ingest is write-heavy (every fix moves its user) while spatial reads
    are rare, so the latest-row upsert is deferred: ``add_fix`` records
    the position with one dict write and the spatial queries fold pending
    moves into the table before answering.
    """

    def __init__(self, *, index_cell_size_m: float = 1000.0, shards: int = 1) -> None:
        def create_tables(db) -> None:
            db.create_table(
                Schema(
                    name="latest",
                    primary_key="user_id",
                    columns=[
                        Column("user_id", str),
                        Column("lat", float),
                        Column("lon", float),
                        Column("timestamp_s", float),
                    ],
                    indexes=[
                        IndexSpec(
                            "position",
                            kind="spatial",
                            columns=("lat", "lon"),
                            cell_size_m=index_cell_size_m,
                        )
                    ],
                )
            )

        self._db = ShardedDatabase(
            "tracking", shards=shards, shard_key="user_id", create_tables=create_tables
        )
        self._shards = [
            _TrackingShard(self._db.shard(index).table("latest"))
            for index in range(shards)
        ]
        #: Durability hook: prunes and user clears mutate the dict-backed
        #: histories directly (not the ``latest`` table), so the WAL
        #: records them as domain operations and replays them here.
        self._op_listener = None

    def set_op_listener(self, listener) -> None:
        """Install the WAL's domain-operation listener (``None`` clears)."""
        self._op_listener = listener

    def _log_op(self, op: str, data) -> None:
        if self._op_listener is not None:
            self._op_listener(op, data)

    @property
    def database(self) -> ShardedDatabase:
        """The tracking DB router (exposed for dashboards and stats)."""
        return self._db

    @property
    def shard_count(self) -> int:
        """Number of shards the store is partitioned into."""
        return len(self._shards)

    def shard_of(self, user_id: str) -> int:
        """The shard owning a user (stable crc32 assignment)."""
        return self._db.shard_of(user_id)

    def _shard(self, user_id: str) -> _TrackingShard:
        return self._shards[self._db.shard_of(user_id)]

    def add_fix(self, fix: GpsFix) -> None:
        """Append a fix for a user (must be time-ordered per user)."""
        shard = self._shard(fix.user_id)
        history = shard.fixes.setdefault(fix.user_id, [])
        if history and fix.timestamp_s < history[-1].timestamp_s:
            raise ValidationError(
                "fixes must be appended in non-decreasing timestamp order: "
                f"{fix.timestamp_s} < {history[-1].timestamp_s} for user {fix.user_id!r}"
            )
        history.append(fix)
        count = shard.added.get(fix.user_id, 0) + 1
        shard.added[fix.user_id] = count
        if len(history) == 1:
            shard.first_seq[fix.user_id] = count
        shard.pending[fix.user_id] = fix

    def _flush_latest_index(self) -> None:
        """Fold pending latest-position moves into every ``latest`` table."""
        for shard in self._shards:
            if shard.pending:
                upsert = shard.table.upsert
                for user_id, fix in shard.pending.items():
                    upsert(
                        {
                            "user_id": user_id,
                            "lat": fix.position.lat,
                            "lon": fix.position.lon,
                            "timestamp_s": fix.timestamp_s,
                        }
                    )
                shard.pending.clear()

    def add_fixes(self, fixes: Iterable[GpsFix]) -> int:
        """Append many fixes; returns the number added."""
        count = 0
        for fix in fixes:
            self.add_fix(fix)
            count += 1
        return count

    def user_ids(self) -> List[str]:
        """Users that have at least one fix."""
        if len(self._shards) == 1:
            return sorted(self._shards[0].fixes.keys())
        merged: List[str] = []
        for shard in self._shards:
            merged.extend(shard.fixes.keys())
        return sorted(merged)

    def user_ids_for_shard(self, shard: int) -> List[str]:
        """One shard's tracked users (lets per-shard passes skip the rest)."""
        return sorted(self._shards[shard].fixes.keys())

    def fixes_added(self, user_id: str) -> int:
        """Fixes *ever* added for a user (monotonic; unaffected by pruning).

        This is the dirty-tracking version counter the streaming compactor
        compares across passes: a user whose counter has not moved has no
        new data and can be skipped without re-mining anything.
        """
        return self._shard(user_id).added.get(user_id, 0)

    def fix_count(self, user_id: Optional[str] = None) -> int:
        """Number of stored fixes for one user or for all users."""
        if user_id is not None:
            return len(self._shard(user_id).fixes.get(user_id, []))
        return sum(
            len(history) for shard in self._shards for history in shard.fixes.values()
        )

    def fixes_for(
        self,
        user_id: str,
        *,
        start_s: Optional[float] = None,
        end_s: Optional[float] = None,
    ) -> List[GpsFix]:
        """Fixes for a user, optionally restricted to ``[start_s, end_s)``."""
        history = self._shard(user_id).fixes.get(user_id)
        if history is None:
            raise NotFoundError(f"no tracking data for user {user_id!r}")
        result = history
        if start_s is not None:
            result = [fix for fix in result if fix.timestamp_s >= start_s]
        if end_s is not None:
            result = [fix for fix in result if fix.timestamp_s < end_s]
        return list(result)

    def fixes_page(
        self, user_id: str, *, cursor: Optional[str] = None, limit: int = 50
    ) -> Page[GpsFix]:
        """One time-ordered page of a user's fix history (keyset cursor).

        The token encodes the monotonic per-user fix sequence of the last
        fix served, so walks are stable under interleaved ingest (new
        fixes only append past the cursor) and under pruning (sequences
        are never reused; a pruned-away cursor simply resumes at the
        oldest retained fix after it).  Per-user pages live entirely on
        the owning shard, so the token format is identical across shard
        layouts.
        """
        if limit < 1:
            raise ValidationError(f"limit must be >= 1, got {limit}")
        shard = self._shard(user_id)
        history = shard.fixes.get(user_id)
        if history is None:
            raise NotFoundError(f"no tracking data for user {user_id!r}")
        first_seq = shard.first_seq[user_id]
        start = 0
        if cursor is not None:
            parts = decode_token(cursor, expected_len=1)
            last_seq = parts[0]
            if not isinstance(last_seq, int) or isinstance(last_seq, bool):
                raise ValidationError(f"malformed tracking cursor {cursor!r}")
            # history[i] has sequence first_seq + i; resume strictly after
            # the cursor (a pruned-away cursor clamps to the oldest fix).
            start = max(0, last_seq - first_seq + 1)
        page = history[start : start + limit]
        more = start + limit < len(history)
        next_token = encode_token([first_seq + start + limit - 1]) if more and page else None
        return Page(items=page, next_token=next_token)

    def latest_fix(self, user_id: str) -> GpsFix:
        """The most recent fix for a user."""
        history = self._shard(user_id).fixes.get(user_id)
        if not history:
            raise NotFoundError(f"no tracking data for user {user_id!r}")
        return history[-1]

    def earliest_fix(self, user_id: str) -> GpsFix:
        """The oldest retained fix for a user."""
        history = self._shard(user_id).fixes.get(user_id)
        if not history:
            raise NotFoundError(f"no tracking data for user {user_id!r}")
        return history[0]

    def latest_position(self, user_id: str) -> GeoPoint:
        """The most recent position for a user."""
        return self.latest_fix(user_id).position

    def users_within(self, center: GeoPoint, radius_m: float) -> List[str]:
        """Users whose latest position is within ``radius_m`` of ``center``.

        Nearest first.  Each shard's spatial index answers independently
        and the per-shard results (already nearest-first) merge with a
        stable sort on distance, so a single-shard store returns exactly
        the unsharded order.
        """
        self._flush_latest_index()
        hits: List[tuple] = []
        for shard in self._shards:
            hits.extend(shard.table.find_within("position", center, radius_m))
        hits.sort(key=lambda pair: pair[1])
        return [row["user_id"] for row, _distance in hits]

    def users_in_bbox(self, box: BoundingBox) -> List[str]:
        """Users whose latest position falls inside the box."""
        self._flush_latest_index()
        return sorted(
            row["user_id"]
            for shard in self._shards
            for row in shard.table.find_in_bbox("position", box)
        )

    def prune_before(self, user_id: str, cutoff_s: float) -> int:
        """Drop fixes older than ``cutoff_s`` (the paper's periodic compaction).

        Returns the number of fixes removed.  The user's latest position in
        the spatial index is unaffected because the newest fix is never
        pruned by a cutoff that keeps at least one fix; if every fix is older
        than the cutoff the most recent one is kept so the user stays
        queryable.
        """
        shard = self._shard(user_id)
        history = shard.fixes.get(user_id)
        if history is None:
            raise NotFoundError(f"no tracking data for user {user_id!r}")
        keep_from = len(history)
        for index, fix in enumerate(history):
            if fix.timestamp_s >= cutoff_s:
                keep_from = index
                break
        if keep_from >= len(history):
            keep_from = len(history) - 1
        removed = keep_from
        if removed:
            shard.fixes[user_id] = history[keep_from:]
            shard.first_seq[user_id] += removed
            self._log_op("prune_before", {"user_id": user_id, "cutoff_s": cutoff_s})
        return removed

    def clear_user(self, user_id: str) -> None:
        """Remove all fixes for a user."""
        shard = self._shard(user_id)
        if user_id not in shard.fixes:
            raise NotFoundError(f"no tracking data for user {user_id!r}")
        del shard.fixes[user_id]
        del shard.first_seq[user_id]
        shard.pending.pop(user_id, None)
        if user_id in shard.table:
            shard.table.delete(user_id)
        self._log_op("clear_user", {"user_id": user_id})

    # Snapshot / restore ---------------------------------------------------

    @staticmethod
    def _user_payload(shard: _TrackingShard, user_id: str, history: List[GpsFix]) -> Dict:
        return {
            "added": shard.added.get(user_id, 0),
            "first_seq": shard.first_seq[user_id],
            "fixes": [
                [
                    fix.timestamp_s,
                    fix.position.lat,
                    fix.position.lon,
                    fix.speed_mps,
                    fix.accuracy_m,
                ]
                for fix in history
            ],
        }

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable payload of every user's history and counters.

        The flat per-user map is shard-layout independent: :meth:`restore`
        routes each user by the crc32 shard key, so a snapshot captured
        under one shard count loads into any other — the rebalancing path.
        """
        users: Dict[str, Any] = {}
        for shard in self._shards:
            for user_id, history in shard.fixes.items():
                users[user_id] = self._user_payload(shard, user_id, history)
        return {"version": SNAPSHOT_VERSION, "users": users}

    def snapshot_shard(self, shard: int) -> Dict[str, Any]:
        """One shard's users in the same payload format as :meth:`snapshot`."""
        state = self._shards[shard]
        return {
            "version": SNAPSHOT_VERSION,
            "users": {
                user_id: self._user_payload(state, user_id, history)
                for user_id, history in state.fixes.items()
            },
        }

    @staticmethod
    def _history_from(user_id: str, state: Dict[str, Any]) -> List[GpsFix]:
        return [
            GpsFix(
                user_id,
                timestamp_s,
                GeoPoint(lat, lon),
                speed_mps=speed_mps,
                accuracy_m=accuracy_m,
            )
            for timestamp_s, lat, lon, speed_mps, accuracy_m in state["fixes"]
        ]

    def _load_user(self, shard: _TrackingShard, user_id: str, state: Dict[str, Any]) -> None:
        history = self._history_from(user_id, state)
        shard.fixes[user_id] = history
        shard.first_seq[user_id] = state["first_seq"]
        shard.added[user_id] = state["added"]
        if history:
            shard.pending[user_id] = history[-1]

    @staticmethod
    def _check_payload(payload: Dict[str, Any]) -> None:
        if not isinstance(payload, dict) or payload.get("version") != SNAPSHOT_VERSION:
            raise ValidationError(
                f"unsupported tracking snapshot payload (want version {SNAPSHOT_VERSION})"
            )

    def restore(self, payload: Dict[str, Any]) -> None:
        """Reload a :meth:`snapshot` payload, replacing all tracking state.

        Users are re-routed to their shard under *this* store's layout, so
        restoring into a different shard count rebalances the data.
        """
        self._check_payload(payload)
        for shard in self._shards:
            shard.fixes = {}
            shard.first_seq = {}
            shard.added = {}
            shard.pending = {}
            shard.table.restore([])
        for user_id, state in payload.get("users", {}).items():
            self._load_user(self._shard(user_id), user_id, state)

    def restore_shard(self, shard: int, payload: Dict[str, Any]) -> None:
        """Replace one shard's state without touching the other shards.

        Every user in the payload must route to ``shard`` under this
        store's layout (moving users between layouts goes through the
        re-routing :meth:`restore`).
        """
        self._check_payload(payload)
        users = payload.get("users", {})
        for user_id in users:
            if self.shard_of(user_id) != shard:
                raise ValidationError(
                    f"user {user_id!r} does not belong to tracking shard {shard}"
                )
        state = self._shards[shard]
        state.fixes = {}
        state.first_seq = {}
        state.added = {}
        state.pending = {}
        state.table.restore([])
        for user_id, user_state in users.items():
            self._load_user(state, user_id, user_state)
