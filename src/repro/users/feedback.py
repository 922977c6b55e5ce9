"""The feedbacks DB: implicit and explicit listener feedback events."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import ValidationError
from repro.storage import Column, IndexSpec, Page, Schema, ShardedDatabase
from repro.util.ids import new_id

#: Version stamp of :meth:`FeedbackStore.snapshot` payloads.
SNAPSHOT_VERSION = 1


class FeedbackKind(enum.Enum):
    """The feedback signals the client app can produce.

    The paper distinguishes implicit feedback (periodic "still listening"
    pings and skips) from explicit feedback (like/dislike buttons).
    """

    LISTEN_PING = "listen_ping"     # implicit positive: still listening
    COMPLETED = "completed"         # implicit positive: played to the end
    SKIP = "skip"                   # implicit negative
    CHANNEL_CHANGE = "channel_change"  # implicit negative (stronger)
    LIKE = "like"                   # explicit positive
    DISLIKE = "dislike"             # explicit negative


#: Signed weight of each feedback kind when learning preferences.
FEEDBACK_WEIGHT: Dict[FeedbackKind, float] = {
    FeedbackKind.LISTEN_PING: 0.25,
    FeedbackKind.COMPLETED: 1.0,
    FeedbackKind.SKIP: -1.0,
    FeedbackKind.CHANNEL_CHANGE: -1.5,
    FeedbackKind.LIKE: 1.5,
    FeedbackKind.DISLIKE: -1.5,
}

#: The stored ``kind`` values of positive feedback (``FeedbackEvent.is_positive``).
_POSITIVE_KINDS = frozenset(kind.value for kind, weight in FEEDBACK_WEIGHT.items() if weight > 0)


@dataclass(frozen=True)
class FeedbackEvent:
    """One feedback record in the feedbacks DB."""

    event_id: str
    user_id: str
    content_id: str          # clip id or programme id
    kind: FeedbackKind
    timestamp_s: float
    listened_s: float = 0.0  # how long the user listened before the event
    is_clip: bool = True     # False when the content is a live programme

    def __post_init__(self) -> None:
        if self.listened_s < 0:
            raise ValidationError(f"listened_s must be >= 0, got {self.listened_s}")

    @property
    def weight(self) -> float:
        """Signed learning weight of the event."""
        return FEEDBACK_WEIGHT[self.kind]

    @property
    def is_positive(self) -> bool:
        """Whether the event counts as positive feedback."""
        return self.weight > 0


class FeedbackStore:
    """Table-backed store of feedback events with per-user/content access.

    Every access path is a declarative index on the schema: hash buckets
    for the per-user and per-content lookups, a sorted
    ``(user_id, timestamp_s)`` index that serves time-ordered reads and
    the keyset-paginated history endpoint without re-sorting, and a
    sorted ``(timestamp_s,)`` index behind the global merged listing.

    With ``shards > 1`` events partition by crc32 of the user id (one
    table per shard behind a
    :class:`~repro.storage.sharding.ShardedDatabase`): writes and per-user
    reads route to the owning shard, per-content and global reads fan out
    and merge.  ``shards == 1`` is exactly the old single-table behaviour.
    """

    def __init__(self, *, shards: int = 1) -> None:
        def create_tables(db) -> None:
            db.create_table(
                Schema(
                    name="feedback",
                    primary_key="event_id",
                    columns=[
                        Column("event_id", str),
                        Column("user_id", str),
                        Column("content_id", str),
                        Column("kind", str),
                        Column("timestamp_s", float),
                        Column("listened_s", float, has_default=True, default=0.0),
                        Column("is_clip", bool, has_default=True, default=True),
                    ],
                    indexes=[
                        IndexSpec("user_id"),
                        IndexSpec("content_id"),
                        IndexSpec(
                            "user_time", kind="sorted", columns=("user_id", "timestamp_s")
                        ),
                        IndexSpec("time", kind="sorted", columns=("timestamp_s",)),
                    ],
                )
            )

        self._db = ShardedDatabase(
            "feedbacks", shards=shards, shard_key="user_id", create_tables=create_tables
        )

    @property
    def database(self) -> ShardedDatabase:
        """The feedbacks DB router (exposed for dashboards and stats)."""
        return self._db

    @property
    def shard_count(self) -> int:
        """Number of shards the store is partitioned into."""
        return self._db.shard_count

    def _table_for(self, user_id: str):
        return self._db.table_for(user_id, "feedback")

    @property
    def version(self) -> int:
        """Change counter of the feedback table (ETag validator).

        Summed across shards — each write bumps exactly one shard by one,
        so the value matches what a single unsharded table would read.
        """
        return self._db.version("feedback")

    def record(
        self,
        user_id: str,
        content_id: str,
        kind: FeedbackKind,
        *,
        timestamp_s: float,
        listened_s: float = 0.0,
        is_clip: bool = True,
    ) -> FeedbackEvent:
        """Store a new feedback event and return it."""
        event = FeedbackEvent(
            event_id=new_id("fb"),
            user_id=user_id,
            content_id=content_id,
            kind=kind,
            timestamp_s=timestamp_s,
            listened_s=listened_s,
            is_clip=is_clip,
        )
        self._table_for(user_id).insert(
            {
                "event_id": event.event_id,
                "user_id": event.user_id,
                "content_id": event.content_id,
                "kind": event.kind.value,
                "timestamp_s": event.timestamp_s,
                "listened_s": event.listened_s,
                "is_clip": event.is_clip,
            }
        )
        return event

    def __len__(self) -> int:
        return sum(len(table) for table in self._db.tables("feedback"))

    def _user_rows(self, user_id: str) -> List[Dict]:
        """One user's rows, time-ordered.

        Served straight from the sorted ``(user_id, timestamp_s)`` index —
        a prefix range walk, no re-sort.
        """
        return self._table_for(user_id).find_range(
            "user_time", low=(user_id,), high=(user_id,), high_inclusive=True
        )

    def events_for_user(self, user_id: str) -> List[FeedbackEvent]:
        """All events of one user, time-ordered."""
        return [self._to_event(row) for row in self._user_rows(user_id)]

    def content_ids_for_user(self, user_id: str) -> List[str]:
        """The content of every event of one user, time-ordered.

        Read off the index rows: no :class:`FeedbackEvent` is built.
        """
        return [row["content_id"] for row in self._user_rows(user_id)]

    def events_page_for_user(
        self, user_id: str, *, cursor: Optional[str] = None, limit: int = 50
    ) -> Page[FeedbackEvent]:
        """One time-ordered page of a user's feedback history.

        A keyset cursor over the sorted ``(user_id, timestamp_s)`` index:
        the token resumes strictly after the last event served, so the
        walk is stable while new feedback keeps arriving.  One user's
        events all live on the owning shard, so the token format is
        identical across shard layouts.
        """
        page = self._table_for(user_id).page_by_index(
            "user_time",
            limit=limit,
            after_token=cursor,
            low=(user_id,),
            high=(user_id,),
            high_inclusive=True,
        )
        return Page(
            items=[self._to_event(row) for row in page.items],
            next_token=page.next_token,
        )

    def events_for_content(self, content_id: str) -> List[FeedbackEvent]:
        """All events about one content item.

        A fan-out read: every shard answers from its ``content_id`` hash
        bucket and the union stable-sorts by timestamp (identical to the
        unsharded order for a single shard).
        """
        events = [
            self._to_event(row)
            for table in self._db.tables("feedback")
            for row in table.find_by_index("content_id", content_id)
        ]
        events.sort(key=lambda event: event.timestamp_s)
        return events

    def events_page(
        self, *, cursor: Optional[str] = None, limit: int = 50
    ) -> Page[FeedbackEvent]:
        """One globally time-ordered page across all users.

        The merged keyset walk: each shard's sorted ``(timestamp_s,)``
        index streams independently and the router k-way merges them; the
        token carries one resume position per shard (see
        :meth:`ShardedDatabase.page_by_index
        <repro.storage.sharding.ShardedDatabase.page_by_index>`).
        """
        page = self._db.page_by_index("feedback", "time", limit=limit, after_token=cursor)
        return Page(
            items=[self._to_event(row) for row in page.items],
            next_token=page.next_token,
        )

    def skip_rate(self, user_id: Optional[str] = None) -> float:
        """Fraction of terminal events (skip/complete/channel change) that are skips.

        This is the metric the paper's motivation targets: proactive
        personalization should decrease the propensity to skip or zap.
        """
        events = (
            self.events_for_user(user_id)
            if user_id is not None
            else [
                self._to_event(row)
                for table in self._db.tables("feedback")
                for row in table.rows()
            ]
        )
        terminal = [
            event
            for event in events
            if event.kind in (FeedbackKind.SKIP, FeedbackKind.COMPLETED, FeedbackKind.CHANNEL_CHANGE)
        ]
        if not terminal:
            return 0.0
        negative = sum(
            1 for event in terminal if event.kind in (FeedbackKind.SKIP, FeedbackKind.CHANNEL_CHANGE)
        )
        return negative / len(terminal)

    def positive_content_ids(self, user_id: str) -> List[str]:
        """Content the user reacted positively to (most recent last).

        Read off the index rows, like :meth:`content_ids_for_user`.
        """
        return [
            row["content_id"] for row in self._user_rows(user_id) if row["kind"] in _POSITIVE_KINDS
        ]

    def negative_content_ids(self, user_id: str) -> List[str]:
        """Content the user skipped or disliked."""
        return [
            event.content_id for event in self.events_for_user(user_id) if not event.is_positive
        ]

    @classmethod
    def event_from_row(cls, row: Dict) -> FeedbackEvent:
        """Rebuild the event a stored row encodes (the WAL replay entry)."""
        return cls._to_event(row)

    @staticmethod
    def _to_event(row: Dict) -> FeedbackEvent:
        return FeedbackEvent(
            event_id=row["event_id"],
            user_id=row["user_id"],
            content_id=row["content_id"],
            kind=FeedbackKind(row["kind"]),
            timestamp_s=row["timestamp_s"],
            listened_s=row["listened_s"],
            is_clip=row["is_clip"],
        )

    # Snapshot / restore ---------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable payload of the whole feedbacks DB.

        Database-shaped with all shards' rows merged, so it restores into
        any shard layout (rows re-route by user id on load).
        """
        return self._db.snapshot()

    def restore(self, payload: Dict[str, Any]) -> None:
        """Reload a :meth:`snapshot` payload, replacing all events."""
        self._db.restore(payload)

    def snapshot_shard(self, shard: int) -> Dict[str, Any]:
        """One shard's events — the migration/rebalancing unit."""
        return self._db.snapshot_shard(shard)

    def restore_shard(self, shard: int, payload: Dict[str, Any]) -> None:
        """Replace one shard's events without touching the other shards."""
        self._db.restore_shard(shard, payload)
