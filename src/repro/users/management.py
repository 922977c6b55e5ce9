"""The user management component: one façade over profiles, feedback, tracking."""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.content.repository import ContentRepository
from repro.errors import DuplicateError, NotFoundError, ValidationError
from repro.spatialdb import GpsFix, TrackingStore
from repro.storage import Column, IndexSpec, Page, Schema, ShardedDatabase
from repro.users.feedback import FeedbackEvent, FeedbackKind, FeedbackStore
from repro.users.profile import UserPreferenceProfile, UserProfile

#: Version stamp of :meth:`UserManager.snapshot` payloads.
SNAPSHOT_VERSION = 1


class UserManager:
    """Registers users and routes their feedback and tracking data.

    This is the integration point the client app talks to: profile lookups,
    feedback ingestion (which immediately updates the learned preference
    profile when the content's category scores are known), and GPS intake.

    With ``shards > 1`` every piece of per-user state — the profiles DB
    and its object caches, the learned preference vectors, the feedbacks
    DB and the tracking store — partitions by crc32 of the user id, the
    same assignment everywhere.  Single-user operations route to the
    owning shard; :meth:`user_ids` and :meth:`users_page` fan out and
    merge.  Batch ingest runs on the caller's thread whatever the layout
    (see :meth:`ingest_fixes`).
    """

    #: Wiring, not state: fix listeners are re-registered by the streaming
    #: components (sessionizer bridge, tracking ingest) after a restore.
    SNAPSHOT_EXEMPT = ("_fix_listeners",)

    def __init__(
        self,
        *,
        content: Optional[ContentRepository] = None,
        tracking: Optional[TrackingStore] = None,
        shards: int = 1,
    ) -> None:
        if tracking is not None:
            # An injected tracking store dictates the layout — every
            # per-user structure must shard identically.
            shards = tracking.shard_count
        self._tracking = tracking if tracking is not None else TrackingStore(shards=shards)
        self._shards = shards

        def create_tables(db) -> None:
            db.create_table(
                Schema(
                    name="profiles",
                    primary_key="user_id",
                    columns=[
                        Column("user_id", str),
                        Column("display_name", str),
                        Column("age", int, nullable=True),
                        Column("gender", str, nullable=True),
                        Column("home_service_id", str, nullable=True),
                        Column("language", str, has_default=True, default="it"),
                    ],
                    indexes=[
                        IndexSpec("by_user", kind="sorted", columns=("user_id",)),
                    ],
                )
            )

        self._profiles_db = ShardedDatabase(
            "profiles", shards=shards, shard_key="user_id", create_tables=create_tables
        )
        #: Per-shard object caches over the profiles tables (the tables are
        #: the record of truth the snapshot captures; the caches serve hot
        #: lookups).  Keys are disjoint across shards by construction.
        self._profiles: List[Dict[str, UserProfile]] = [{} for _ in range(shards)]
        self._preferences: List[Dict[str, UserPreferenceProfile]] = [
            {} for _ in range(shards)
        ]
        self._feedback = FeedbackStore(shards=shards)
        self._content = content
        #: (per-fix listener, optional bulk form) pairs; see add_fix_listener.
        self._fix_listeners: List[
            Tuple[Callable[[GpsFix], None], Optional[Callable[[List[GpsFix]], None]]]
        ] = []
        #: Durability hook: domain operations that mutate state no table
        #: row captures (preference seeding); see set_op_listener.
        self._op_listener = None

    def set_op_listener(self, listener) -> None:
        """Install the WAL's domain-operation listener (``None`` clears)."""
        self._op_listener = listener

    def _log_op(self, op: str, data: Dict[str, Any]) -> None:
        if self._op_listener is not None:
            self._op_listener(op, data)

    @property
    def shard_count(self) -> int:
        """Number of shards all per-user state is partitioned into."""
        return self._shards

    def shard_of(self, user_id: str) -> int:
        """The shard owning a user (stable crc32 assignment)."""
        return self._profiles_db.shard_of(user_id)

    # Registration ----------------------------------------------------------

    def register(self, profile: UserProfile) -> UserPreferenceProfile:
        """Register a user; returns the (empty) preference profile."""
        shard = self.shard_of(profile.user_id)
        if profile.user_id in self._profiles[shard]:
            raise DuplicateError(f"user {profile.user_id!r} is already registered")
        self._profiles_db.table_for(profile.user_id, "profiles").insert(
            self._profile_row(profile)
        )
        self._profiles[shard][profile.user_id] = profile
        preference = UserPreferenceProfile(profile.user_id)
        self._preferences[shard][profile.user_id] = preference
        return preference

    @staticmethod
    def _profile_row(profile: UserProfile) -> Dict[str, Any]:
        return {
            "user_id": profile.user_id,
            "display_name": profile.display_name,
            "age": profile.age,
            "gender": profile.gender,
            "home_service_id": profile.home_service_id,
            "language": profile.language,
        }

    @staticmethod
    def _profile_from_row(row: Dict[str, Any]) -> UserProfile:
        return UserProfile(
            user_id=row["user_id"],
            display_name=row["display_name"],
            age=row["age"],
            gender=row["gender"],
            home_service_id=row["home_service_id"],
            language=row["language"],
        )

    @property
    def profiles_database(self) -> ShardedDatabase:
        """The profiles DB router (exposed for dashboards and stats)."""
        return self._profiles_db

    @property
    def profiles_version(self) -> int:
        """Change counter of the profiles table (ETag validator).

        Summed across shards — each registration bumps exactly one shard
        by one, so the value matches an unsharded table's counter.
        """
        return self._profiles_db.version("profiles")

    def profile(self, user_id: str) -> UserProfile:
        """Demographic profile of a user."""
        profile = self._profiles[self.shard_of(user_id)].get(user_id)
        if profile is None:
            raise NotFoundError(f"unknown user {user_id!r}")
        return profile

    def has_user(self, user_id: str) -> bool:
        """Whether a user is registered (no-exception existence check)."""
        return user_id in self._profiles[self.shard_of(user_id)]

    def preference_profile(self, user_id: str) -> UserPreferenceProfile:
        """Learned preference profile of a user."""
        preference = self._preferences[self.shard_of(user_id)].get(user_id)
        if preference is None:
            raise NotFoundError(f"unknown user {user_id!r}")
        return preference

    def user_ids(self) -> List[str]:
        """All registered user ids."""
        return sorted(
            user_id for shard in self._profiles for user_id in shard
        )

    def seed_preferences(
        self,
        user_id: str,
        preferred: List[str],
        disliked: Optional[List[str]] = None,
    ) -> UserPreferenceProfile:
        """Seed a user's preference profile (the onboarding survey).

        The WAL-visible entry point: mutating the profile object returned
        by :meth:`preference_profile` directly would leave the learned
        delta invisible to the change log, so durable deployments must
        seed through here.
        """
        preference = self.preference_profile(user_id).seeded(
            list(preferred), list(disliked or [])
        )
        self._log_op(
            "seed_preferences",
            {
                "user_id": user_id,
                "preferred": list(preferred),
                "disliked": list(disliked or []),
            },
        )
        return preference

    def user_count(self) -> int:
        """Number of registered users."""
        return sum(len(shard) for shard in self._profiles)

    def users_page(
        self, *, cursor: Optional[str] = None, limit: int = 50
    ) -> Page[UserProfile]:
        """One id-ordered page of registered users.

        A merged keyset walk over each shard's sorted ``by_user`` index —
        the listing is globally ordered by user id whatever the shard
        layout, and the cursor stays stable under concurrent
        registrations (see :meth:`ShardedDatabase.page_by_index
        <repro.storage.sharding.ShardedDatabase.page_by_index>`).
        """
        page = self._profiles_db.page_by_index(
            "profiles", "by_user", limit=limit, after_token=cursor
        )
        return Page(
            items=[self._profile_from_row(row) for row in page.items],
            next_token=page.next_token,
        )

    # Feedback ---------------------------------------------------------------

    @property
    def feedback(self) -> FeedbackStore:
        """The underlying feedback store."""
        return self._feedback

    def record_feedback(
        self,
        user_id: str,
        content_id: str,
        kind: FeedbackKind,
        *,
        timestamp_s: float,
        listened_s: float = 0.0,
        is_clip: bool = True,
    ) -> FeedbackEvent:
        """Store feedback and fold it into the user's preference profile."""
        self.profile(user_id)  # raises for unknown users
        event = self._feedback.record(
            user_id,
            content_id,
            kind,
            timestamp_s=timestamp_s,
            listened_s=listened_s,
            is_clip=is_clip,
        )
        self._learn_from(event)
        return event

    def _learn_from(self, event: FeedbackEvent) -> None:
        if self._content is None or not event.is_clip:
            return
        try:
            clip = self._content.clip(event.content_id)
        except NotFoundError:
            return
        scores = clip.normalized_scores()
        if not scores:
            return
        preference = self._preferences[self.shard_of(event.user_id)][event.user_id]
        # Repeat the update proportionally to the magnitude of the signal so
        # a "like" moves the profile further than a passive listen ping.
        repetitions = max(1, int(round(abs(event.weight))))
        for _ in range(repetitions):
            preference.update(scores, positive=event.is_positive)

    # Tracking ----------------------------------------------------------------

    @property
    def tracking(self) -> TrackingStore:
        """The tracking (spatial) store."""
        return self._tracking

    def add_fix_listener(
        self,
        listener: Callable[[GpsFix], None],
        *,
        batch: Optional[Callable[[List[GpsFix]], None]] = None,
    ) -> None:
        """Register a callback invoked for every fix accepted into storage.

        The streaming mobility engine subscribes here so trip sessionization
        and model maintenance happen inline with ingestion.  A listener may
        also provide a ``batch`` form; :meth:`ingest_fixes` then delivers
        each batch's accepted fixes in one call (same fixes, same per-user
        order) instead of paying the callback per fix.
        """
        self._fix_listeners.append((listener, batch))

    def ingest_fix(self, fix: GpsFix) -> None:
        """Store a GPS fix for a registered user."""
        self.profile(fix.user_id)
        self._tracking.add_fix(fix)
        for listener, _batch in self._fix_listeners:
            listener(fix)

    def ingest_fixes(self, fixes: List[GpsFix], *, skip_stale: bool = False) -> int:
        """Store many GPS fixes; returns how many were accepted.

        With ``skip_stale=True`` fixes older than the user's latest stored
        fix are silently dropped instead of raising — useful when a scenario
        replays a drive whose first fixes were already uploaded, and what
        the gateway's batch tracking endpoint relies on.

        This is the batch ingest fast path: the registration check and the
        latest-timestamp read happen once per user per batch instead of
        once per fix, and listeners registered with a ``batch`` form (the
        streaming engine) receive the accepted fixes in one call — same
        fixes, same per-user order as per-fix :meth:`ingest_fix`, without
        re-paying the per-fix callback overhead.

        Every batch is atomic, in every shard layout: the whole batch is
        validated first (:meth:`_prepare_group`, read-only) and only then
        written (:meth:`_apply_group`), both on the caller's thread.  A
        failure anywhere — an unknown user, an out-of-order fix, a store
        read raising — leaves zero fixes stored, observed by the listeners
        or logged, whichever users and shards the batch spans.
        """
        return self._apply_group(self._prepare_group(fixes, skip_stale))

    def _prepare_group(self, fixes: List[GpsFix], skip_stale: bool) -> List[GpsFix]:
        """Phase 1 of batch ingest: validate the batch, write nothing.

        Unknown users raise, out-of-order fixes raise unless
        ``skip_stale`` drops them — the checks ``TrackingStore.add_fix``
        would make — and the fixes phase 2 (:meth:`_apply_group`) will
        write are returned.  Read-only by construction, so a failure
        anywhere in the batch aborts with zero writes on every shard.
        """
        tracking = self._tracking
        latest_by_user: Dict[str, float] = {}
        accepted: List[GpsFix] = []
        for fix in fixes:
            latest = latest_by_user.get(fix.user_id)
            if latest is None:
                self.profile(fix.user_id)  # raises for unknown users
                try:
                    latest = tracking.latest_fix(fix.user_id).timestamp_s
                except NotFoundError:
                    latest = float("-inf")
                latest_by_user[fix.user_id] = latest
            if fix.timestamp_s < latest:
                if skip_stale:
                    continue
                raise ValidationError(
                    f"fix for {fix.user_id!r} at {fix.timestamp_s} is older than "
                    f"the latest stored fix at {latest}"
                )
            latest_by_user[fix.user_id] = fix.timestamp_s
            accepted.append(fix)
        return accepted

    def _apply_group(self, accepted: List[GpsFix]) -> int:
        """Phase 2 of batch ingest: write validated fixes, notify listeners."""
        if not accepted:
            return 0
        tracking = self._tracking
        for fix in accepted:
            tracking.add_fix(fix)
        for listener, batch_listener in self._fix_listeners:
            if batch_listener is not None:
                batch_listener(accepted)
            else:
                for fix in accepted:
                    listener(fix)
        return len(accepted)

    # WAL replay -----------------------------------------------------------

    def replay_fixes(self, fixes: List[GpsFix]) -> int:
        """Re-apply already-accepted fixes from a logged WAL frame.

        Exactly phase 2 of batch ingest: store each fix and deliver
        the batch to every fix listener (the streaming engine evolves its
        models the same way it did live; a suspended WAL listener is a
        no-op).  Validation is skipped on purpose — the frame records
        fixes that *were* accepted.
        """
        return self._apply_group(fixes)

    def replay_profile_changes(self, shard: int, changes: List[Dict[str, Any]]) -> None:
        """Re-derive the per-shard object caches from replayed table changes.

        The generic table replay has already applied the changes to the
        profiles table; this mirrors what the live write did to the dict
        caches: a registration insert also creates the empty preference
        profile, an update refreshes the cached profile only.
        """
        for change in changes:
            op = change["op"]
            if op in ("insert", "update"):
                profile = self._profile_from_row(change["row"])
                self._profiles[shard][profile.user_id] = profile
                if op == "insert":
                    self._preferences[shard].setdefault(
                        profile.user_id, UserPreferenceProfile(profile.user_id)
                    )
            elif op == "delete":
                user_id = change["row"]["user_id"]
                self._profiles[shard].pop(user_id, None)
                self._preferences[shard].pop(user_id, None)
            elif op == "clear":
                self._profiles[shard].clear()
                self._preferences[shard].clear()

    def replay_feedback_row(self, row: Dict[str, Any]) -> None:
        """Re-run preference learning for a replayed feedback insert.

        The table replay restored the row (with its original event id);
        what it cannot restore is the learned preference delta, so the
        event is rebuilt from the row and folded in exactly as
        :meth:`record_feedback` did.
        """
        self._learn_from(self._feedback.event_from_row(row))

    # Snapshot / restore ---------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable payload of all per-user state.

        Covers the profiles DB, the learned preference vectors, the
        feedbacks DB and the tracking store — everything the user
        management façade owns.  Fix listeners are wiring, not state, and
        are not captured.  The payload is shard-layout independent and
        restores into any shard count.
        """
        return {
            "version": SNAPSHOT_VERSION,
            "profiles": self._profiles_db.snapshot(),
            "preferences": {
                user_id: preference.to_payload()
                for shard in self._preferences
                for user_id, preference in shard.items()
            },
            "feedback": self._feedback.snapshot(),
            "tracking": self._tracking.snapshot(),
        }

    def restore(self, payload: Dict[str, Any]) -> None:
        """Reload a :meth:`snapshot` payload, replacing all per-user state."""
        if not isinstance(payload, dict) or payload.get("version") != SNAPSHOT_VERSION:
            raise ValidationError(
                f"unsupported user snapshot payload (want version {SNAPSHOT_VERSION})"
            )
        self._profiles_db.restore(payload["profiles"])
        self._profiles = [
            {
                row["user_id"]: self._profile_from_row(row)
                for row in self._profiles_db.shard(shard).table("profiles").rows()
            }
            for shard in range(self._shards)
        ]
        self._preferences = [{} for _ in range(self._shards)]
        for user_id, raw in payload.get("preferences", {}).items():
            self._preferences[self.shard_of(user_id)][
                user_id
            ] = UserPreferenceProfile.from_payload(raw)
        self._feedback.restore(payload["feedback"])
        self._tracking.restore(payload["tracking"])

    def snapshot_shard(self, shard: int) -> Dict[str, Any]:
        """One shard's slice of all per-user state — the migration unit."""
        return {
            "version": SNAPSHOT_VERSION,
            "profiles": self._profiles_db.snapshot_shard(shard),
            "preferences": {
                user_id: preference.to_payload()
                for user_id, preference in self._preferences[shard].items()
            },
            "feedback": self._feedback.snapshot_shard(shard),
            "tracking": self._tracking.snapshot_shard(shard),
        }

    def restore_shard(self, shard: int, payload: Dict[str, Any]) -> None:
        """Replace one shard's per-user state without touching the others."""
        if not isinstance(payload, dict) or payload.get("version") != SNAPSHOT_VERSION:
            raise ValidationError(
                f"unsupported user snapshot payload (want version {SNAPSHOT_VERSION})"
            )
        for user_id in payload.get("preferences", {}):
            if self.shard_of(user_id) != shard:
                raise ValidationError(
                    f"user {user_id!r} does not belong to shard {shard}"
                )
        self._profiles_db.restore_shard(shard, payload["profiles"])
        self._profiles[shard] = {
            row["user_id"]: self._profile_from_row(row)
            for row in self._profiles_db.shard(shard).table("profiles").rows()
        }
        self._preferences[shard] = {
            user_id: UserPreferenceProfile.from_payload(raw)
            for user_id, raw in payload.get("preferences", {}).items()
        }
        self._feedback.restore_shard(shard, payload["feedback"])
        self._tracking.restore_shard(shard, payload["tracking"])
