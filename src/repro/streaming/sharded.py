"""Shard-partitioned streaming mobility engines behind one façade.

The per-user state of :class:`~repro.streaming.engine.StreamingMobilityEngine`
(open trip tails, incremental models, observation counters) is exactly the
kind of state the shard router partitions: every fix belongs to one user,
every user to one crc32 shard.  :class:`ShardedStreamingEngine` keeps one
inner engine per shard and routes by user, so a shard's live mobility
models move with its stores (shard snapshots and restores).

The façade exposes the same API the server and the compactor use, and its
:meth:`snapshot_state` payload is the *flat* single-engine format (per-user
maps merged across shards), so server snapshots are identical in shape
whatever the shard count and restore into any layout — the same
portability contract the sharded stores have.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import PipelineError, ValidationError
from repro.spatialdb.tracking_store import GpsFix
from repro.storage.sharding import shard_of
from repro.streaming.engine import (
    STREAMING_STATE_VERSION,
    StreamingConfig,
    StreamingMobilityEngine,
)
from repro.streaming.incremental import MobilitySnapshot
from repro.trajectory.model import Trajectory

if TYPE_CHECKING:  # imported lazily to keep streaming importable on its own
    from repro.pipeline.messaging import MessageBus


class ShardedStreamingEngine:
    """One :class:`StreamingMobilityEngine` per shard, routed by user id.

    All inner engines share one configuration and one message bus, so the
    narration topics and mining parameters are indistinguishable from a
    single engine's.  With ``shards == 1`` the façade is a transparent
    wrapper around one engine.
    """

    #: Telemetry wiring, not state: resolved metric series live in the
    #: registry, and the cache refills on each shard's next batch.
    SNAPSHOT_EXEMPT = ("_ingest_series",)

    def __init__(
        self,
        config: StreamingConfig = StreamingConfig(),
        *,
        shards: int = 1,
        bus: Optional["MessageBus"] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        if shards < 1:
            raise PipelineError("shards must be >= 1")
        self._shards = shards
        self._engines = [
            StreamingMobilityEngine(config, bus=bus) for _ in range(shards)
        ]
        # Batch-level telemetry only: ingest and repair are timed per call,
        # never per fix, so the O(1)-per-fix streaming budget is untouched.
        self._ingest_seconds = None
        self._repair_seconds = None
        # Resolved ``streaming_ingest_seconds{shard}`` series by shard, so a
        # batch pays one dict lookup, not a labels() validation; filled on
        # a shard's first batch, when labels() would create the series.
        self._ingest_series: Dict[int, Any] = {}
        if metrics is not None and getattr(metrics, "enabled", True):
            self._ingest_seconds = metrics.histogram(
                "streaming_ingest_seconds",
                help="Wall time of streaming fix-batch ingests per shard.",
                labels=("shard",),
            )
            self._repair_seconds = metrics.histogram(
                "streaming_repair_seconds",
                help="Wall time of per-user model repairs per shard.",
                labels=("shard",),
            )

    @property
    def config(self) -> StreamingConfig:
        """The subsystem configuration (shared by every shard engine)."""
        return self._engines[0].config

    @property
    def shard_count(self) -> int:
        """Number of shard engines."""
        return self._shards

    @property
    def engines(self) -> List[StreamingMobilityEngine]:
        """The per-shard engines, in shard order."""
        return list(self._engines)

    def shard_of(self, user_id: str) -> int:
        """The shard owning a user (stable crc32 assignment)."""
        return shard_of(user_id, self._shards)

    def engine_for(self, user_id: str) -> StreamingMobilityEngine:
        """The engine owning a user's live model."""
        return self._engines[self.shard_of(user_id)]

    @property
    def fixes_observed(self) -> int:
        """Fixes consumed since the engines started (summed)."""
        return sum(engine.fixes_observed for engine in self._engines)

    # Fix intake ------------------------------------------------------------

    def observe_fix(self, fix: GpsFix) -> List[Trajectory]:
        """Consume one fix on the owning shard; returns completed trips."""
        return self.engine_for(fix.user_id).observe_fix(fix)

    def observe_fixes(self, fixes) -> List[Trajectory]:
        """Consume a batch of fixes; returns all trips they completed.

        Fixes group by shard (per-user order preserved — a user's fixes
        all share one shard) and each group feeds its engine's batch
        path.  Completed trips return grouped in shard order; per-user
        trip order is identical to the single-engine walk.
        """
        histogram = self._ingest_seconds
        if self._shards == 1:
            start = time.perf_counter() if histogram is not None else 0.0
            completed = self._engines[0].observe_fixes(fixes)
            if histogram is not None:
                self._ingest_series_for(0).record(time.perf_counter() - start)
            return completed
        groups: Dict[int, List[GpsFix]] = {}
        for fix in fixes:
            groups.setdefault(self.shard_of(fix.user_id), []).append(fix)
        completed = []
        for shard in sorted(groups):
            start = time.perf_counter() if histogram is not None else 0.0
            completed.extend(self._engines[shard].observe_fixes(groups[shard]))
            if histogram is not None:
                self._ingest_series_for(shard).record(time.perf_counter() - start)
        return completed

    def _ingest_series_for(self, shard: int):
        series = self._ingest_series.get(shard)
        if series is None:
            series = self._ingest_seconds.labels(shard=str(shard))
            self._ingest_series[shard] = series
        return series

    # Model access ----------------------------------------------------------

    def model_freshness(self, user_id: str) -> Tuple[int, int]:
        """``(repair epoch, folded trip count)`` from the owning shard."""
        return self.engine_for(user_id).model_freshness(user_id)

    def observed_fix_count(self, user_id: str) -> int:
        """Fixes consumed for a user (monotonic, owning shard)."""
        return self.engine_for(user_id).observed_fix_count(user_id)

    def model_snapshot(
        self, user_id: str, *, include_open_tail: bool = False
    ) -> Optional[MobilitySnapshot]:
        """The user's live model from the owning shard's engine."""
        return self.engine_for(user_id).model_snapshot(
            user_id, include_open_tail=include_open_tail
        )

    def close_user(self, user_id: str) -> List[Trajectory]:
        """Flush a user's open tail (device gone / end of replay)."""
        return self.engine_for(user_id).close_user(user_id)

    def repair_user(self, user_id: str) -> Optional[MobilitySnapshot]:
        """Force a drift repair for one user (used by the compactor)."""
        histogram = self._repair_seconds
        if histogram is None:
            return self.engine_for(user_id).repair_user(user_id)
        shard = self.shard_of(user_id)
        start = time.perf_counter()
        snapshot = self._engines[shard].repair_user(user_id)
        histogram.labels(shard=str(shard)).record(time.perf_counter() - start)
        return snapshot

    # Persistence ------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """All shard engines merged into the flat single-engine payload.

        Per-user maps are disjoint across shards (a user lives on exactly
        one), so the merge is lossless, and the result is bit-compatible
        with :meth:`StreamingMobilityEngine.snapshot_state
        <repro.streaming.engine.StreamingMobilityEngine.snapshot_state>` —
        server snapshots restore across any shard layout.
        """
        observed: Dict[str, int] = {}
        sessionizer_users: Dict[str, dict] = {}
        model_users: Dict[str, dict] = {}
        for engine in self._engines:
            state = engine.snapshot_state()
            observed.update(state["observed_per_user"])
            sessionizer_users.update(state["sessionizer"]["users"])
            model_users.update(state["model"]["users"])
        return {
            "version": STREAMING_STATE_VERSION,
            "fixes_observed": self.fixes_observed,
            "observed_per_user": observed,
            "sessionizer": {"users": sessionizer_users},
            "model": {"users": model_users},
        }

    def restore_state(self, payload: dict) -> None:
        """Reload a flat engine payload, splitting per-user state by shard.

        A single engine counts every observed fix both globally and per
        user, so each shard's ``fixes_observed`` is recoverable as the sum
        of its users' counters — the split loses nothing.
        """
        if not isinstance(payload, dict) or payload.get("version") != STREAMING_STATE_VERSION:
            raise ValidationError("unsupported streaming engine snapshot payload")
        observed = payload["observed_per_user"]
        sessionizer_users = payload["sessionizer"]["users"]
        model_users = payload["model"]["users"]
        for shard, engine in enumerate(self._engines):
            shard_observed = {
                user_id: count
                for user_id, count in observed.items()
                if self.shard_of(user_id) == shard
            }
            engine.restore_state(
                {
                    "version": STREAMING_STATE_VERSION,
                    "fixes_observed": sum(shard_observed.values()),
                    "observed_per_user": shard_observed,
                    "sessionizer": {
                        "users": {
                            user_id: state
                            for user_id, state in sessionizer_users.items()
                            if self.shard_of(user_id) == shard
                        }
                    },
                    "model": {
                        "users": {
                            user_id: state
                            for user_id, state in model_users.items()
                            if self.shard_of(user_id) == shard
                        }
                    },
                }
            )

    def snapshot_shard(self, shard: int) -> dict:
        """One shard engine's payload — the migration/rebalancing unit."""
        return self._engines[shard].snapshot_state()

    def restore_shard(self, shard: int, payload: dict) -> None:
        """Replace one shard engine's state without touching the others.

        Every user in the payload must route to ``shard`` under this
        façade's layout.
        """
        if not isinstance(payload, dict) or payload.get("version") != STREAMING_STATE_VERSION:
            raise ValidationError("unsupported streaming engine snapshot payload")
        for user_id in payload.get("observed_per_user", {}):
            if self.shard_of(user_id) != shard:
                raise ValidationError(
                    f"user {user_id!r} does not belong to streaming shard {shard}"
                )
        self._engines[shard].restore_state(payload)
