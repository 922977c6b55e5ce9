"""The streaming mobility engine: fixes in, live mobility models out.

Glues the online :class:`~repro.streaming.sessionizer.TripSessionizer` to
the :class:`~repro.streaming.incremental.IncrementalMobilityModel` and
narrates progress on the message bus:

* ``tracking.trip_completed`` — the sessionizer closed a trip;
* ``tracking.staypoint_spawned`` — a density neighbourhood formed online;
* ``tracking.model_repaired`` — a drift repair re-mined a trip list.

The engine is registered as a fix listener on the
:class:`~repro.users.management.UserManager`, so every fix accepted into
the tracking DB flows through it at O(1) amortized cost, and a fresh model
is available per user at any time without touching the raw history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import ValidationError
from repro.spatialdb.tracking_store import GpsFix
from repro.streaming.incremental import (
    IncrementalConfig,
    IncrementalMobilityModel,
    MobilitySnapshot,
)
from repro.streaming.sessionizer import SessionizerConfig, TripSessionizer
from repro.trajectory.model import Trajectory

if TYPE_CHECKING:  # imported lazily to keep streaming importable on its own
    from repro.pipeline.messaging import MessageBus

#: Version stamp of :meth:`StreamingMobilityEngine.snapshot_state` payloads.
#: Version 2 carries each retained trip as the JSON text of its point list.
STREAMING_STATE_VERSION = 2


@dataclass(frozen=True)
class StreamingConfig:
    """Parameters of the streaming mobility subsystem.

    ``sessionizer`` and ``incremental`` carry the trip-boundary and mining
    parameters.  The batch miner run with the same values is the reference
    the decision-equality invariants below are stated against (see
    ``docs/ARCHITECTURE.md``, "Streaming-ingest flow").
    """

    sessionizer: SessionizerConfig = SessionizerConfig()
    incremental: IncrementalConfig = IncrementalConfig()


class StreamingMobilityEngine:
    """Maintains per-user mobility models incrementally as fixes arrive.

    Invariants (asserted by the equivalence tests; the data flow is drawn
    in ``docs/ARCHITECTURE.md``):

    * **batch equality on demand** — ``model_snapshot(user,
      include_open_tail=True)`` equals what the batch miner
      (``split_into_trips`` + ``stay_points_from_trips`` +
      ``cluster_trips``) produces over the user's full fix history, because
      the sessionizer is decision-equal to the batch splitter and the
      full snapshot re-mines the compact trip list with the batch
      algorithms;
    * **monotonic observability** — ``fixes_observed`` and
      ``observed_fix_count(user)`` only grow;
    * **bus narration** — every completed trip, online stay-point spawn and
      drift repair publishes a ``tracking.*`` message, so dashboards and
      tests can follow ingest without polling the models.
    """

    def __init__(
        self,
        config: StreamingConfig = StreamingConfig(),
        *,
        bus: Optional[MessageBus] = None,
    ) -> None:
        self._config = config
        self._bus = bus
        self._sessionizer = TripSessionizer(config.sessionizer)
        self._model = IncrementalMobilityModel(config.incremental)
        self._fixes_observed = 0
        self._observed_per_user: dict = {}

    @property
    def config(self) -> StreamingConfig:
        """The subsystem configuration."""
        return self._config

    @property
    def sessionizer(self) -> TripSessionizer:
        """The online trip segmenter."""
        return self._sessionizer

    @property
    def model(self) -> IncrementalMobilityModel:
        """The incremental mobility miner."""
        return self._model

    @property
    def fixes_observed(self) -> int:
        """Fixes consumed since the engine started."""
        return self._fixes_observed

    # Fix intake ------------------------------------------------------------

    def observe_fix(self, fix: GpsFix) -> List[Trajectory]:
        """Consume one fix; returns any trips it completed."""
        self._fixes_observed += 1
        counts = self._observed_per_user
        counts[fix.user_id] = counts.get(fix.user_id, 0) + 1
        completed = self._sessionizer.add_fix(fix)
        for trip in completed:
            self._fold_trip(trip)
        return completed

    def observe_fixes(self, fixes) -> List[Trajectory]:
        """Consume a batch of fixes; returns all trips they completed."""
        completed: List[Trajectory] = []
        add_fix = self._sessionizer.add_fix
        fold = self._fold_trip
        counts = self._observed_per_user
        count = 0
        for fix in fixes:
            count += 1
            counts[fix.user_id] = counts.get(fix.user_id, 0) + 1
            for trip in add_fix(fix):
                fold(trip)
                completed.append(trip)
        self._fixes_observed += count
        return completed

    def model_freshness(self, user_id: str) -> Tuple[int, int]:
        """``(repair epoch, folded trip count)`` — an O(1) model validator.

        The pair changes whenever the user's live model materially changes
        (a trip folds in, or a drift repair re-mines the trip list), and
        never changes otherwise.  The server folds it into its snapshot
        cache key and the gateway into recommendation ETags, so "has
        anything changed?" costs two dictionary reads instead of a model
        comparison.
        """
        return (self._model.epoch(user_id), self._model.trip_count(user_id))

    def observed_fix_count(self, user_id: str) -> int:
        """Fixes this engine has consumed for a user (monotonic).

        The server refuses to mine a model from fewer than two.
        """
        return self._observed_per_user.get(user_id, 0)

    def close_user(self, user_id: str) -> List[Trajectory]:
        """Flush a user's open tail (device gone / end of replay)."""
        completed = self._sessionizer.close_user(user_id)
        for trip in completed:
            self._fold_trip(trip)
        return completed

    def _fold_trip(self, trip: Trajectory) -> None:
        outcome = self._model.add_trip(trip)
        if self._bus is not None:
            self._bus.publish(
                "tracking.trip_completed",
                {
                    "user_id": trip.user_id,
                    "points": len(trip),
                    "length_m": round(trip.length_m, 1),
                    "duration_s": round(trip.duration_s, 1),
                    "trips_total": self._model.trip_count(trip.user_id),
                },
            )
            if outcome["spawned_stay_points"]:
                self._bus.publish(
                    "tracking.staypoint_spawned",
                    {
                        "user_id": trip.user_id,
                        "spawned": outcome["spawned_stay_points"],
                        "stay_points_total": self._model.stay_point_count(trip.user_id),
                    },
                )

    # Model access ----------------------------------------------------------

    def model_snapshot(
        self, user_id: str, *, include_open_tail: bool = False
    ) -> Optional[MobilitySnapshot]:
        """The user's live model (None if the engine has nothing for them).

        With ``include_open_tail`` the snapshot also folds in the trips the
        open tail would yield if the stream ended now — that makes it match
        the batch miner over the user's full history exactly, at the cost of
        a repair-grade re-mine, so reserve it for compaction/equivalence.
        """
        if include_open_tail:
            tail = self._sessionizer.peek_tail_trips(user_id)
            return self._model.full_snapshot(user_id, tail)
        return self._model.snapshot(user_id)

    # Persistence ------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """The whole engine as a JSON-serializable payload.

        Composes the sessionizer's open-tail state, the incremental
        miner's per-user models and the observability counters.  Restoring
        it into an engine built with the *same configuration* yields a
        process that serves identical model snapshots and keeps consuming
        the fix stream exactly where this one stopped — the
        restart-persistence path for streaming deployments.
        """
        return {
            "version": STREAMING_STATE_VERSION,
            "fixes_observed": self._fixes_observed,
            "observed_per_user": dict(self._observed_per_user),
            "sessionizer": self._sessionizer.snapshot_state(),
            "model": self._model.snapshot_state(),
        }

    def restore_state(self, payload: dict) -> None:
        """Reload a :meth:`snapshot_state` payload, replacing engine state."""
        if not isinstance(payload, dict) or payload.get("version") != STREAMING_STATE_VERSION:
            raise ValidationError("unsupported streaming engine snapshot payload")
        self._sessionizer.restore_state(payload["sessionizer"])
        self._model.restore_state(payload["model"])
        self._fixes_observed = payload["fixes_observed"]
        self._observed_per_user = dict(payload["observed_per_user"])

    def repair_user(self, user_id: str) -> Optional[MobilitySnapshot]:
        """Force a drift repair for one user (used by the compactor)."""
        if not self._model.has_user(user_id):
            return None
        snapshot = self._model.repair(user_id)
        if self._bus is not None:
            self._bus.publish(
                "tracking.model_repaired",
                {
                    "user_id": user_id,
                    "epoch": snapshot.epoch,
                    "trips": snapshot.trip_count,
                    "stay_points": len(snapshot.stay_points),
                    "clusters": len(snapshot.clusters),
                },
            )
        return snapshot
