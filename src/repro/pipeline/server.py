"""The PPHCR content server: the integration of all components (Figure 3).

Responsibilities, mirroring the paper's architecture diagram:

* **Clip data management** — ingest podcasts/clips; clips carrying speech
  are transcribed (simulated ASR) and classified with the Bayesian
  classifier so they gain category scores.
* **User management** — registration, feedback, tracking intake (delegated
  to :class:`~repro.users.management.UserManager`).
* **Recommender system** — builds the listener context from the tracking
  data (trajectory mining, destination and ΔT prediction, distraction
  zones) and runs the proactive engine to produce recommendation plans.
* **Communication** — every significant step publishes a message on the
  internal bus.  Each publish is counted in ``bus_published_total{topic}``,
  which the dashboard reads with the rest of the metrics registry; a
  consumer that needs the messages themselves (the tests, the chaos
  harness) subscribes a handler.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence

from repro.asr import SimulatedTranscriber
from repro.client.editorial import EditorialDesk
from repro.content.model import AudioClip, ContentKind
from repro.content.repository import ContentRepository
from repro.errors import NotFoundError, PipelineError, PredictionError
from repro.obs import Telemetry, TelemetryConfig
from repro.pipeline.messaging import MessageBus
from repro.recommender.compound import CompoundScorer
from repro.recommender.content_based import CandidateFilter, ContentBasedScorer
from repro.recommender.context import ListenerContext
from repro.recommender.context_relevance import ContextScorer
from repro.recommender.distraction import DistractionModel
from repro.recommender.proactive import ProactiveDecision, ProactiveEngine
from repro.recommender.scheduling import Scheduler
from repro.roadnet.generator import City
from repro.roadnet.intersections import distraction_zones_along, route_complexity
from repro.roadnet.routing import RoutePlanner
from repro.spatialdb import GpsFix, SpatialQueryEngine
from repro.storage.sharding import ShardingConfig
from repro.storage.wal import DurabilityConfig, DurabilityManager
from repro.streaming.compactor import CompactionConfig, ShardedCompactor
from repro.streaming.sharded import ShardedStreamingEngine
from repro.textclass import NaiveBayesClassifier
from repro.trajectory import DestinationPredictor, Trajectory, TravelTimePredictor
from repro.trajectory.clustering import RouteCluster, RouteClusterIndex, find_cluster
from repro.trajectory.staypoints import StayPoint, nearest_stay_point
from repro.users.management import UserManager
from repro.users.profile import UserProfile


#: Target word error rate of the simulated ASR on spoken clips.  The
#: transcriber's own default is 0.15, so the server's rate stays explicit.
ASR_TARGET_WER = 0.12

#: Finalized trips a live streaming model needs before the server serves it.
MIN_TRIPS_FOR_MODEL = 2


@dataclass(frozen=True)
class ServerConfig:
    """Tunable parameters of the server-side pipeline."""

    compaction: CompactionConfig = CompactionConfig()
    #: Shard layout of all per-user state (tracking, profiles, feedback,
    #: streaming models).  ``shards`` must stay constant across snapshots
    #: taken per shard (whole-server snapshots restore into any layout).
    sharding: ShardingConfig = ShardingConfig()
    #: Unified observability (metrics registry, request tracing, slow-query
    #: log).  ``TelemetryConfig(enabled=False)`` swaps in the null variants
    #: so every instrumented call site degrades to a no-op.
    telemetry: TelemetryConfig = TelemetryConfig()
    #: Write-ahead logging.  ``DurabilityConfig(enabled=True, directory=...)``
    #: attaches a :class:`~repro.storage.wal.DurabilityManager` that records
    #: every committed mutation as checksummed log frames, enabling
    #: point-in-time recovery (snapshot + log tail) and log-shipped read
    #: replicas.  Disabled by default: the in-memory server is unchanged.
    durability: DurabilityConfig = DurabilityConfig()


@dataclass
class _UserMobilityModel:
    """Cached trajectory mining results for one user.

    Carries an (origin, destination) → cluster index so context building
    resolves the active commute cluster with a dict lookup instead of
    scanning the cluster list on every recommend tick.
    """

    stay_points: List[StayPoint]
    clusters: List[RouteCluster]
    trip_count: int
    cluster_index: RouteClusterIndex = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.cluster_index is None:
            self.cluster_index = RouteClusterIndex(self.clusters)


class PphcrServer:
    """The integrated Proactive Personalized Hybrid Content Radio server."""

    #: Telemetry wiring, not state: resolved metric series live in the
    #: registry, and the cache refills on the next fallback.
    SNAPSHOT_EXEMPT = ("_degraded_series",)

    def __init__(
        self,
        *,
        city: Optional[City] = None,
        config: ServerConfig = ServerConfig(),
        classifier: Optional[NaiveBayesClassifier] = None,
    ) -> None:
        self._config = config
        self._telemetry = Telemetry(config.telemetry)
        self._bus = MessageBus(self._telemetry.metrics)
        self._degraded_total = self._telemetry.metrics.counter(
            "recommend_degraded_total",
            help="Recommend-tick fallbacks by reason.",
            labels=("reason",),
        )
        # Resolved ``recommend_degraded_total{reason}`` series by reason.
        self._degraded_series: Dict[str, Any] = {}
        self._content = ContentRepository()
        self._users = UserManager(content=self._content, shards=config.sharding.shards)
        # Storage telemetry: query observers on every table plus pull-time
        # stats collectors (no-ops when telemetry is disabled).
        self._telemetry.observe_database(self._content.database, name="metadata")
        self._telemetry.observe_sharded(self._users.profiles_database, name="profiles")
        self._telemetry.observe_sharded(self._users.feedback.database, name="feedbacks")
        self._telemetry.observe_sharded(self._users.tracking.database, name="tracking")
        if self._telemetry.enabled:
            self._compaction_pass_seconds = self._telemetry.metrics.histogram(
                "compaction_pass_seconds", "Wall time of compaction passes"
            )
            self._compaction_shard_seconds = self._telemetry.metrics.gauge(
                "compaction_shard_seconds",
                "Per-shard wall time of the latest compaction pass",
                labels=("shard",),
            )
            self._compaction_fixes_removed = self._telemetry.metrics.counter(
                "compaction_fixes_removed_total", "Raw fixes pruned by compaction"
            )
        else:
            self._compaction_pass_seconds = None
            self._compaction_shard_seconds = None
            self._compaction_fixes_removed = None
        self._editorial = EditorialDesk()
        self._city = city
        self._planner = RoutePlanner(city.network) if city is not None else None
        self._transcriber = SimulatedTranscriber(target_wer=ASR_TARGET_WER)
        self._classifier = classifier
        # The corpus train_classifier() last fitted on, so snapshot/WAL
        # replay can rebuild the classifier; None means "as constructed"
        # (untrained, or an injected classifier treated as configuration).
        self._classifier_corpus: Optional[Dict[str, List[str]]] = None
        self._content_scorer = ContentBasedScorer(self._content, self._users)
        # The repository's grid index over geo-tag centres lets context
        # scoring prune clips whose footprint cannot reach the route.
        self._context_scorer = ContextScorer(geo_index=self._content.geo_index)
        self._compound = CompoundScorer(self._content_scorer, self._context_scorer)
        self._filter = CandidateFilter(self._content, self._users)
        self._scheduler = Scheduler()
        self._engine = ProactiveEngine(self._filter, self._compound, self._scheduler)
        self._mobility_models: Dict[str, _UserMobilityModel] = {}
        # Converted streaming snapshots served by mobility_model(), keyed by
        # the engine's (epoch, trip_count) so a stale copy is never reused.
        self._streaming_served: Dict[str, tuple] = {}
        self._travel_time = TravelTimePredictor(self._planner)
        # Streaming mobility mining, the server's only miner: every
        # ingested fix flows through the online sessionizer/incremental
        # miner, so neither serving nor compaction re-reads raw histories.
        self._streaming = ShardedStreamingEngine(
            shards=config.sharding.shards,
            bus=self._bus,
            metrics=self._telemetry.metrics if self._telemetry.enabled else None,
        )
        self._users.add_fix_listener(self._streaming.observe_fixes)
        self._compactor = ShardedCompactor(
            self._users.tracking, self._refresh_for_compaction, config=config.compaction
        )
        # Round-robin shard cursor for maintenance_tick(): successive ticks
        # walk the shards so a deployment covers the whole population
        # without ever running a full pass.
        self._maintenance_shard = 0
        # Durability: attached last so its change/op listeners observe the
        # fully wired server (the streaming engine's fix listener must run
        # before the WAL's — replayed fixes re-drive streaming, and the
        # WAL's own listener stays suspended during replay).
        self._durability: Optional[DurabilityManager] = None
        if config.durability.enabled:
            self._durability = DurabilityManager(
                config.durability,
                shards=config.sharding.shards,
                telemetry=self._telemetry,
            )
            self._durability.attach(self)

    # Component access -----------------------------------------------------

    @property
    def bus(self) -> MessageBus:
        """The internal message bus."""
        return self._bus

    @property
    def telemetry(self) -> Telemetry:
        """The unified telemetry bundle (registry, tracer, slow-query log)."""
        return self._telemetry

    @property
    def content(self) -> ContentRepository:
        """The content repository / metadata DB."""
        return self._content

    @property
    def users(self) -> UserManager:
        """The user management component."""
        return self._users

    @property
    def editorial(self) -> EditorialDesk:
        """The editorial injection desk."""
        return self._editorial

    @property
    def durability(self) -> Optional[DurabilityManager]:
        """The write-ahead-log manager (None when durability is disabled)."""
        return self._durability

    @property
    def compound_scorer(self) -> CompoundScorer:
        """The compound relevance scorer (exposed for ablation benches)."""
        return self._compound

    @property
    def proactive_engine(self) -> ProactiveEngine:
        """The proactive recommendation engine."""
        return self._engine

    @property
    def config(self) -> ServerConfig:
        """The server configuration."""
        return self._config

    @property
    def route_planner(self) -> Optional[RoutePlanner]:
        """The road-network route planner (None without a city)."""
        return self._planner

    @property
    def streaming(self) -> ShardedStreamingEngine:
        """The streaming mobility engine façade."""
        return self._streaming

    @property
    def compactor(self) -> ShardedCompactor:
        """The sharded compaction scheduler."""
        return self._compactor

    @property
    def shard_count(self) -> int:
        """Number of shards all per-user state is partitioned into."""
        return self._config.sharding.shards

    @property
    def workers(self) -> None:
        """Always ``None``: every shard's work runs on the caller's thread.

        Kept only because the request-path benchmark (``perfbench/run.py``)
        still reads it when it tears a world down and when it sums worker
        busy time.
        """
        return None

    # Classifier management --------------------------------------------------

    def train_classifier(self, texts: Sequence[str], labels: Sequence[str]) -> None:
        """Train the Bayesian classifier used by clip data management.

        The training corpus is server state, not configuration: it rides
        the WAL (so recovery replays the training) and the snapshot (so a
        restored process classifies identically).
        """
        classifier = NaiveBayesClassifier()
        classifier.fit(list(texts), list(labels))
        self._classifier = classifier
        self._classifier_corpus = {"texts": list(texts), "labels": list(labels)}
        if self._durability is not None:
            self._durability.record_server_op(
                "train_classifier", data=self._classifier_corpus
            )
        self._bus.publish("classifier.trained", {"documents": len(texts)})

    # Content ingestion --------------------------------------------------------

    def ingest_clip(self, clip: AudioClip, *, speech_text: Optional[str] = None) -> AudioClip:
        """Register a clip, running ASR + classification for speech content.

        ``speech_text`` is the ground-truth spoken content (available for
        news programmes and talk podcasts in the synthetic world).  When it
        is provided and a classifier is trained, the clip's category scores
        are replaced by the classifier's posterior over the noisy transcript,
        exactly as the paper's clip data management component does.
        """
        stored = clip
        if speech_text and self._classifier is not None and self._classifier.is_trained:
            transcription = self._transcriber.transcribe(speech_text, clip_id=clip.clip_id)
            posterior = self._classifier.predict_proba(transcription.text)
            top = sorted(posterior.items(), key=lambda pair: pair[1], reverse=True)[:3]
            stored = replace(
                clip,
                transcript=transcription.text,
                category_scores={name: score for name, score in top},
            )
            self._bus.publish(
                "clip.classified",
                {
                    "clip_id": clip.clip_id,
                    "predicted": top[0][0],
                    "confidence": top[0][1],
                    "asr_confidence": transcription.confidence,
                },
            )
        self._content.add_clip(stored)
        self._bus.publish("clip.ingested", {"clip_id": stored.clip_id, "kind": stored.kind.value})
        return stored

    def ingest_clips(
        self, clips: Sequence[AudioClip], *, speech_texts: Optional[Dict[str, str]] = None
    ) -> int:
        """Ingest many clips; returns how many were stored."""
        texts = speech_texts or {}
        count = 0
        for clip in clips:
            self.ingest_clip(clip, speech_text=texts.get(clip.clip_id))
            count += 1
        return count

    def refresh_text_model(self) -> None:
        """(Re)fit the TF-IDF model over the ingested transcripts."""
        self._content_scorer.fit_text_model()
        if self._durability is not None:
            self._durability.record_server_op("refresh_text_model")
        self._bus.publish("recommender.text_model_refreshed", {})

    # Users ------------------------------------------------------------------

    def register_user(self, profile: UserProfile) -> None:
        """Register a listener."""
        self._users.register(profile)
        self._bus.publish("user.registered", {"user_id": profile.user_id})

    # Mobility model -------------------------------------------------------------

    def refresh_mobility_model(self, user_id: str) -> _UserMobilityModel:
        """Re-mine one user's mobility model and cache it for serving.

        Takes the streaming engine's full snapshot: its compact trip list
        plus the trips the open tail would yield now, mined with the batch
        algorithms.  That equals the batch miner over every fix the engine
        has observed for the user (up to ``max_trips_per_user`` retained
        trips), without reading the raw history, which compaction prunes.
        Each compaction visit calls this, and so does a bulk history load;
        :meth:`build_context` uses the cached result.
        """
        if self._streaming.observed_fix_count(user_id) < 2:
            raise PipelineError(f"not enough tracking data for user {user_id!r}")
        snapshot = self._streaming.model_snapshot(user_id, include_open_tail=True)
        if snapshot is None:
            model = _UserMobilityModel(stay_points=[], clusters=[], trip_count=0)
        else:
            model = self._model_from_snapshot(snapshot)
        self._mobility_models[user_id] = model
        self._bus.publish(
            "tracking.model_rebuilt",
            {
                "user_id": user_id,
                "trips": model.trip_count,
                "stay_points": len(model.stay_points),
                "clusters": len(model.clusters),
            },
        )
        return model

    def model_freshness(self, user_id: str) -> tuple:
        """``(epoch, trips, fixes_added)`` — an O(1) mobility validator.

        Combines the streaming engine's ``model_freshness`` (repair epoch,
        folded trips) with the tracking store's monotonic fix counter, so
        the token moves on *every* accepted fix, including the ones that
        only extend the open tail.  The gateway keys recommendation ETags
        on it.
        """
        epoch, trips = self._streaming.model_freshness(user_id)
        return (epoch, trips, self._users.tracking.fixes_added(user_id))

    def mobility_model(self, user_id: str) -> _UserMobilityModel:
        """The user's mobility model: the last refresh's, the live streaming
        model, or a refresh now — in that order of preference."""
        model = self._mobility_models.get(user_id)
        if model is None:
            model = self._streaming_model(user_id)
        if model is None:
            model = self.refresh_mobility_model(user_id)
        return model

    @staticmethod
    def _model_from_snapshot(snapshot) -> _UserMobilityModel:
        return _UserMobilityModel(
            stay_points=list(snapshot.stay_points),
            clusters=list(snapshot.clusters),
            trip_count=snapshot.trip_count,
        )

    def _streaming_model(self, user_id: str) -> Optional[_UserMobilityModel]:
        """The incrementally maintained model, when it is mature enough."""
        freshness = self._streaming.model_freshness(user_id)
        cached = self._streaming_served.get(user_id)
        if cached is not None and cached[0] == freshness:
            return cached[1]
        snapshot = self._streaming.model_snapshot(user_id)
        if (
            snapshot is None
            or snapshot.trip_count < MIN_TRIPS_FOR_MODEL
            or not snapshot.stay_points
        ):
            return None
        model = self._model_from_snapshot(snapshot)
        self._streaming_served[user_id] = (freshness, model)
        return model

    def _refresh_for_compaction(self, user_id: str) -> bool:
        """The compactor's callback: False when the user has too few fixes."""
        try:
            self.refresh_mobility_model(user_id)
        except PipelineError:
            return False
        return True

    def compact_tracking_data(
        self,
        *,
        keep_window_s: Optional[float] = None,
        shard: Optional[int] = None,
        budget: Optional[int] = None,
    ) -> Dict[str, int]:
        """Run the periodic tracking-data compaction described in the paper.

        "The amount of GPS data arriving to the tracking data DB requires to
        periodically process and simplify them" — but only for users with new
        data: the sharded compactor skips users whose fix counter has not
        moved since their last visit, optionally restricts a pass to one
        ``shard`` and caps it at ``budget`` users.  Each visited user gets a
        refreshed mobility model and raw fixes older than ``keep_window_s``
        (default: the configured ``CompactionConfig.keep_window_s``, relative
        to their latest fix) pruned.  Returns the number of fixes removed
        per user.  Without a ``shard`` the pass covers every shard, one
        after another on the caller's thread.
        """
        with self._telemetry.tracer.trace(
            "compaction.pass", shard=-1 if shard is None else shard
        ):
            report = self._compactor.run_pass(
                keep_window_s=keep_window_s, shard=shard, budget=budget
            )
        if self._compaction_pass_seconds is not None:
            self._compaction_pass_seconds.labels().record(
                sum(report.shard_elapsed_s.values())
            )
            for pass_shard, elapsed_s in report.shard_elapsed_s.items():
                self._compaction_shard_seconds.labels(shard=str(pass_shard)).set(
                    elapsed_s
                )
            self._compaction_fixes_removed.labels().inc(report.fixes_removed)
        self._bus.publish(
            "tracking.compacted",
            {
                "users": len(report.visited_users),
                "fixes_removed": report.fixes_removed,
                "unchanged_users": report.unchanged_users,
                "deferred_users": report.deferred_users,
                "skipped_users": report.skipped_users,
                "shard": -1 if report.shard is None else report.shard,
            },
        )
        return report.removed

    @property
    def maintenance_shard(self) -> int:
        """The shard the *next* :meth:`maintenance_tick` will compact."""
        return self._maintenance_shard

    def maintenance_tick(
        self,
        *,
        keep_window_s: Optional[float] = None,
        budget: Optional[int] = None,
    ) -> Dict[str, int]:
        """Run one periodic maintenance step: compact the next shard.

        Successive ticks rotate round-robin through the shards, so a
        deployment that calls this on a timer covers the whole user
        population every ``ShardingConfig.shards`` ticks while each tick
        only pays for one shard's dirty users.  Returns the tick summary
        (shard compacted, users pruned, fixes removed); a deployment that
        wants the whole population in one step calls
        :meth:`compact_tracking_data` without a shard instead.
        """
        shard = self._maintenance_shard
        self._maintenance_shard = (shard + 1) % self.shard_count
        removed = self.compact_tracking_data(
            keep_window_s=keep_window_s, shard=shard, budget=budget
        )
        summary = {
            "shard": shard,
            "next_shard": self._maintenance_shard,
            "users_pruned": len(removed),
            "fixes_removed": sum(removed.values()),
        }
        # WAL compaction piggybacks on the maintenance timer: once the log
        # exceeds its size budget the tick rewrites it as checkpoint + empty
        # tail.  The summary key only appears with durability attached, so
        # the durability-off dict shape is unchanged.
        if self._durability is not None:
            compacted = self._durability.maybe_compact(self)
            summary["wal_compacted"] = 1 if compacted else 0
        return summary

    # Snapshot / restore -----------------------------------------------------------

    def snapshot(self) -> Dict:
        """The warmed server as one versioned, JSON-serializable payload.

        Composes the content catalogue (metadata DB + schedules), all
        per-user state (profiles, learned preferences, feedbacks DB,
        tracking store), the streaming mobility engine's live state and
        the editorial queue — everything a restarted process needs to
        serve *identical* recommendations and keep mining the fix stream
        exactly where this one stopped.  Derived caches (refreshed mobility
        models, served streaming snapshots) are deliberately excluded:
        they rebuild on demand from the captured state.

        Telemetry (metrics registry, traces, slow-query log) is also
        excluded **by design**: it is process-lifetime observability, so a
        restored process starts with fresh counters exactly as a restarted
        one would — persisting monotonic counters across a restore would
        make rates and ratios lie about the new process.
        """
        payload = {
            "version": 1,
            "content": self._content.snapshot(),
            "users": self._users.snapshot(),
            "streaming": self._streaming.snapshot_state(),
            "editorial": self._editorial.snapshot(),
            "maintenance_shard": self._maintenance_shard,
            "text_model_fitted": self._content_scorer.has_text_model,
            "classifier_corpus": self._classifier_corpus,
        }
        if self._durability is not None:
            # The WAL watermark this snapshot is consistent with: recovery
            # replays only committed frames *past* this LSN on top of the
            # restored state.  Durability-off snapshots keep the old shape.
            payload["wal_lsn"] = self._durability.last_lsn
        return payload

    def restore_snapshot(self, payload: Dict, *, replay_log: bool = False) -> None:
        """Reload a :meth:`snapshot` payload into this server.

        The server must be built with the same configuration (streaming
        parameters live in code, not in the payload).  Caches are cleared,
        so the first reads after a restore rebuild from restored state.

        With ``replay_log=True`` (requires durability attached and a
        snapshot taken with durability on, i.e. carrying ``wal_lsn``), the
        restore continues past the snapshot: every committed WAL frame
        with a higher LSN is replayed on top, recovering the server to the
        last durable commit — point-in-time recovery from snapshot + tail.
        """
        if not isinstance(payload, dict) or payload.get("version") != 1:
            raise PipelineError("unsupported server snapshot payload")
        if not isinstance(payload.get("streaming"), dict):
            raise PipelineError("server snapshot payload carries no streaming state")
        if replay_log:
            if self._durability is None:
                raise PipelineError("replay_log requires durability to be enabled")
            if "wal_lsn" not in payload:
                raise PipelineError(
                    "replay_log requires a snapshot taken with durability on "
                    "(missing wal_lsn watermark)"
                )
        # Restored writes must not be re-logged: the WAL already holds (or
        # the checkpoint supersedes) everything the snapshot carries.
        suspended = (
            self._durability.suspended_capture()
            if self._durability is not None
            else nullcontext()
        )
        with suspended:
            self._content.restore(payload["content"])
            self._users.restore(payload["users"])
            self._streaming.restore_state(payload["streaming"])
            self._editorial.restore(payload.get("editorial", []))
            self._maintenance_shard = payload.get("maintenance_shard", 0)
            self._mobility_models = {}
            self._streaming_served = {}
            if payload.get("text_model_fitted"):
                self._content_scorer.fit_text_model()
            else:
                self._content_scorer.clear_text_model()
            corpus = payload.get("classifier_corpus")
            self._classifier_corpus = corpus
            if corpus is not None:
                # Refit rather than serialize the model: the corpus is the
                # durable state, the classifier a deterministic function of
                # it.  A snapshot without a corpus leaves the classifier as
                # constructed (an injected one is configuration, not state).
                classifier = NaiveBayesClassifier()
                classifier.fit(list(corpus["texts"]), list(corpus["labels"]))
                self._classifier = classifier
        replay_report = None
        if replay_log:
            replay_report = self._durability.replay_into(
                self, after_lsn=payload["wal_lsn"]
            )
        event = {
            "users": self._users.user_count(),
            "clips": self._content.clip_count(),
            "fixes": self._users.tracking.fix_count(),
        }
        if replay_report is not None:
            event["wal_frames_replayed"] = replay_report["frames_replayed"]
        self._bus.publish("server.restored", event)

    def snapshot_shard(self, shard: int) -> Dict:
        """One shard's slice of all per-user state — the migration unit.

        Composes the user manager's shard slice (profiles, preferences,
        feedback, tracking) with the owning streaming engine's live state.
        Shared state (content catalogue, editorial queue) is *not*
        included: it replicates to every node, only per-user state moves.
        """
        if not 0 <= shard < self.shard_count:
            raise PipelineError(
                f"shard must be in [0, {self.shard_count}), got {shard}"
            )
        return {
            "version": 1,
            "shard": shard,
            "users": self._users.snapshot_shard(shard),
            "streaming": self._streaming.snapshot_shard(shard),
        }

    def restore_shard(self, shard: int, payload: Dict) -> None:
        """Replace one shard's per-user state from a :meth:`snapshot_shard`.

        The receiving server must use the same shard count as the sender
        (every user in the payload must route to ``shard`` here).  Derived
        caches are cleared so the first reads after the move rebuild from
        the restored state.
        """
        if not isinstance(payload, dict) or payload.get("version") != 1:
            raise PipelineError("unsupported shard snapshot payload")
        if not isinstance(payload.get("streaming"), dict):
            raise PipelineError("shard snapshot payload carries no streaming state")
        if not 0 <= shard < self.shard_count:
            raise PipelineError(
                f"shard must be in [0, {self.shard_count}), got {shard}"
            )
        suspended = (
            self._durability.suspended_capture()
            if self._durability is not None
            else nullcontext()
        )
        with suspended:
            self._users.restore_shard(shard, payload["users"])
            self._streaming.restore_shard(shard, payload["streaming"])
            self._mobility_models = {}
            self._streaming_served = {}
        self._bus.publish(
            "server.shard_restored",
            {"shard": shard, "fixes": self._users.tracking.fix_count()},
        )

    # Context building -------------------------------------------------------------

    def build_context(
        self,
        user_id: str,
        *,
        now_s: float,
        drive_window_s: float = 1800.0,
    ) -> ListenerContext:
        """Assemble the listener context from the stored tracking data.

        Uses the trailing ``drive_window_s`` of GPS fixes as the partial
        drive, predicts destination and remaining travel time, plans the
        residual route on the road network and derives its distraction zones.
        Every context built, driving or not, is published on
        ``context.built``.
        """
        self._users.profile(user_id)
        tracking = self._users.tracking
        try:
            fixes = tracking.fixes_for(user_id, start_s=now_s - drive_window_s, end_s=now_s + 1.0)
        except NotFoundError:
            fixes = []
        if len(fixes) < 2:
            context = ListenerContext(user_id=user_id, now_s=now_s, is_driving=False)
        else:
            context = self._context_from_fixes(user_id, fixes, now_s)
        self._bus.publish(
            "context.built",
            {
                "user_id": user_id,
                "is_driving": context.is_driving,
                "destination_confidence": context.destination_confidence,
                "available_s": context.available_time_s or 0.0,
            },
        )
        return context

    def _context_from_fixes(
        self, user_id: str, fixes: List[GpsFix], now_s: float
    ) -> ListenerContext:
        """:meth:`build_context` for a window holding at least two fixes.

        A driving tick plans its residual route once: the ΔT estimate, the
        route geometry and the distraction zones all read that one route.
        """
        tracking = self._users.tracking
        partial = Trajectory.from_fixes(user_id, fixes)
        engine = SpatialQueryEngine(tracking)
        speed = engine.current_speed_mps(user_id)
        is_driving = speed > 2.0 and partial.length_m > 200.0
        position = partial.destination

        destination_prediction = None
        travel_time = None
        route_geometry = None
        zones = []
        complexity = 0.0
        if is_driving:
            try:
                model = self.mobility_model(user_id)
            except PipelineError:
                model = None
                self._degraded("no_mobility_model")
            if model is not None and model.stay_points:
                try:
                    predictor = DestinationPredictor(model.stay_points, model.clusters)
                    destination_prediction = predictor.most_likely(partial)
                except PredictionError:  # no destination just means "no proactivity"
                    self._degraded("no_destination")
            if destination_prediction is not None:
                cluster = None
                if model is not None:
                    origin_sp = nearest_stay_point(model.stay_points, partial.origin, max_distance_m=800.0)
                    if origin_sp is not None:
                        cluster = find_cluster(
                            model.clusters,
                            origin_sp.stay_point_id,
                            destination_prediction.stay_point_id,
                            index=model.cluster_index,
                        )
                fraction = None
                if cluster is not None and cluster.median_length_m > 0:
                    fraction = min(1.0, partial.length_m / cluster.median_length_m)
                route = None
                if self._planner is not None:
                    try:
                        route = self._planner.route_between_points(
                            position, destination_prediction.center
                        )
                    except NotFoundError:  # ΔT from history alone, no zones
                        pass
                try:
                    travel_time = self._travel_time.estimate(
                        position,
                        destination_prediction.center,
                        now_s=now_s,
                        cluster=cluster,
                        fraction_completed=fraction,
                        route=route,
                    )
                except PredictionError:
                    self._degraded("no_travel_time")
                if route is not None:
                    route_geometry = route.geometry
                    zones = distraction_zones_along(self._city.network, route, departure_s=now_s)
                    complexity = route_complexity(self._city.network, route)
                elif self._planner is not None:
                    self._degraded("no_route")

        return ListenerContext(
            user_id=user_id,
            now_s=now_s,
            position=position,
            speed_mps=speed,
            is_driving=is_driving,
            route=route_geometry,
            destination=destination_prediction,
            travel_time=travel_time,
            distraction_zones=zones,
            route_complexity=complexity,
        )

    def _degraded(self, reason: str) -> None:
        """Count one recommend-tick fallback in ``recommend_degraded_total``."""
        series = self._degraded_series.get(reason)
        if series is None:
            series = self._degraded_series[reason] = self._degraded_total.labels(reason=reason)
        series.inc()

    # Recommendation -------------------------------------------------------------

    def recommend(
        self,
        user_id: str,
        *,
        now_s: float,
        drive_elapsed_s: Optional[float] = None,
        context: Optional[ListenerContext] = None,
    ) -> ProactiveDecision:
        """Run the full proactive pipeline for one listener."""
        listener_context = context if context is not None else self.build_context(user_id, now_s=now_s)
        elapsed = drive_elapsed_s
        if elapsed is None:
            elapsed = self._engine.config.min_drive_elapsed_s if listener_context.is_driving else 0.0
        distraction = (
            DistractionModel(listener_context.distraction_zones)
            if listener_context.distraction_zones
            else None
        )
        boosts = self._editorial.boosts_for(user_id, now_s=now_s)
        decision = self._engine.evaluate(
            listener_context,
            drive_elapsed_s=elapsed,
            distraction=distraction,
            editorial_boosts=boosts,
        )
        self._bus.publish(
            "recommendation.decision",
            {
                "user_id": user_id,
                "recommended": decision.should_recommend,
                "reason": decision.reason,
                "items": len(decision.recommended_clip_ids),
            },
        )
        return decision
