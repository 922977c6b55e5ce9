"""The assembled synthetic world: city + broadcaster + listeners + history.

``build_world`` returns a fully populated :class:`SyntheticWorld` whose
server has: the 30-category classifier trained on the synthetic corpus, the
daily catalogue ingested (speech items classified from noisy transcripts),
the commuter population registered with seeded preferences and feedback
history, and all historical GPS data loaded so mobility models can be built.
Examples and benches start from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.content.model import AudioClip
from repro.datasets.broadcaster import BroadcasterConfig, GeneratedCatalogue, SyntheticBroadcaster
from repro.datasets.mobility import Commuter, CommuterConfig, CommuterGenerator
from repro.errors import ValidationError
from repro.pipeline.server import PphcrServer, ServerConfig
from repro.roadnet.generator import City, CityGeneratorConfig, generate_city
from repro.users.feedback import FeedbackKind
from repro.users.profile import UserProfile
from repro.util.rng import DeterministicRng
from repro.util.timeutils import SECONDS_PER_DAY


@dataclass(frozen=True)
class WorldConfig:
    """Top-level knobs of the synthetic world."""

    seed: int = 42
    city: CityGeneratorConfig = CityGeneratorConfig()
    broadcaster: BroadcasterConfig = BroadcasterConfig()
    commuters: CommuterConfig = CommuterConfig()
    server: ServerConfig = ServerConfig()
    classifier_documents_per_category: int = 12
    feedback_events_per_user: int = 30
    load_gps_history: bool = True

    def __post_init__(self) -> None:
        if self.classifier_documents_per_category < 1:
            raise ValidationError("classifier_documents_per_category must be >= 1")
        if self.feedback_events_per_user < 0:
            raise ValidationError("feedback_events_per_user must be >= 0")


@dataclass
class SyntheticWorld:
    """Everything the examples and benches need, already wired together."""

    config: WorldConfig
    city: City
    server: PphcrServer
    catalogue: GeneratedCatalogue
    commuters: List[Commuter]
    commuter_generator: CommuterGenerator
    clips_by_id: Dict[str, AudioClip] = field(default_factory=dict)

    @property
    def history_days(self) -> int:
        """Number of days of GPS history loaded per commuter."""
        return self.config.commuters.history_days

    @property
    def today(self) -> int:
        """Index of the first day with no pre-loaded history (the 'live' day)."""
        return self.config.commuters.history_days

    @property
    def today_start_s(self) -> float:
        """Timestamp of midnight on the live day."""
        return self.today * SECONDS_PER_DAY

    def commuter(self, user_id: str) -> Commuter:
        """Look up a commuter by user id."""
        for commuter in self.commuters:
            if commuter.user_id == user_id:
                return commuter
        raise ValidationError(f"unknown commuter {user_id!r}")

    def live_drives(self, day: Optional[int] = None) -> List[tuple]:
        """``(commuter, drive)`` pairs for every commuter's live-day commute.

        Each drive comes from the stateless
        :meth:`~repro.datasets.mobility.CommuterGenerator.live_drive` fork,
        so the list is deterministic — but a ``SimulatedDrive`` consumes
        its own noise rng when sampled, so callers must invoke
        ``drive.fixes()`` at most once per returned drive.
        """
        live_day = self.today if day is None else day
        return [
            (commuter, self.commuter_generator.live_drive(commuter, day=live_day))
            for commuter in self.commuters
        ]


def build_world(config: WorldConfig = WorldConfig()) -> SyntheticWorld:
    """Assemble a fully populated synthetic world."""
    rng = DeterministicRng(config.seed)
    city = generate_city(config.city)
    broadcaster = SyntheticBroadcaster(config.broadcaster, city=city)
    catalogue = broadcaster.generate()

    server = PphcrServer(city=city, config=config.server)

    # 1. Train the 30-category classifier on the synthetic corpus.
    train_docs, _test_docs = broadcaster.corpus.train_test_split(
        documents_per_category=config.classifier_documents_per_category
    )
    server.train_classifier([d.text for d in train_docs], [d.category for d in train_docs])

    # 2. Register the broadcaster's services, programmes and schedules.
    for service in catalogue.services:
        server.content.add_service(service)
    for programme in catalogue.programmes:
        server.content.add_programme(programme)
        server.content.schedule_programme(
            programme.programme_id, catalogue.schedule_windows[programme.programme_id]
        )

    # 3. Ingest the daily clips (speech clips get ASR + classification).
    # The broadcaster generates publication times relative to its own day;
    # shift them so the catalogue is "yesterday and this morning's" output
    # relative to the live day, keeping it inside the candidate filter's
    # recency window regardless of how much GPS history was generated.
    from dataclasses import replace as _replace

    publish_offset_s = max(0, config.commuters.history_days - 1) * SECONDS_PER_DAY
    shifted_clips = [
        _replace(clip, published_s=clip.published_s + publish_offset_s)
        for clip in catalogue.clips
    ]
    catalogue.clips = shifted_clips
    server.ingest_clips(shifted_clips, speech_texts=catalogue.speech_texts)
    server.refresh_text_model()

    # 4. Create the commuter population with seeded preferences and feedback.
    commuter_generator = CommuterGenerator(city, config.commuters)
    commuters = commuter_generator.generate_commuters()
    clips_by_id = {clip.clip_id: clip for clip in server.content.clips()}
    clips_by_category: Dict[str, List[AudioClip]] = {}
    for clip in server.content.clips():
        primary = clip.primary_category
        if primary is not None:
            clips_by_category.setdefault(primary, []).append(clip)

    for commuter in commuters:
        server.register_user(
            UserProfile(
                user_id=commuter.user_id,
                display_name=commuter.user_id.replace("-", " ").title(),
                home_service_id="radio-uno",
            )
        )
        # Seed through the manager (not the profile object directly) so the
        # onboarding delta is visible to the WAL when durability is on.
        server.users.seed_preferences(
            commuter.user_id,
            list(commuter.preferred_categories),
            list(commuter.disliked_categories),
        )
        _seed_feedback_history(
            server,
            commuter,
            clips_by_category,
            events=config.feedback_events_per_user,
            rng=rng.fork("feedback", commuter.user_id),
        )

    # 5. Load the GPS history and build mobility models.
    if config.load_gps_history:
        for commuter in commuters:
            fixes = commuter_generator.historical_fixes(commuter)
            server.users.ingest_fixes(fixes)
            if len(fixes) >= 2:
                server.refresh_mobility_model(commuter.user_id)

    return SyntheticWorld(
        config=config,
        city=city,
        server=server,
        catalogue=catalogue,
        commuters=commuters,
        commuter_generator=commuter_generator,
        clips_by_id=clips_by_id,
    )


def _seed_feedback_history(
    server: PphcrServer,
    commuter: Commuter,
    clips_by_category: Dict[str, List[AudioClip]],
    *,
    events: int,
    rng: DeterministicRng,
) -> None:
    """Simulate past listening: likes on preferred categories, skips on disliked.

    Only the older half of each category's clips is used for history, so the
    newer half stays unheard and remains eligible for recommendation (the
    candidate filter excludes already-heard content).
    """
    if events <= 0:
        return

    def history_pool(category: str):
        clips = sorted(clips_by_category[category], key=lambda c: c.published_s)
        half = max(1, len(clips) // 2)
        return clips[:half]

    preferred = [c for c in commuter.preferred_categories if c in clips_by_category]
    disliked = [c for c in commuter.disliked_categories if c in clips_by_category]
    history_span_s = SECONDS_PER_DAY * 5.0
    for index in range(events):
        timestamp = rng.uniform(0.0, history_span_s)
        if preferred and rng.bernoulli(0.7):
            category = rng.choice(preferred)
            clip = rng.choice(history_pool(category))
            kind = FeedbackKind.LIKE if rng.bernoulli(0.4) else FeedbackKind.COMPLETED
            listened = clip.duration_s
        elif disliked:
            category = rng.choice(disliked)
            clip = rng.choice(history_pool(category))
            kind = FeedbackKind.SKIP if rng.bernoulli(0.8) else FeedbackKind.DISLIKE
            listened = rng.uniform(5.0, min(60.0, clip.duration_s))
        else:
            continue
        server.users.record_feedback(
            commuter.user_id,
            clip.clip_id,
            kind,
            timestamp_s=timestamp,
            listened_s=listened,
        )
