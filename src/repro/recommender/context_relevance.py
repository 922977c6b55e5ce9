"""Context-based relevance.

The second half of the compound score: how well a clip fits the listener's
*situation* — location and projected route (geographic relevance), time of
day, available time ΔT (duration fit), and driving conditions (spoken-word
versus demanding traffic).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.content.geo_relevance import RouteRelevanceScorer
from repro.content.model import AudioClip, ContentKind
from repro.errors import ValidationError
from repro.geo import GridIndex
from repro.recommender.context import DrivingCondition, ListenerContext

#: Which categories fit which time-of-day bucket particularly well.  The
#: boost is mild (the learned profile stays dominant) but reproduces the
#: paper's example of playing "the last news" at the start of a morning drive.
_TIME_OF_DAY_AFFINITY: Dict[str, Dict[str, float]] = {
    "morning": {
        "news-national": 1.0,
        "news-local": 1.0,
        "news-international": 0.9,
        "traffic-and-weather": 1.0,
        "economics": 0.7,
    },
    "afternoon": {"talk-show": 0.7, "music-pop": 0.6, "sport-football": 0.6},
    "evening": {"comedy": 0.8, "talk-show": 0.7, "music-jazz": 0.6, "food-and-wine": 0.7},
    "night": {"music-classical": 0.8, "music-jazz": 0.8, "literature": 0.6},
}

#: How demanding each content kind is on the driver's attention.
_KIND_ATTENTION_LOAD: Dict[ContentKind, float] = {
    ContentKind.MUSIC: 0.1,
    ContentKind.ADVERTISEMENT: 0.2,
    ContentKind.PODCAST: 0.5,
    ContentKind.TIME_SHIFTED: 0.5,
    ContentKind.NEWS: 0.4,
}


@dataclass(frozen=True)
class ContextScorerWeights:
    """Relative weights of the context sub-scores (normalized at use)."""

    geographic: float = 0.35
    time_of_day: float = 0.2
    duration_fit: float = 0.25
    driving_fit: float = 0.2

    def __post_init__(self) -> None:
        total = self.geographic + self.time_of_day + self.duration_fit + self.driving_fit
        if total <= 0:
            raise ValidationError("context weights must sum to a positive value")


class ContextScorer:
    """Context-based relevance of a clip for a listener context, in [0, 1]."""

    def __init__(
        self,
        weights: ContextScorerWeights = ContextScorerWeights(),
        *,
        geo_index: Optional[GridIndex[str]] = None,
    ) -> None:
        self._weights = weights
        total = (
            weights.geographic + weights.time_of_day + weights.duration_fit + weights.driving_fit
        )
        self._norm = total
        self._geo_index = geo_index
        # One-slot cache: ranking a batch scores every clip against the same
        # (immutable) context, so the route is sampled and trig-converted once.
        # The (context ref, scorer) pair is one attribute, stored and read in
        # one step, so threads missing at once can never pair one context's
        # ref with another context's scorer.
        self._route_cache: Optional[
            Tuple[Callable[[], Optional[ListenerContext]], RouteRelevanceScorer]
        ] = None

    def route_scorer_for(self, context: ListenerContext) -> RouteRelevanceScorer:
        """The batched geographic scorer for ``context`` (cached per context)."""
        cached = self._route_cache
        if cached is not None and cached[0]() is context:
            return cached[1]
        destination = context.destination.center if context.destination is not None else None
        scorer = RouteRelevanceScorer(
            current_position=context.position,
            route=context.route,
            destination=destination,
        )
        self._route_cache = (weakref.ref(context), scorer)
        return scorer

    def score(self, clip: AudioClip, context: ListenerContext) -> float:
        """Overall context relevance."""
        geo_scores = {clip.clip_id: self.geographic_score(clip, context)}
        return self._weighted([clip], context, geo_scores)[clip.clip_id]

    def score_many(
        self,
        clips: Sequence[AudioClip],
        context: ListenerContext,
        *,
        route_scorer: Optional[RouteRelevanceScorer] = None,
    ) -> Dict[str, float]:
        """Context scores for a batch of clips keyed by clip id.

        The geographic term runs through the batched fast path: the route is
        sampled once and far-away geo-tagged clips are pruned through the
        grid index when one was provided at construction.  The context's
        time-of-day table, ΔT and driving condition are read once per batch.
        """
        scorer = route_scorer if route_scorer is not None else self.route_scorer_for(context)
        return self._weighted(clips, context, scorer.score_many(clips, geo_index=self._geo_index))

    def _weighted(
        self, clips: Sequence[AudioClip], context: ListenerContext, geo_scores: Dict[str, float]
    ) -> Dict[str, float]:
        """The weighted sum of the four sub-scores per clip, keyed by clip id.

        The context's terms are read once, and the driving fit is one
        value per content kind for the whole batch.
        """
        weights = self._weights
        geographic, time_of_day = weights.geographic, weights.time_of_day
        duration_fit, driving_fit = weights.duration_fit, weights.driving_fit
        norm = self._norm
        affinities = _TIME_OF_DAY_AFFINITY.get(context.time_of_day, {})
        available_s = context.available_time_s
        condition = context.driving_condition
        driving_fits = {kind: _driving_fit(kind, condition) for kind in ContentKind}
        scores: Dict[str, float] = {}
        for clip in clips:
            value = (
                geographic * geo_scores[clip.clip_id]
                + time_of_day * _time_of_day_fit(clip.category_shares, affinities)
                + duration_fit * _duration_fit(clip.duration_s, available_s)
                + driving_fit * driving_fits[clip.kind]
            )
            scores[clip.clip_id] = value / norm
        return scores

    # Sub-scores ---------------------------------------------------------------

    def geographic_score(self, clip: AudioClip, context: ListenerContext) -> float:
        """Relevance of the clip's geographic footprint to the listener's space."""
        return self.route_scorer_for(context).score(clip)

    def time_of_day_score(self, clip: AudioClip, context: ListenerContext) -> float:
        """How well the clip's categories fit the current time of day."""
        affinities = _TIME_OF_DAY_AFFINITY.get(context.time_of_day, {})
        return _time_of_day_fit(clip.category_shares, affinities)

    def duration_fit_score(self, clip: AudioClip, context: ListenerContext) -> float:
        """How well the clip's duration fits the available time ΔT."""
        return _duration_fit(clip.duration_s, context.available_time_s)

    def driving_fit_score(self, clip: AudioClip, context: ListenerContext) -> float:
        """How appropriate the content kind is for the driving condition."""
        return _driving_fit(clip.kind, context.driving_condition)


def _time_of_day_fit(shares: Sequence[Tuple[str, float]], affinities: Dict[str, float]) -> float:
    """The category shares weighted by the time-of-day affinities (0.5 if untagged)."""
    if not shares:
        return 0.5
    boosted = sum(share * affinities.get(name, 0.5) for name, share in shares)
    return min(1.0, boosted)


def _duration_fit(duration_s: float, available_s: Optional[float]) -> float:
    """How well a duration fits the available time ΔT.

    Clips longer than the remaining time are heavily penalized (they
    would be cut off at arrival); short clips are mildly penalized when
    ΔT is long because they fragment the experience.
    """
    if available_s is None or available_s <= 0:
        return 0.5
    if duration_s > available_s:
        overshoot = duration_s / available_s
        return max(0.0, 1.0 - (overshoot - 1.0) * 2.0) * 0.3
    share = duration_s / available_s
    # Peak at clips covering 20%..80% of the available time.
    if share < 0.2:
        return 0.5 + 2.0 * share  # 0.5..0.9
    if share <= 0.8:
        return 1.0
    return 1.0 - (share - 0.8)


def _driving_fit(kind: ContentKind, condition: DrivingCondition) -> float:
    """How appropriate a content kind is for a driving condition.

    Demanding driving favours low-attention content (music), light
    driving is neutral, parked listeners can handle anything.
    """
    load = _KIND_ATTENTION_LOAD.get(kind, 0.5)
    if condition == DrivingCondition.PARKED:
        return 1.0
    if condition == DrivingCondition.LIGHT:
        return 1.0 - 0.2 * load
    if condition == DrivingCondition.MODERATE:
        return 1.0 - 0.5 * load
    return 1.0 - 0.9 * load
