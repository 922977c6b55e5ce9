"""Candidate filtering and content-based relevance.

"For each user the recommender filters a candidate set of media items using
content-based relevance based on past listener's feedbacks."  The filter
removes content the listener has already heard or explicitly rejected and
keeps recent items; the scorer combines the category-profile affinity with a
TF-IDF similarity to positively rated clips and a recency prior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.content.model import AudioClip
from repro.content.repository import ContentRepository
from repro.errors import NotFoundError, ValidationError
from repro.textclass.tfidf import (
    SparseVector,
    TfIdfVectorizer,
    cosine_similarity,
    cosine_similarity_normed,
    sparse_norm,
)
from repro.users.management import UserManager


@dataclass(frozen=True)
class CandidateFilterConfig:
    """Controls which clips survive candidate filtering."""

    max_candidates: int = 200
    exclude_heard: bool = True
    exclude_disliked_categories: bool = True
    max_age_s: Optional[float] = 7 * 86400.0  # only recent podcasts by default
    min_duration_s: float = 30.0
    max_duration_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.max_candidates < 1:
            raise ValidationError("max_candidates must be >= 1")
        if self.min_duration_s < 0 or self.max_duration_s <= self.min_duration_s:
            raise ValidationError("duration bounds must satisfy 0 <= min < max")


class CandidateFilter:
    """Builds the per-user candidate set from the content repository."""

    def __init__(
        self,
        content: ContentRepository,
        users: UserManager,
        config: CandidateFilterConfig = CandidateFilterConfig(),
    ) -> None:
        self._content = content
        self._users = users
        self._config = config

    @property
    def content(self) -> ContentRepository:
        """The backing content repository (exposed for index reuse)."""
        return self._content

    def lookup_clip(self, clip_id: str) -> Optional[AudioClip]:
        """Fetch a clip from the repository regardless of filtering (or ``None``).

        Used by the proactive engine to make editorially injected clips
        eligible even when the normal candidate filter would exclude them.
        """
        try:
            return self._content.clip(clip_id)
        except NotFoundError:
            return None

    def candidates(self, user_id: str, *, now_s: float) -> List[AudioClip]:
        """The candidate clips for a user at a given time.

        The recency cut runs against the repository's publish-time index,
        walked lazily newest first, so the walk stops as soon as the
        candidate cap is reached: the cost follows the candidates kept,
        not the catalogue or the recency window.  Heard content (positive
        or negative feedback alike) comes from one walk of the user's
        feedback index rows.
        """
        config = self._config
        heard = set(self._users.feedback.content_ids_for_user(user_id))
        disliked = set(self._users.preference_profile(user_id).disliked_categories())
        cutoff = now_s - config.max_age_s if config.max_age_s is not None else None

        selected: List[AudioClip] = []
        for clip in self._content.iter_newest_first(cutoff):
            if config.exclude_heard and clip.clip_id in heard:
                continue
            if not config.min_duration_s <= clip.duration_s <= config.max_duration_s:
                continue
            if config.exclude_disliked_categories and clip.primary_category in disliked:
                continue
            selected.append(clip)
            if len(selected) >= config.max_candidates:
                break
        return selected


#: How many of the listener's most recent liked clips similarity compares to.
_LIKED_WINDOW = 20

#: One clip's memo row: the clip object scored, its cosine to each liked id
#: (aligned with the entry's liked-id tuple) and the best of them.
_MemoRow = Tuple[AudioClip, Tuple[float, ...], float]

#: One user's memo entry: the liked ids it was computed against and a row
#: per clip id.  Built fresh on every batch and published with one
#: assignment; a published entry is never mutated.
_MemoEntry = Tuple[Tuple[str, ...], Dict[str, _MemoRow]]


class _TextModel:
    """One fit of the TF-IDF model plus the state derived from it.

    :meth:`ContentBasedScorer.fit_text_model` and
    :meth:`~ContentBasedScorer.clear_text_model` replace it as a whole, so
    a scoring call that reads it once never mixes two fits, and the
    per-user similarity memo — derived state, never snapshotted — is keyed
    on this fit's vectorizer simply by living inside it.
    """

    __slots__ = ("vectorizer", "vectors", "norms", "memo")

    def __init__(self, vectorizer: TfIdfVectorizer, vectors: Dict[str, SparseVector]) -> None:
        self.vectorizer = vectorizer
        self.vectors = vectors
        self.norms = {clip_id: sparse_norm(vector) for clip_id, vector in vectors.items()}
        self.memo: Dict[str, _MemoEntry] = {}


class ContentBasedScorer:
    """Content-based relevance of a clip for a listener, in [0, 1]."""

    def __init__(
        self,
        content: ContentRepository,
        users: UserManager,
        *,
        profile_weight: float = 0.6,
        similarity_weight: float = 0.3,
        recency_weight: float = 0.1,
        recency_halflife_s: float = 2 * 86400.0,
    ) -> None:
        total = profile_weight + similarity_weight + recency_weight
        if total <= 0:
            raise ValidationError("scorer weights must sum to a positive value")
        self._content = content
        self._users = users
        self._profile_weight = profile_weight / total
        self._similarity_weight = similarity_weight / total
        self._recency_weight = recency_weight / total
        self._recency_halflife_s = recency_halflife_s
        self._text_model: Optional[_TextModel] = None

    @property
    def has_text_model(self) -> bool:
        """Whether a fitted TF-IDF model is in use (snapshot metadata)."""
        return self._text_model is not None

    def clear_text_model(self) -> None:
        """Drop the fitted TF-IDF model (similarity falls back to neutral).

        Used by snapshot restore when the captured server had never
        fitted one — keeping a stale model would score restored clips
        against vectors from the pre-restore catalogue.
        """
        self._text_model = None

    def fit_text_model(self) -> None:
        """Fit the TF-IDF model over all clips that carry transcripts.

        Optional: when no transcripts exist the similarity term falls back to
        a neutral 0.5 and only the category profile and recency matter.
        Each clip vector's norm is computed here, once per fit.
        """
        documents: List[str] = []
        clip_ids: List[str] = []
        for clip in self._content.clips():
            if clip.transcript:
                documents.append(clip.transcript)
                clip_ids.append(clip.clip_id)
        if not documents:
            self._text_model = None
            return
        vectorizer = TfIdfVectorizer()
        vectors = vectorizer.fit_transform(documents)
        self._text_model = _TextModel(vectorizer, dict(zip(clip_ids, vectors)))

    def score(self, user_id: str, clip: AudioClip, *, now_s: float) -> float:
        """Content-based relevance of one clip for one user."""
        profile = self._users.preference_profile(user_id)
        model = self._text_model
        liked_vectors = self._liked_vectors(model, user_id)
        similarity = self._similarity_to_liked(model, clip, liked_vectors)
        return self._combine(profile, [clip], [similarity], now_s)[clip.clip_id]

    def score_many(
        self, user_id: str, clips: Sequence[AudioClip], *, now_s: float
    ) -> Dict[str, float]:
        """Scores for a batch of clips keyed by clip id.

        The preference profile and the liked-clip TF-IDF vectors are fetched
        once for the whole batch.  Each fitted clip's cosine to each liked
        clip uses norms computed at fit time and is memoized per user:
        the next batch reuses it for every clip object it scored last time
        (a replaced clip is a new object, so it misses) and every liked id
        still in the window, so a new like costs one cosine per clip.  The
        memo is rebuilt from every batch, so it holds at most one batch per
        user and at most ``_LIKED_WINDOW`` cosines per clip.  Scores are
        bit-identical to :meth:`score`.
        """
        profile = self._users.preference_profile(user_id)
        return self._combine(profile, clips, self._similarities(user_id, clips), now_s)

    # Internal ----------------------------------------------------------------

    def _combine(
        self, profile, clips: Sequence[AudioClip], similarities: Sequence[float], now_s: float
    ) -> Dict[str, float]:
        """The weighted sum per clip; weights and half-life are read once."""
        profile_weight = self._profile_weight
        similarity_weight = self._similarity_weight
        recency_weight = self._recency_weight
        halflife_s = self._recency_halflife_s
        affinity = profile.share_affinity
        return {
            clip.clip_id: (
                profile_weight * affinity(clip.category_shares)
                + similarity_weight * similarity
                + recency_weight * _recency(clip.published_s, now_s, halflife_s)
            )
            for clip, similarity in zip(clips, similarities)
        }

    def _liked_ids(self, model: _TextModel, user_id: str) -> Tuple[str, ...]:
        liked_ids = self._users.feedback.positive_content_ids(user_id)
        return tuple(
            content_id for content_id in liked_ids[-_LIKED_WINDOW:] if content_id in model.vectors
        )

    def _liked_vectors(self, model: Optional[_TextModel], user_id: str) -> List[SparseVector]:
        if model is None:
            return []
        return [model.vectors[content_id] for content_id in self._liked_ids(model, user_id)]

    def _similarities(self, user_id: str, clips: Sequence[AudioClip]) -> List[float]:
        """Best similarity to the user's liked set, per clip, in ``clips`` order.

        A memoized row whose liked ids moved is carried over: each cosine
        to a like still in the window is reused and only the new likes are
        computed.  The best is ``max`` over the same values in the same
        order, so it has the same bits as :meth:`_similarity_to_liked`.
        """
        model = self._text_model
        if model is None:
            return [0.5] * len(clips)
        vectors, norms = model.vectors, model.norms
        liked_ids = self._liked_ids(model, user_id)
        liked = [(vectors[content_id], norms[content_id]) for content_id in liked_ids]
        liked_vectors = [vector for vector, _norm in liked]
        previous_ids, previous = model.memo.get(user_id, ((), {}))
        fresh = [None] * len(liked_ids)
        carry = None
        if previous_ids != liked_ids:
            # Per liked id, its position in the old tuple (None: a new like).
            position = {content_id: index for index, content_id in enumerate(previous_ids)}
            carry = [position.get(content_id) for content_id in liked_ids]
        entries: Dict[str, _MemoRow] = {}
        similarities: List[float] = []
        for clip in clips:
            clip_id = clip.clip_id
            vector = vectors.get(clip_id)
            if vector is None:
                # Not in the fit: the reference path vectorizes its transcript.
                similarities.append(self._similarity_to_liked(model, clip, liked_vectors))
                continue
            if not vector:
                similarities.append(0.5)
                continue
            row = previous.get(clip_id)
            if row is None or row[0] is not clip:
                row = _memo_row(clip, vector, norms[clip_id], liked, fresh, ())
            elif carry is not None:
                row = _memo_row(clip, vector, norms[clip_id], liked, carry, row[1])
            entries[clip_id] = row
            similarities.append(row[2])
        model.memo[user_id] = (liked_ids, entries)
        return similarities

    def _similarity_to_liked(
        self, model: Optional[_TextModel], clip: AudioClip, liked_vectors: List[SparseVector]
    ) -> float:
        """The reference similarity term: best ``cosine_similarity`` to a like."""
        if model is None:
            return 0.5
        clip_vector = model.vectors.get(clip.clip_id)
        if clip_vector is None and clip.transcript:
            clip_vector = model.vectorizer.transform(clip.transcript)
        if not clip_vector:
            return 0.5
        if not liked_vectors:
            return 0.5
        best = max(cosine_similarity(clip_vector, other) for other in liked_vectors)
        return best


def _memo_row(
    clip: AudioClip,
    vector: SparseVector,
    norm: float,
    liked: List[Tuple[SparseVector, float]],
    carry: List[Optional[int]],
    kept: Tuple[float, ...],
) -> _MemoRow:
    """A clip's memo row: its cosine to each like and the best of them.

    ``carry`` gives, per like, the index of its cosine in ``kept`` (the
    row's previous values) or ``None`` for a like to compute.  Computed
    cosines are :func:`cosine_similarity` with the norms precomputed, so
    the same bits.
    """
    cosines = tuple(
        kept[index]
        if index is not None
        else cosine_similarity_normed(vector, norm, other, other_norm)
        for index, (other, other_norm) in zip(carry, liked)
    )
    return (clip, cosines, max(cosines) if cosines else 0.5)


def _recency(published_s: float, now_s: float, halflife_s: float) -> float:
    """The recency prior: 0.5 per ``halflife_s`` of age (1 without a half-life)."""
    age_s = max(0.0, now_s - published_s)
    if halflife_s <= 0:
        return 1.0
    return 0.5 ** (age_s / halflife_s)
