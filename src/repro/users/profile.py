"""User profiles: demographics and learned content preferences."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.content.categories import category_by_name, category_names
from repro.errors import ValidationError
from repro.util.validation import require_in_range, require_non_empty


@dataclass(frozen=True)
class UserProfile:
    """Demographic details stored in the profiles DB."""

    user_id: str
    display_name: str
    age: Optional[int] = None
    gender: Optional[str] = None
    home_service_id: Optional[str] = None   # the station the user usually listens to
    language: str = "it"

    def __post_init__(self) -> None:
        require_non_empty(self.user_id, "user_id")
        require_non_empty(self.display_name, "display_name")
        if self.age is not None and not 0 < self.age < 120:
            raise ValidationError(f"age must be in (0, 120), got {self.age}")


class UserPreferenceProfile:
    """A learned preference vector over the 30 content categories.

    Preferences are maintained with exponentially decayed accumulation:
    positive feedback on a clip adds the clip's (normalized) category scores,
    negative feedback subtracts them with a configurable penalty, and the
    whole vector decays slowly so tastes can drift.  Scores are kept in
    ``[-1, 1]`` per category.
    """

    def __init__(
        self,
        user_id: str,
        *,
        learning_rate: float = 0.25,
        negative_penalty: float = 1.25,
        decay: float = 0.995,
    ) -> None:
        require_non_empty(user_id, "user_id")
        require_in_range(learning_rate, 0.0, 1.0, "learning_rate")
        if negative_penalty < 0:
            raise ValidationError("negative_penalty must be >= 0")
        require_in_range(decay, 0.0, 1.0, "decay")
        self._user_id = user_id
        self._learning_rate = learning_rate
        self._negative_penalty = negative_penalty
        self._decay = decay
        self._scores: Dict[str, float] = {}
        self._observations = 0

    @property
    def user_id(self) -> str:
        """Owner of the profile."""
        return self._user_id

    @property
    def observation_count(self) -> int:
        """Number of feedback events folded into the profile."""
        return self._observations

    def score(self, category: str) -> float:
        """Current preference for a category (0 for never-seen categories)."""
        category_by_name(category)
        return self._scores.get(category, 0.0)

    def as_vector(self) -> Dict[str, float]:
        """Copy of the non-zero preference entries."""
        return dict(self._scores)

    def top_categories(self, k: int = 5) -> List[Tuple[str, float]]:
        """The ``k`` most preferred categories (positive scores only)."""
        positive = [(name, value) for name, value in self._scores.items() if value > 0]
        positive.sort(key=lambda pair: pair[1], reverse=True)
        return positive[:k]

    def disliked_categories(self, threshold: float = -0.2) -> List[str]:
        """Categories with preference below ``threshold``."""
        return sorted(name for name, value in self._scores.items() if value < threshold)

    def update(self, category_scores: Dict[str, float], *, positive: bool) -> None:
        """Fold one feedback event into the profile.

        ``category_scores`` is the clip's category distribution; ``positive``
        distinguishes listen-through / like events from skip / dislike.
        """
        total = sum(category_scores.values())
        if total <= 0:
            return
        self._observations += 1
        direction = 1.0 if positive else -self._negative_penalty
        for name in list(self._scores):
            self._scores[name] *= self._decay
        for name, raw in category_scores.items():
            category_by_name(name)
            delta = direction * self._learning_rate * (raw / total)
            updated = self._scores.get(name, 0.0) + delta
            self._scores[name] = max(-1.0, min(1.0, updated))

    def affinity(self, category_scores: Dict[str, float]) -> float:
        """Affinity in [0, 1] between the profile and a clip's categories.

        Computed as the preference-weighted average of the clip's category
        distribution, mapped from [-1, 1] to [0, 1].  Unknown users (no
        observations) get a neutral 0.5 for every clip.
        """
        total = sum(category_scores.values())
        if total <= 0:
            return 0.5
        return self.share_affinity([(name, raw / total) for name, raw in category_scores.items()])

    def share_affinity(self, shares: Sequence[Tuple[str, float]]) -> float:
        """:meth:`affinity` over ``(name, share)`` pairs already normalized.

        Takes an :attr:`AudioClip.category_shares
        <repro.content.model.AudioClip.category_shares>` as is: the same
        products summed in the same order, so the same bits as
        :meth:`affinity` on the clip's ``category_scores``.
        """
        if not shares or not self._scores:
            return 0.5
        scores = self._scores
        weighted = 0.0
        for name, share in shares:
            weighted += share * scores.get(name, 0.0)
        return (weighted + 1.0) / 2.0

    def seeded(self, preferred: List[str], disliked: Optional[List[str]] = None) -> "UserPreferenceProfile":
        """Seed the profile with explicit likes/dislikes (onboarding survey)."""
        for name in preferred:
            self.update({name: 1.0}, positive=True)
        for name in disliked or []:
            self.update({name: 1.0}, positive=False)
        return self

    # Snapshot / restore ---------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """The exact learned state as a JSON-serializable payload.

        Captures the score vector, the observation count and the learning
        parameters, so a restored profile produces bit-identical
        affinities and continues learning identically.
        """
        return {
            "user_id": self._user_id,
            "learning_rate": self._learning_rate,
            "negative_penalty": self._negative_penalty,
            "decay": self._decay,
            "scores": dict(self._scores),
            "observations": self._observations,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "UserPreferenceProfile":
        """Rebuild a profile from :meth:`to_payload` output."""
        profile = cls(
            payload["user_id"],
            learning_rate=payload.get("learning_rate", 0.25),
            negative_penalty=payload.get("negative_penalty", 1.25),
            decay=payload.get("decay", 0.995),
        )
        profile._scores = dict(payload.get("scores", {}))
        profile._observations = int(payload.get("observations", 0))
        return profile
