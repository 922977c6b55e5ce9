"""Content entities: radio services, live programmes and audio clips."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.content.categories import category_by_name
from repro.errors import ValidationError
from repro.geo import GeoPoint
from repro.util.validation import require_non_empty, require_positive


class ContentKind(enum.Enum):
    """What kind of audio item a clip is."""

    PODCAST = "podcast"
    NEWS = "news"
    MUSIC = "music"
    ADVERTISEMENT = "advertisement"
    TIME_SHIFTED = "time_shifted"


@dataclass(frozen=True)
class RadioService:
    """A live linear radio service (one of the broadcaster's stations)."""

    service_id: str
    name: str
    bitrate_kbps: int = 96
    genre: str = "general"

    def __post_init__(self) -> None:
        require_non_empty(self.service_id, "service_id")
        require_non_empty(self.name, "name")
        require_positive(self.bitrate_kbps, "bitrate_kbps")


@dataclass(frozen=True)
class LiveProgramme:
    """A programme broadcast on a linear service."""

    programme_id: str
    service_id: str
    title: str
    categories: List[str] = field(default_factory=list)
    description: str = ""

    def __post_init__(self) -> None:
        require_non_empty(self.programme_id, "programme_id")
        require_non_empty(self.service_id, "service_id")
        require_non_empty(self.title, "title")
        for name in self.categories:
            category_by_name(name)  # raises NotFoundError on unknown categories


@dataclass(frozen=True)
class AudioClip:
    """A replaceable audio item: podcast episode, news bulletin, ad, ...

    ``category_scores`` is a distribution over (a subset of) the 30
    categories: for editorially tagged podcasts it is 1.0 on the tagged
    categories; for speech content it is the posterior produced by the
    Bayesian classifier.  ``geo_tags`` carries optional geographic relevance
    (see :mod:`repro.content.geo_relevance`).
    """

    clip_id: str
    title: str
    kind: ContentKind
    duration_s: float
    category_scores: Dict[str, float] = field(default_factory=dict)
    source_programme_id: Optional[str] = None
    transcript: Optional[str] = None
    geo_location: Optional[GeoPoint] = None
    geo_radius_m: Optional[float] = None
    geo_decay_m: Optional[float] = None
    published_s: float = 0.0
    size_bytes: int = 0

    def __post_init__(self) -> None:
        require_non_empty(self.clip_id, "clip_id")
        require_non_empty(self.title, "title")
        require_positive(self.duration_s, "duration_s")
        if self.geo_radius_m is not None and self.geo_radius_m <= 0:
            raise ValidationError(f"geo_radius_m must be > 0, got {self.geo_radius_m}")
        if self.geo_decay_m is not None and self.geo_decay_m <= 0:
            raise ValidationError(f"geo_decay_m must be > 0, got {self.geo_decay_m}")
        for name, score in self.category_scores.items():
            category_by_name(name)
            if score < 0:
                raise ValidationError(
                    f"category score for {name!r} must be >= 0, got {score}"
                )
        if self.size_bytes < 0:
            raise ValidationError(f"size_bytes must be >= 0, got {self.size_bytes}")

    @cached_property
    def primary_category(self) -> Optional[str]:
        """The highest-scoring category, if any (the first listed on a tie).

        Cached per clip: nothing mutates ``category_scores`` in place.
        """
        if not self.category_scores:
            return None
        return max(self.category_scores.items(), key=lambda pair: pair[1])[0]

    @cached_property
    def category_shares(self) -> Tuple[Tuple[str, float], ...]:
        """``(name, score / total)`` per category, in ``category_scores`` order.

        Empty when untagged or when the scores sum to 0.  Cached per clip,
        like :attr:`primary_category`, so the scorers divide once per clip
        rather than once per tick.
        """
        total = sum(self.category_scores.values())
        if total <= 0:
            return ()
        return tuple((name, score / total) for name, score in self.category_scores.items())

    @property
    def is_geo_tagged(self) -> bool:
        """Whether the clip has a geographic relevance footprint."""
        return self.geo_location is not None

    def normalized_scores(self) -> Dict[str, float]:
        """Category scores normalized to sum to 1 (empty dict if untagged).

        A fresh dict on every call, built from :attr:`category_shares`.
        """
        return dict(self.category_shares)

    def estimated_size_bytes(self, bitrate_kbps: int = 96) -> int:
        """Size estimate from duration and bitrate when ``size_bytes`` is unset."""
        if self.size_bytes > 0:
            return self.size_bytes
        return int(self.duration_s * bitrate_kbps * 1000 / 8)
