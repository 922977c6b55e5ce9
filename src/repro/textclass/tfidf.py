"""TF-IDF vectorization and cosine similarity.

Used by the content-based recommender to compare clips textually (e.g. for
"more like what the listener kept listening to") in addition to the
category-level profile matching.
"""

from __future__ import annotations

import math
from collections import Counter, OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import ClassificationError
from repro.textclass.tokenizer import Tokenizer
from repro.textclass.vocabulary import Vocabulary

SparseVector = Dict[int, float]


class TfIdfVectorizer:
    """Classic TF-IDF with smoothed inverse document frequency."""

    def __init__(
        self,
        *,
        tokenizer: Optional[Tokenizer] = None,
        max_features: Optional[int] = None,
        cache_size: int = 4096,
    ) -> None:
        self._tokenizer = tokenizer or Tokenizer()
        self._max_features = max_features
        self._vocabulary: Optional[Vocabulary] = None
        self._idf: List[float] = []
        # Transforming the same transcript is a ranking hot path (every
        # recommend tick re-vectorizes candidate clips), so vectors are
        # memoized per document text; a refit invalidates the lot.
        self._cache_size = max(0, cache_size)
        self._cache: "OrderedDict[str, SparseVector]" = OrderedDict()
        self._cache_hits = 0
        self._cache_misses = 0

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._vocabulary is not None

    @property
    def vocabulary(self) -> Vocabulary:
        """The fitted vocabulary."""
        self._require_fitted()
        return self._vocabulary  # type: ignore[return-value]

    def fit(self, documents: Sequence[str]) -> "TfIdfVectorizer":
        """Learn the vocabulary and IDF weights from a corpus."""
        if not documents:
            raise ClassificationError("cannot fit TF-IDF on an empty corpus")
        tokenized = self._tokenizer.tokenize_many(documents)
        self._vocabulary = Vocabulary.build(tokenized, max_size=self._max_features)
        document_frequency = [0] * len(self._vocabulary)
        for tokens in tokenized:
            seen = set()
            for token in tokens:
                if token in self._vocabulary and token not in seen:
                    document_frequency[self._vocabulary.index_of(token)] += 1
                    seen.add(token)
        n = len(documents)
        self._idf = [
            math.log((1 + n) / (1 + df)) + 1.0 for df in document_frequency
        ]
        # The fitted vocabulary/IDF changed: memoized vectors are stale.
        self._cache.clear()
        self._cache_hits = 0
        self._cache_misses = 0
        return self

    def transform(self, document: str) -> SparseVector:
        """Vectorize one document into a sparse, L2-normalized TF-IDF vector.

        Vectors are memoized per document text (LRU, ``cache_size`` entries)
        so repeated transforms — ``transform_many`` over a clip archive full
        of recurring transcripts — skip tokenization entirely.  Callers get
        a fresh dict each time, so mutating a result cannot poison the cache.
        """
        self._require_fitted()
        if self._cache_size > 0:
            cached = self._cache.get(document)
            if cached is not None:
                self._cache.move_to_end(document)
                self._cache_hits += 1
                return dict(cached)
            self._cache_misses += 1
        vector = self._vectorize(document)
        if self._cache_size > 0:
            self._cache[document] = vector
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
            return dict(vector)
        return vector

    def _vectorize(self, document: str) -> SparseVector:
        tokens = self._tokenizer.tokenize(document)
        counts = Counter(
            self._vocabulary.index_of(token) for token in tokens if token in self._vocabulary
        )
        if not counts:
            return {}
        total = sum(counts.values())
        vector = {
            index: (count / total) * self._idf[index] for index, count in counts.items()
        }
        norm = math.sqrt(sum(value * value for value in vector.values()))
        if norm == 0.0:
            return {}
        return {index: value / norm for index, value in vector.items()}

    def fit_transform(self, documents: Sequence[str]) -> List[SparseVector]:
        """Fit on the corpus and vectorize every document."""
        self.fit(documents)
        return [self.transform(document) for document in documents]

    def transform_many(self, documents: Iterable[str]) -> List[SparseVector]:
        """Vectorize a batch (repeated documents tokenize once)."""
        return [self.transform(document) for document in documents]

    def cache_info(self) -> Dict[str, int]:
        """Memoization counters: hits, misses, current size, capacity."""
        return {
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "size": len(self._cache),
            "capacity": self._cache_size,
        }

    def _require_fitted(self) -> None:
        if self._vocabulary is None:
            raise ClassificationError("vectorizer must be fitted before transform")


def cosine_similarity(a: SparseVector, b: SparseVector) -> float:
    """Cosine similarity of two sparse vectors (0 if either is empty).

    The reference implementation: a sparse dot product over the smaller
    vector, divided by both norms, which are recomputed on every call —
    even for :class:`TfIdfVectorizer` output, whose norms are already ~1.
    Callers comparing the same vectors many times precompute the norms
    with :func:`sparse_norm` and call :func:`cosine_similarity_normed`.
    """
    if not a or not b:
        return 0.0
    if len(b) < len(a):
        a, b = b, a
    dot = sum(value * b.get(index, 0.0) for index, value in a.items())
    norm_a = math.sqrt(sum(value * value for value in a.values()))
    norm_b = math.sqrt(sum(value * value for value in b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def sparse_norm(vector: SparseVector) -> float:
    """Euclidean norm of a sparse vector, by :func:`cosine_similarity`'s expression."""
    return math.sqrt(sum(value * value for value in vector.values()))


def cosine_similarity_normed(
    a: SparseVector, norm_a: float, b: SparseVector, norm_b: float
) -> float:
    """:func:`cosine_similarity` given both vectors' :func:`sparse_norm`.

    The same dot product — over the smaller vector (``a`` on ties), in its
    iteration order — and the same division, so the result has the same
    bits; only the two norm sums are skipped.
    """
    if not a or not b:
        return 0.0
    if len(b) < len(a):
        a, b = b, a
    dot = sum(value * b.get(index, 0.0) for index, value in a.items())
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)
