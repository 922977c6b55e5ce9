"""Parity tests for the recommend tick's fast paths.

Every fast path is asserted equal (``==``, no tolerance) to its reference on
seeded random catalogues — transcripts, publish-time ties, geo tags from on
the route to far away:

* ``ContentBasedScorer.score_many`` (norms computed at fit time, per-user
  memo of each clip's cosine to each like) against the per-clip reference
  ``score``, whose similarity term is ``cosine_similarity``, across a
  memo's whole life;
* ``CandidateFilter.candidates`` (lazy newest-first walk) against the eager
  filter over ``clips_published_after`` / ``clips_newest_first``;
* candidate-side geo pruning against ``GridIndex.query_bbox`` pruning with
  the whole catalogue indexed.

Plus the hoisted scorers against their per-clip forms: ``ContextScorer``'s
``score_many`` against ``score`` in every time-of-day bucket, driving
condition and kind of ΔT, and ``share_affinity`` over ``category_shares``
against the per-call dict expression.  And the memo's size and cosine
bounds (a new like costs one cosine per fitted clip), ``lookup_clip``'s
error contract, and a threaded stress test of the route-scorer cache and
the content memo.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest

from repro.content import AudioClip, ContentKind, ContentRepository
from repro.content.categories import category_names
from repro.content.geo_relevance import RouteRelevanceScorer, clip_geo_tag
from repro.errors import ValidationError
from repro.geo import GeoPoint, Polyline
from repro.geo.geodesy import destination_point
from repro.recommender import content_based
from repro.recommender.content_based import (
    CandidateFilter,
    CandidateFilterConfig,
    ContentBasedScorer,
)
from repro.recommender import context_relevance
from repro.recommender.context import DrivingCondition, ListenerContext
from repro.recommender.context_relevance import ContextScorer
from repro.trajectory import TravelTimeEstimate
from repro.users import FeedbackKind, UserManager, UserPreferenceProfile, UserProfile
from repro.users.feedback import FeedbackStore

NOW = 40 * 86400.0
BASE = GeoPoint(45.07, 7.68)
LETTERS = "abcdefghilmnoprstuvz"
USERS = ("u1", "u2", "u3")


def random_route(rng) -> Polyline:
    vertices = [BASE]
    for _ in range(30):
        bearing, step = rng.uniform(0.0, 360.0), rng.uniform(200.0, 2500.0)
        vertices.append(destination_point(vertices[-1], bearing, step))
    return Polyline(vertices)


def random_clip(rng, clip_id: str, vocabulary, route: Polyline, *, published_s: float):
    categories = category_names()
    scores = {rng.choice(categories): rng.uniform(0.2, 1.0) for _ in range(rng.randint(1, 2))}
    roll = rng.random()
    if roll < 0.05:
        transcript = None
    elif roll < 0.08:
        transcript = "a e i o"  # tokenizes to nothing: an empty fitted vector
    else:
        # A topic window keeps some transcripts similar and most not.
        topic = rng.randint(0, len(vocabulary) - 40)
        transcript = " ".join(
            vocabulary[topic + rng.randint(0, 39)]
            if rng.random() < 0.7
            else rng.choice(vocabulary)
            for _ in range(rng.randint(15, 90))
        )
    location = radius = decay = None
    if rng.random() < 0.6:
        anchor = route.point_at_distance(rng.uniform(0.0, route.length_m))
        location = destination_point(anchor, rng.uniform(0.0, 360.0), rng.uniform(0.0, 150000.0))
        radius = rng.uniform(200.0, 5000.0)
        decay = rng.uniform(500.0, 8000.0)
    return AudioClip(
        clip_id=clip_id,
        title=clip_id,
        kind=rng.choice([ContentKind.PODCAST, ContentKind.NEWS, ContentKind.MUSIC]),
        duration_s=rng.uniform(20.0, 4000.0),
        category_scores=scores,
        transcript=transcript,
        geo_location=location,
        geo_radius_m=radius,
        geo_decay_m=decay,
        published_s=published_s,
    )


def coarse_publish_time(rng) -> float:
    # 300 clips over ~200 hourly slots spanning 9 days: plenty of exact ties,
    # and some clips older than the default 7-day recency window.
    return NOW - rng.randint(0, 216) * 3600.0


def build_world(rng, clips: int = 300):
    vocabulary = sorted({
        "".join(rng.choice(LETTERS) for _ in range(rng.randint(3, 8))) for _ in range(400)
    })
    route = random_route(rng.fork("route"))
    content = ContentRepository()
    for index in range(clips):
        crng = rng.fork("clip", index)
        published_s = coarse_publish_time(crng)
        clip = random_clip(crng, f"c{index:04d}", vocabulary, route, published_s=published_s)
        content.add_clip(clip)
    users = UserManager(content=content)
    catalogue = content.clips()
    for user_id in USERS:
        urng = rng.fork("user", user_id)
        users.register(UserProfile(user_id=user_id, display_name=user_id))
        users.preference_profile(user_id).seeded(
            urng.sample(category_names(), 3), urng.sample(category_names(), 2)
        )
        for step in range(urng.randint(4, 12)):
            kind = urng.choice(list(FeedbackKind))
            clip = urng.choice(catalogue)
            timestamp_s = NOW - 86400.0 + step * 60.0
            users.record_feedback(user_id, clip.clip_id, kind, timestamp_s=timestamp_s)
        # At least one like with a transcript, so similarity is never all-neutral.
        worded = [clip for clip in catalogue if clip.transcript and len(clip.transcript) > 20]
        liked = urng.choice(worded)
        users.record_feedback(user_id, liked.clip_id, FeedbackKind.LIKE, timestamp_s=NOW - 3600.0)
    return content, users, vocabulary, route


def reference_scores(scorer: ContentBasedScorer, user_id, clips, now_s):
    return {clip.clip_id: scorer.score(user_id, clip, now_s=now_s) for clip in clips}


class TestContentScoringParity:
    def test_score_many_matches_reference_over_the_memo_lifetime(self, seeded_rng):
        content, users, vocabulary, route = build_world(seeded_rng.fork("world"))
        scorer = ContentBasedScorer(content, users)
        scorer.fit_text_model()
        rng = seeded_rng.fork("ticks")
        clock = [NOW]

        def ticks(count: int, *, extra=()):
            for _ in range(count):
                clock[0] += 120.0
                catalogue = content.clips()
                for user_id in USERS:
                    # Overlapping batches: most clips repeat from tick to tick.
                    start = rng.randint(0, 20)
                    batch = catalogue[start : start + 150] + list(extra)
                    fast = scorer.score_many(user_id, batch, now_s=clock[0])
                    assert fast == reference_scores(scorer, user_id, batch, clock[0])

        ticks(4)
        # A new like changes the liked set the memo was computed against.
        liked = next(clip for clip in content.clips()[10:] if clip.transcript)
        users.record_feedback("u1", liked.clip_id, FeedbackKind.LIKE, timestamp_s=clock[0])
        ticks(3)
        # A replaced clip is a new object with a new transcript.
        old = content.clips()[12]
        content.replace_clip(dataclasses.replace(old, transcript=" ".join(vocabulary[:30])))
        ticks(2)
        # A clip added after the fit is vectorized on the fly.
        late = random_clip(rng.fork("late"), "late-1", vocabulary, route, published_s=NOW)
        late = dataclasses.replace(late, transcript=" ".join(vocabulary[5:60]))
        content.add_clip(late)
        ticks(2, extra=[late])
        scorer.fit_text_model()
        ticks(2, extra=[late])
        scorer.clear_text_model()
        ticks(2)
        scorer.fit_text_model()
        ticks(2)

    def test_memo_reuses_unchanged_clips_and_misses_replaced_ones(self, seeded_rng, monkeypatch):
        content, users, vocabulary, _route = build_world(seeded_rng.fork("world"))
        scorer = ContentBasedScorer(content, users)
        scorer.fit_text_model()
        pairs = []
        real = content_based.cosine_similarity_normed
        monkeypatch.setattr(
            content_based, "cosine_similarity_normed", lambda *args: pairs.append(1) or real(*args)
        )
        batch = content.clips()[:120]

        def fitted() -> int:
            # Clips with a non-empty fitted vector: the others score 0.5 with no pair.
            vectors = scorer._text_model.vectors
            return sum(1 for clip in batch if vectors.get(clip.clip_id))

        def liked_window():
            return scorer._text_model.memo["u2"][0]

        def tick(now_s: float) -> int:
            pairs.clear()
            assert scorer.score_many("u2", batch, now_s=now_s) == reference_scores(
                scorer, "u2", batch, now_s
            )
            return len(pairs)

        clock = iter(NOW + 120.0 * step for step in range(100))
        likes = iter(
            clip.clip_id
            for clip in content.clips()[150:]
            if scorer._text_model.vectors.get(clip.clip_id)
        )

        def like() -> str:
            new_like = next(clip_id for clip_id in likes if clip_id not in liked_window())
            users.record_feedback("u2", new_like, FeedbackKind.LIKE, timestamp_s=next(clock))
            return new_like

        assert fitted() > 50
        assert tick(next(clock)) == fitted() * len(liked_window())
        assert tick(next(clock)) == 0
        # A replaced clip is a new object: it misses against every like.
        replaced = next(clip for clip in batch if scorer._text_model.vectors.get(clip.clip_id))
        content.replace_clip(dataclasses.replace(replaced, title="renamed"))
        batch = [content.clip(clip.clip_id) for clip in batch]
        assert tick(next(clock)) == len(liked_window())
        # A new like costs one pair per fitted clip.
        before = liked_window()
        assert len(before) < content_based._LIKED_WINDOW
        new_like = like()
        assert tick(next(clock)) == fitted()
        assert liked_window() == before + (new_like,)
        # Fill the window; then a like pushes the oldest out, still one pair per clip.
        while len(liked_window()) < content_based._LIKED_WINDOW:
            like()
            assert tick(next(clock)) == fitted()
        full = liked_window()
        new_like = like()
        assert tick(next(clock)) == fitted()
        assert liked_window() == full[1:] + (new_like,)
        assert tick(next(clock)) == 0
        # A refit starts a new memo: every pair is computed again.
        scorer.fit_text_model()
        assert tick(next(clock)) == fitted() * content_based._LIKED_WINDOW

    def test_memo_holds_at_most_one_batch_per_user(self, seeded_rng):
        content, users, vocabulary, route = build_world(seeded_rng.fork("world"))
        config = CandidateFilterConfig(max_candidates=25)
        candidate_filter = CandidateFilter(content, users, config)
        scorer = ContentBasedScorer(content, users)
        scorer.fit_text_model()
        rng = seeded_rng.fork("churn")
        seen = set()
        windows = []
        fitted_ids = sorted(scorer._text_model.vectors)
        like_rng = seeded_rng.fork("likes")
        # 60 steps: over seeds 1-20 the fewest distinct candidates seen is
        # 170, well over the 125 the churn check below asks for.
        for step in range(60):
            now_s = NOW + step * 3 * 3600.0
            for index in range(rng.randint(0, 6)):
                published_s = now_s - rng.randint(0, 3) * 3600.0
                clip_id = f"new-{step}-{index}"
                crng = rng.fork(step, index)
                clip = random_clip(crng, clip_id, vocabulary, route, published_s=published_s)
                content.add_clip(clip)
            for user_id in USERS:
                batch = candidate_filter.candidates(user_id, now_s=now_s)
                seen.update(clip.clip_id for clip in batch)
                scorer.score_many(user_id, batch, now_s=now_s)
                liked, entries = scorer._text_model.memo[user_id]
                assert len(entries) <= config.max_candidates
                assert len(liked) <= content_based._LIKED_WINDOW
                assert all(len(cosines) == len(liked) for _clip, cosines, _best in entries.values())
                windows.append(len(liked))
                # A like of a fitted clip slides the liked window.
                liked_id = like_rng.choice(fitted_ids)
                users.record_feedback(user_id, liked_id, FeedbackKind.LIKE, timestamp_s=now_s)
        assert len(seen) > 5 * config.max_candidates  # the candidate set really churned
        assert max(windows) == content_based._LIKED_WINDOW  # and so did the liked window


class TestCandidateParity:
    @staticmethod
    def eager_candidates(content, users, config, user_id, now_s):
        """The filter as it was before the lazy walk: eager listing, two feedback reads."""
        heard = set(users.feedback.positive_content_ids(user_id)) | set(
            users.feedback.negative_content_ids(user_id)
        )
        disliked = set(users.preference_profile(user_id).disliked_categories())
        pool = (
            content.clips_published_after(now_s - config.max_age_s)
            if config.max_age_s is not None
            else content.clips_newest_first()
        )
        selected = []
        for clip in pool:
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

    @staticmethod
    def stable_newest_first(content, cutoff_s):
        """Newest first by a stable sort: publish ties keep insertion order."""
        ordered = sorted(content.clips(), key=lambda clip: clip.published_s, reverse=True)
        return [clip for clip in ordered if cutoff_s is None or clip.published_s >= cutoff_s]

    @pytest.mark.parametrize(
        "config",
        [
            CandidateFilterConfig(),
            CandidateFilterConfig(max_age_s=None),
            CandidateFilterConfig(max_candidates=7, max_age_s=2 * 86400.0),
            CandidateFilterConfig(max_candidates=1000, exclude_heard=False),
            CandidateFilterConfig(max_age_s=None, exclude_disliked_categories=False),
        ],
    )
    def test_candidates_match_the_eager_filter(self, seeded_rng, config):
        content, users, _vocabulary, _route = build_world(seeded_rng.fork("world"))
        rng = seeded_rng.fork("republish")
        candidate_filter = CandidateFilter(content, users, config)

        def check(now_s):
            cutoff = now_s - config.max_age_s if config.max_age_s is not None else None
            listing = (
                content.clips_published_after(cutoff)
                if cutoff is not None
                else content.clips_newest_first()
            )
            assert listing == self.stable_newest_first(content, cutoff)
            for user_id in USERS:
                lazy = candidate_filter.candidates(user_id, now_s=now_s)
                eager = self.eager_candidates(content, users, config, user_id, now_s)
                assert lazy == eager
                assert all(mine is theirs for mine, theirs in zip(lazy, eager))

        check(NOW)
        # Republish clips: they move in the publish-time index, and onto
        # existing publish instants, where ties keep their insertion order.
        catalogue = content.clips()
        for clip in rng.sample(catalogue, 25):
            content.replace_clip(dataclasses.replace(clip, published_s=coarse_publish_time(rng)))
        check(NOW)
        check(NOW - 3 * 86400.0)

    def test_candidates_read_the_feedback_history_once(self, seeded_rng, monkeypatch):
        content, users, _vocabulary, _route = build_world(seeded_rng.fork("world"))
        scorer = ContentBasedScorer(content, users)
        scorer.fit_text_model()
        walks, events = [], []
        real_rows = users.feedback._user_rows
        monkeypatch.setattr(
            users.feedback,
            "_user_rows",
            lambda user_id: walks.append(user_id) or real_rows(user_id),
        )
        real_event = FeedbackStore._to_event
        monkeypatch.setattr(
            FeedbackStore,
            "_to_event",
            staticmethod(lambda row: events.append(row) or real_event(row)),
        )
        batch = CandidateFilter(content, users).candidates("u1", now_s=NOW)
        assert walks == ["u1"]
        walks.clear()
        scorer.score_many("u1", batch, now_s=NOW)
        assert walks == ["u1"]
        assert events == []  # both read the index rows, and build no FeedbackEvent
        assert users.feedback.events_for_user("u1") and events  # the counter does count


def dict_affinity(preferences, category_scores) -> float:
    """``UserPreferenceProfile.affinity`` as it was: one division per category per call."""
    total = sum(category_scores.values())
    if total <= 0 or not preferences:
        return 0.5
    weighted = 0.0
    for name, raw in category_scores.items():
        weighted += (raw / total) * preferences.get(name, 0.0)
    return (weighted + 1.0) / 2.0


def dict_time_of_day(clip, context) -> float:
    """``ContextScorer.time_of_day_score`` as it was, over a fresh normalized dict."""
    affinities = context_relevance._TIME_OF_DAY_AFFINITY.get(context.time_of_day, {})
    total = sum(clip.category_scores.values())
    if total <= 0:
        return 0.5
    scores = {name: score / total for name, score in clip.category_scores.items()}
    return min(1.0, sum(share * affinities.get(name, 0.5) for name, share in scores.items()))


class TestHoistedScorerParity:
    #: Hours after midnight in each time-of-day bucket (``NOW`` is a midnight).
    HOURS = {"night": 3, "morning": 8, "afternoon": 14, "evening": 20}
    #: (speed m/s, route complexity, driving) for each driving condition.
    CONDITIONS = {
        DrivingCondition.PARKED: (0.0, 0.0, False),
        DrivingCondition.LIGHT: (10.0, 0.1, True),
        DrivingCondition.MODERATE: (12.0, 0.4, True),
        DrivingCondition.DEMANDING: (30.0, 0.7, True),
    }
    #: Usable ΔT: unknown, none left, overdue, short and long.
    AVAILABLE = (None, 0.0, -60.0, 300.0, 20000.0)

    @staticmethod
    def odd_clips(template):
        """Untagged, zero-sum and every-kind variants of one clip."""
        first, second = category_names()[:2]
        odd = [
            dataclasses.replace(template, clip_id="untagged", category_scores={}),
            dataclasses.replace(
                template, clip_id="zero-sum", category_scores={first: 0.0, second: 0.0}
            ),
        ]
        odd += [
            dataclasses.replace(template, clip_id=f"kind-{kind.value}", kind=kind)
            for kind in ContentKind
        ]
        return odd

    def test_context_score_many_matches_per_clip_score(self, seeded_rng):
        content, _users, _vocabulary, route = build_world(seeded_rng.fork("world"))
        rng = seeded_rng.fork("contexts")
        scorer = ContextScorer()
        catalogue = content.clips()
        seen = set()
        for bucket, hour in self.HOURS.items():
            for condition, (speed, complexity, driving) in self.CONDITIONS.items():
                for available in self.AVAILABLE:
                    travel_time = None
                    if available is not None:
                        travel_time = TravelTimeEstimate(
                            expected_s=max(available, 0.0),
                            low_s=available,
                            high_s=max(available, 0.0),
                            history_component_s=None,
                            network_component_s=available,
                            history_weight=0.0,
                        )
                    context = ListenerContext(
                        user_id="u1",
                        now_s=NOW + hour * 3600.0,
                        position=route.point_at_distance(rng.uniform(0.0, route.length_m)),
                        speed_mps=speed,
                        is_driving=driving,
                        route=route if driving else None,
                        travel_time=travel_time,
                        route_complexity=complexity,
                    )
                    assert (context.time_of_day, context.driving_condition) == (bucket, condition)
                    assert context.available_time_s == available
                    batch = rng.sample(catalogue, 60) + self.odd_clips(rng.choice(catalogue))
                    per_clip = {clip.clip_id: scorer.score(clip, context) for clip in batch}
                    assert scorer.score_many(batch, context) == per_clip
                    for clip in batch:
                        assert scorer.time_of_day_score(clip, context) == dict_time_of_day(
                            clip, context
                        )
                    seen.add((bucket, condition, available))
        assert len(seen) == len(self.HOURS) * len(self.CONDITIONS) * len(self.AVAILABLE)

    def test_share_affinity_matches_the_dict_expression(self, seeded_rng):
        rng = seeded_rng.fork("affinity")
        names = category_names()
        profiles = [UserPreferenceProfile("never-seen")]
        for index in range(8):
            profile = UserPreferenceProfile(f"p{index}").seeded(
                rng.sample(names, 4), rng.sample(names, 3)
            )
            for _ in range(rng.randint(0, 6)):
                learned = {rng.choice(names): rng.uniform(0.1, 3.0) for _ in range(3)}
                profile.update(learned, positive=rng.random() < 0.6)
            profiles.append(profile)
        first, second = names[:2]
        category_dicts = [{}, {first: 0.0}, {first: 0.0, second: 0.0}]
        for _ in range(400):
            category_dicts.append(
                {
                    rng.choice(names): rng.choice(
                        [0.0, rng.uniform(0.0, 1.0), rng.uniform(0.0, 40.0)]
                    )
                    for _ in range(rng.randint(1, 6))
                }
            )
        for category_scores in category_dicts:
            clip = AudioClip(
                clip_id="c",
                title="c",
                kind=ContentKind.PODCAST,
                duration_s=60.0,
                category_scores=category_scores,
            )
            for profile in profiles:
                expected = dict_affinity(profile.as_vector(), category_scores)
                assert profile.affinity(category_scores) == expected
                assert profile.share_affinity(clip.category_shares) == expected

    def test_normalized_scores_is_a_fresh_dict(self):
        first, second, third = category_names()[:3]
        clip = AudioClip(
            clip_id="c",
            title="c",
            kind=ContentKind.NEWS,
            duration_s=60.0,
            category_scores={first: 2.0, second: 1.0},
        )
        expected = {first: 2.0 / 3.0, second: 1.0 / 3.0}
        scores = clip.normalized_scores()
        assert scores == expected
        scores[first] = 99.0
        scores[third] = 1.0
        del scores[second]
        assert clip.normalized_scores() == expected
        assert clip.normalized_scores() is not clip.normalized_scores()
        assert clip.category_shares == ((first, 2.0 / 3.0), (second, 1.0 / 3.0))


class TestLookupClip:
    def test_missing_clip_is_none(self, seeded_rng):
        content, users, _vocabulary, _route = build_world(seeded_rng.fork("world"), clips=20)
        candidate_filter = CandidateFilter(content, users)
        assert candidate_filter.lookup_clip("no-such-clip") is None
        assert candidate_filter.lookup_clip("c0003") is content.clip("c0003")

    def test_other_repository_errors_propagate(self, seeded_rng, monkeypatch):
        content, users, _vocabulary, _route = build_world(seeded_rng.fork("world"), clips=20)

        def broken(clip_id):
            raise ValidationError(f"corrupt row for {clip_id}")

        monkeypatch.setattr(content, "clip", broken)
        with pytest.raises(ValidationError):
            CandidateFilter(content, users).lookup_clip("c0003")


class TestGeoPruningParity:
    @staticmethod
    def query_bbox_pruned(scorer: RouteRelevanceScorer, clips, geo_index):
        """Pruning as it was: one ``query_bbox`` over the whole index."""
        tags = [clip_geo_tag(clip) for clip in clips]
        reach = max((tag.reach_m for tag in tags if tag is not None), default=0.0)
        box = scorer._expanded_bounds(reach)
        near = set(geo_index.query_bbox(box)) if box is not None else None
        scores = {}
        for clip, tag in zip(clips, tags):
            if tag is None:
                scores[clip.clip_id] = 0.5
            elif near is not None and clip.clip_id not in near and clip.clip_id in geo_index:
                scores[clip.clip_id] = 0.0
            else:
                scores[clip.clip_id] = scorer.tag_relevance(tag)
        return scores

    def test_candidate_side_pruning_matches_query_bbox_over_the_whole_catalogue(self, seeded_rng):
        rng = seeded_rng.fork("geo")
        content, _users, vocabulary, route = build_world(seeded_rng.fork("world"), clips=400)
        # Far-flung clips stay in the index, outside the grown probe box.
        for index in range(40):
            crng = rng.fork("far", index)
            far = random_clip(crng, f"far-{index}", vocabulary, route, published_s=NOW)
            location = destination_point(BASE, crng.uniform(0.0, 360.0), crng.uniform(2e5, 9e5))
            content.add_clip(
                dataclasses.replace(
                    far,
                    geo_location=location,
                    geo_radius_m=crng.uniform(200.0, 2000.0),
                    geo_decay_m=crng.uniform(500.0, 2000.0),
                )
            )
        geo_index = content.geo_index
        catalogue = content.clips()
        pruned_total = 0
        for trial in range(6):
            trng = rng.fork("trial", trial)
            scorer = RouteRelevanceScorer(
                current_position=route.start,
                route=route if trial % 3 else None,
                destination=route.end if trial % 2 else None,
            )
            batch = trng.sample(catalogue, 200)
            assert len(geo_index) > len(batch)
            fast = scorer.score_many(batch, geo_index=geo_index)
            assert fast == self.query_bbox_pruned(scorer, batch, geo_index)
            pruned_total += sum(
                1 for clip in batch if clip.geo_location is not None and fast[clip.clip_id] == 0.0
            )
        assert pruned_total > 0


class TestConcurrentCaches:
    def test_route_cache_and_content_memo_under_thread_contention(self, seeded_rng):
        content, users, _vocabulary, _route = build_world(seeded_rng.fork("world"), clips=120)
        content_scorer = ContentBasedScorer(content, users)
        content_scorer.fit_text_model()
        context_scorer = ContextScorer()
        # Eight contexts kilometres apart: a scorer built for another
        # context is never at distance 0 from the caller's position.
        contexts = [
            ListenerContext(
                user_id="u1",
                now_s=NOW,
                position=destination_point(BASE, 45.0 * index, 3000.0 * (index + 1)),
            )
            for index in range(8)
        ]
        catalogue = content.clips()
        batches = {
            (user_id, half): catalogue[half * 40 : half * 40 + 80]
            for user_id in USERS
            for half in (0, 1)
        }
        expected = {
            key: reference_scores(content_scorer, key[0], batch, NOW)
            for key, batch in batches.items()
        }
        failures = []
        finished = []
        rounds = 1500

        def worker(offset: int) -> None:
            for step in range(rounds):
                context = contexts[(offset + step) % len(contexts)]
                for _ in range(2):
                    scorer = context_scorer.route_scorer_for(context)
                    if scorer.min_distance_m(context.position) != 0.0:
                        failures.append(("route", offset, step))
                if step % 8 == 0:
                    # Alternating overlapping batches flip each memo between
                    # hits and misses while other threads rebuild it.
                    turn = step // 8
                    key = (USERS[(offset + turn) % len(USERS)], turn % 2)
                    if content_scorer.score_many(key[0], batches[key], now_s=NOW) != expected[key]:
                        failures.append(("content", offset, step))
            finished.append(offset)

        threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(finished) == list(range(8))
        assert failures == []
