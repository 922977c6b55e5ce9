"""Tests for the linear schedule, content repository and geographic relevance."""

import pytest

from repro.content import (
    AudioClip,
    ContentKind,
    ContentRepository,
    GeoTag,
    LinearSchedule,
    LiveProgramme,
    RadioService,
    geographic_relevance,
)
from repro.content.geo_relevance import best_route_point, distance_along_route_to_point
from repro.errors import DuplicateError, NotFoundError, ValidationError
from repro.geo import GeoPoint, Polyline
from repro.geo.geodesy import destination_point
from repro.util.timeutils import TimeWindow, parse_clock

TORINO = GeoPoint(45.0703, 7.6869)


def make_programme(programme_id, service_id="radio-uno", categories=None):
    return LiveProgramme(
        programme_id=programme_id,
        service_id=service_id,
        title=programme_id.title(),
        categories=categories or ["news-national"],
    )


class TestLinearSchedule:
    def build(self):
        schedule = LinearSchedule("radio-uno")
        schedule.add(make_programme("morning-news"), TimeWindow(parse_clock("07:00"), parse_clock("08:00")))
        schedule.add(make_programme("talk"), TimeWindow(parse_clock("08:00"), parse_clock("09:30")))
        schedule.add(make_programme("music"), TimeWindow(parse_clock("10:00"), parse_clock("11:00")))
        return schedule

    def test_programme_at(self):
        schedule = self.build()
        assert schedule.programme_at(parse_clock("07:30")).programme_id == "morning-news"
        assert schedule.programme_at(parse_clock("09:45")) is None
        assert schedule.programme_at(parse_clock("06:00")) is None

    def test_entries_sorted(self):
        schedule = LinearSchedule("radio-uno")
        schedule.add(make_programme("later"), TimeWindow(200.0, 300.0))
        schedule.add(make_programme("earlier"), TimeWindow(0.0, 100.0))
        assert [entry.programme_id for entry in schedule.entries()] == ["earlier", "later"]

    def test_overlap_rejected(self):
        schedule = self.build()
        with pytest.raises(ValidationError):
            schedule.add(make_programme("overlap"), TimeWindow(parse_clock("07:30"), parse_clock("08:30")))

    def test_wrong_service_rejected(self):
        schedule = LinearSchedule("radio-due")
        with pytest.raises(ValidationError):
            schedule.add(make_programme("x", service_id="radio-uno"), TimeWindow(0, 10))

    def test_next_boundary(self):
        schedule = self.build()
        assert schedule.next_boundary_after(parse_clock("07:30")) == parse_clock("08:00")
        assert schedule.next_boundary_after(parse_clock("12:00")) is None

    def test_entries_between(self):
        schedule = self.build()
        entries = schedule.entries_between(parse_clock("07:30"), parse_clock("10:30"))
        assert [entry.programme_id for entry in entries] == ["morning-news", "talk", "music"]

    def test_remaining_in_current(self):
        schedule = self.build()
        assert schedule.remaining_in_current(parse_clock("07:45")) == pytest.approx(900.0)
        assert schedule.remaining_in_current(parse_clock("09:45")) == 0.0

    def test_find(self):
        schedule = self.build()
        assert schedule.find("talk").duration_s == pytest.approx(5400.0)
        with pytest.raises(NotFoundError):
            schedule.find("ghost")

    def test_coverage_window(self):
        schedule = self.build()
        coverage = schedule.coverage_window()
        assert coverage.start_s == parse_clock("07:00")
        assert coverage.end_s == parse_clock("11:00")
        assert LinearSchedule("x").coverage_window() is None


class TestContentRepository:
    def build(self):
        repo = ContentRepository()
        repo.add_service(RadioService(service_id="radio-uno", name="Radio Uno"))
        repo.add_programme(make_programme("morning-news"))
        repo.schedule_programme("morning-news", TimeWindow(parse_clock("07:00"), parse_clock("08:00")))
        for i, category in enumerate(["economics", "technology", "comedy"]):
            repo.add_clip(
                AudioClip(
                    clip_id=f"clip-{i}",
                    title=f"Clip {i}",
                    kind=ContentKind.PODCAST if i else ContentKind.NEWS,
                    duration_s=200.0 + i * 100.0,
                    category_scores={category: 1.0},
                    published_s=float(i * 1000),
                )
            )
        return repo

    def test_service_lookup_and_duplicates(self):
        repo = self.build()
        assert repo.service("radio-uno").name == "Radio Uno"
        with pytest.raises(DuplicateError):
            repo.add_service(RadioService(service_id="radio-uno", name="Again"))
        with pytest.raises(NotFoundError):
            repo.service("ghost")

    def test_programme_requires_service(self):
        repo = ContentRepository()
        with pytest.raises(NotFoundError):
            repo.add_programme(make_programme("p", service_id="ghost"))

    def test_schedule_integration(self):
        repo = self.build()
        schedule = repo.schedule("radio-uno")
        assert schedule.programme_at(parse_clock("07:30")).programme_id == "morning-news"

    def test_clip_lookup_and_duplicates(self):
        repo = self.build()
        assert repo.clip_count() == 3
        assert repo.clip("clip-0").kind == ContentKind.NEWS
        with pytest.raises(DuplicateError):
            repo.add_clip(repo.clip("clip-0"))
        with pytest.raises(NotFoundError):
            repo.clip("ghost")

    def test_clips_by_kind_and_category(self):
        repo = self.build()
        assert len(repo.clips_by_kind(ContentKind.PODCAST)) == 2
        assert [clip.clip_id for clip in repo.clips_by_category("economics")] == ["clip-0"]

    def test_clips_published_after(self):
        repo = self.build()
        recent = repo.clips_published_after(500.0)
        assert {clip.clip_id for clip in recent} == {"clip-1", "clip-2"}
        # Ordered by recency, newest first.
        assert recent[0].clip_id == "clip-2"

    def test_replace_clip_updates_index(self):
        repo = self.build()
        original = repo.clip("clip-0")
        updated = AudioClip(
            clip_id="clip-0",
            title=original.title,
            kind=original.kind,
            duration_s=original.duration_s,
            category_scores={"comedy": 1.0},
            published_s=original.published_s,
        )
        repo.replace_clip(updated)
        assert [c.clip_id for c in repo.clips_by_category("economics")] == []
        assert "clip-0" in [c.clip_id for c in repo.clips_by_category("comedy")]
        with pytest.raises(NotFoundError):
            repo.replace_clip(AudioClip(clip_id="ghost", title="g", kind=ContentKind.NEWS, duration_s=10.0))

    def test_geo_tagged_clips(self):
        repo = self.build()
        repo.add_clip(
            AudioClip(
                clip_id="geo-1",
                title="Local",
                kind=ContentKind.NEWS,
                duration_s=120.0,
                geo_location=TORINO,
                geo_radius_m=1000.0,
            )
        )
        assert [clip.clip_id for clip in repo.geo_tagged_clips()] == ["geo-1"]


class TestGeoRelevance:
    def geo_clip(self, location, radius=1000.0):
        return AudioClip(
            clip_id="geo",
            title="Local news",
            kind=ContentKind.NEWS,
            duration_s=120.0,
            geo_location=location,
            geo_radius_m=radius,
        )

    def test_geotag_validation(self):
        with pytest.raises(ValidationError):
            GeoTag(TORINO, radius_m=0.0)
        with pytest.raises(ValidationError):
            GeoTag(TORINO, decay_m=0.0)

    def test_relevance_inside_radius_is_one(self):
        tag = GeoTag(TORINO, radius_m=1000.0)
        assert tag.relevance_at(destination_point(TORINO, 0.0, 500.0)) == 1.0

    def test_relevance_decays_outside(self):
        tag = GeoTag(TORINO, radius_m=1000.0, decay_m=2000.0)
        near = tag.relevance_at(destination_point(TORINO, 0.0, 2000.0))
        far = tag.relevance_at(destination_point(TORINO, 0.0, 10000.0))
        assert 0.0 < far < near < 1.0

    def test_untagged_clip_is_neutral(self):
        clip = AudioClip(clip_id="c", title="t", kind=ContentKind.PODCAST, duration_s=60.0)
        assert geographic_relevance(clip, current_position=TORINO) == 0.5

    def test_relevance_uses_route(self):
        target = destination_point(TORINO, 90.0, 5000.0)
        clip = self.geo_clip(target)
        route = Polyline([TORINO, destination_point(TORINO, 90.0, 10000.0)])
        assert geographic_relevance(clip, route=route) == pytest.approx(1.0)
        # Without the route the listener's position alone is far away.
        assert geographic_relevance(clip, current_position=TORINO) < 0.5

    def test_relevance_uses_destination(self):
        destination = destination_point(TORINO, 45.0, 8000.0)
        clip = self.geo_clip(destination)
        assert geographic_relevance(clip, destination=destination) == 1.0

    def test_best_route_point_near_tag(self):
        target = destination_point(TORINO, 90.0, 4000.0)
        clip = self.geo_clip(target)
        route = Polyline([TORINO, destination_point(TORINO, 90.0, 8000.0)])
        best = best_route_point(clip, route)
        assert best is not None
        assert best.distance_m(target) < 500.0

    def test_best_route_point_untagged_none(self):
        clip = AudioClip(clip_id="c", title="t", kind=ContentKind.PODCAST, duration_s=60.0)
        route = Polyline([TORINO, destination_point(TORINO, 90.0, 1000.0)])
        assert best_route_point(clip, route) is None

    def test_distance_along_route_to_point(self):
        route = Polyline([TORINO, destination_point(TORINO, 90.0, 10000.0)])
        target = destination_point(TORINO, 90.0, 2500.0)
        arc = distance_along_route_to_point(route, target)
        assert arc == pytest.approx(2500.0, abs=300.0)
