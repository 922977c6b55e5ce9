"""Tests for categories, content entities and RadioDNS metadata."""

import dataclasses
import random

import pytest

from repro.content import (
    CATEGORIES,
    AudioClip,
    Bearer,
    Category,
    ContentKind,
    LiveProgramme,
    RadioService,
    ServiceIdentifier,
    ServiceInformation,
    category_by_name,
    category_names,
)
from repro.content.categories import categories_in_group, category_groups
from repro.content.radiodns import ServiceDirectory
from repro.errors import NotFoundError, ValidationError
from repro.geo import GeoPoint


class TestCategories:
    def test_exactly_thirty(self):
        assert len(CATEGORIES) == 30
        assert len(category_names()) == 30

    def test_unique_names(self):
        assert len(set(category_names())) == 30

    def test_art_to_economics_span(self):
        names = category_names()
        assert "art" in names
        assert "culture" in names
        assert "economics" in names
        assert any(name.startswith("music") for name in names)

    def test_lookup(self):
        category = category_by_name("economics")
        assert isinstance(category, Category)
        assert category.group == "news"
        with pytest.raises(NotFoundError):
            category_by_name("astrology")

    def test_groups(self):
        groups = category_groups()
        assert "culture" in groups and "news" in groups
        assert all(categories_in_group(group) for group in groups)
        with pytest.raises(NotFoundError):
            categories_in_group("nonexistent")

    def test_indices_are_positional(self):
        for index, category in enumerate(CATEGORIES):
            assert category.index == index


class TestRadioServiceAndProgramme:
    def test_service_validation(self):
        with pytest.raises(ValidationError):
            RadioService(service_id="", name="x")
        with pytest.raises(ValidationError):
            RadioService(service_id="s", name="x", bitrate_kbps=0)

    def test_programme_requires_known_categories(self):
        with pytest.raises(NotFoundError):
            LiveProgramme(
                programme_id="p1", service_id="s1", title="T", categories=["astrology"]
            )

    def test_programme_ok(self):
        programme = LiveProgramme(
            programme_id="p1", service_id="s1", title="T", categories=["economics"]
        )
        assert programme.categories == ["economics"]


class TestAudioClip:
    def make_clip(self, **overrides):
        defaults = dict(
            clip_id="c1",
            title="Test clip",
            kind=ContentKind.PODCAST,
            duration_s=300.0,
            category_scores={"economics": 0.7, "technology": 0.3},
        )
        defaults.update(overrides)
        return AudioClip(**defaults)

    def test_primary_category(self):
        assert self.make_clip().primary_category == "economics"
        assert self.make_clip(category_scores={}).primary_category is None

    def test_cached_primary_category_matches_max_reference(self):
        rng = random.Random(7)
        names = category_names()
        for index in range(300):
            picked = rng.sample(names, rng.randrange(0, 6))
            # Coarse scores so ties are common; the first listed wins a tie.
            scores = {name: rng.choice((0.0, 0.25, 0.5, 1.0)) for name in picked}
            clip = self.make_clip(clip_id=f"c{index}", category_scores=scores)
            expected = max(scores.items(), key=lambda pair: pair[1])[0] if scores else None
            assert clip.primary_category == expected
            assert clip.primary_category == expected  # the cached read
        tie = self.make_clip(category_scores={"technology": 0.5, "economics": 0.5})
        assert tie.primary_category == "technology"
        # A reclassified clip is a new instance with its own value.
        reclassified = dataclasses.replace(tie, category_scores={"sport-football": 1.0})
        assert (tie.primary_category, reclassified.primary_category) == ("technology", "sport-football")

    def test_normalized_scores_sum_to_one(self):
        scores = self.make_clip().normalized_scores()
        assert sum(scores.values()) == pytest.approx(1.0)

    def test_normalized_scores_empty(self):
        assert self.make_clip(category_scores={}).normalized_scores() == {}

    def test_validation(self):
        with pytest.raises(ValidationError):
            self.make_clip(duration_s=0.0)
        with pytest.raises(NotFoundError):
            self.make_clip(category_scores={"astrology": 1.0})
        with pytest.raises(ValidationError):
            self.make_clip(category_scores={"economics": -0.1})
        with pytest.raises(ValidationError):
            self.make_clip(geo_location=GeoPoint(45, 7), geo_radius_m=0.0)

    def test_geo_tagging(self):
        clip = self.make_clip(geo_location=GeoPoint(45, 7), geo_radius_m=1000.0)
        assert clip.is_geo_tagged
        assert not self.make_clip().is_geo_tagged

    def test_estimated_size(self):
        clip = self.make_clip(duration_s=100.0)
        assert clip.estimated_size_bytes(96) == 100 * 96 * 1000 // 8
        explicit = self.make_clip(size_bytes=12345)
        assert explicit.estimated_size_bytes() == 12345


class TestRadioDns:
    def test_fm_identifier_fqdn(self):
        identifier = ServiceIdentifier(system="fm", pi_code="5201", frequency_khz=90200)
        assert identifier.fqdn() == "90200.5201.it.fm.radiodns.org"

    def test_dab_identifier_fqdn(self):
        identifier = ServiceIdentifier(system="dab", eid="e1", sid="s1")
        assert identifier.fqdn().endswith(".dab.radiodns.org")

    def test_identifier_validation(self):
        with pytest.raises(ValidationError):
            ServiceIdentifier(system="fm")
        with pytest.raises(ValidationError):
            ServiceIdentifier(system="dab")
        with pytest.raises(ValidationError):
            ServiceIdentifier(system="am")

    def test_bearer_validation(self):
        with pytest.raises(ValidationError):
            Bearer(bearer_id="b", kind="ip")  # missing url
        with pytest.raises(ValidationError):
            Bearer(bearer_id="b", kind="satellite")
        assert Bearer(bearer_id="b", kind="dab").is_broadcast
        assert not Bearer(bearer_id="b", kind="ip", url="http://x").is_broadcast

    def make_info(self):
        info = ServiceInformation(
            service_id="radio-uno",
            name="Radio Uno",
            identifiers=[ServiceIdentifier(system="fm", pi_code="5201", frequency_khz=90200)],
        )
        info.add_bearer(Bearer(bearer_id="dab1", kind="dab", cost_rank=0))
        info.add_bearer(Bearer(bearer_id="ip1", kind="ip", cost_rank=1, url="http://x"))
        return info

    def test_preferred_bearer_prefers_broadcast(self):
        info = self.make_info()
        assert info.preferred_bearer().kind == "dab"
        assert info.preferred_bearer(broadcast_available=False).kind == "ip"

    def test_duplicate_bearer_rejected(self):
        info = self.make_info()
        with pytest.raises(ValidationError):
            info.add_bearer(Bearer(bearer_id="dab1", kind="dab"))

    def test_no_usable_bearer(self):
        info = ServiceInformation(service_id="x", name="X")
        with pytest.raises(NotFoundError):
            info.preferred_bearer()

    def test_directory_lookup(self):
        directory = ServiceDirectory()
        info = self.make_info()
        directory.register(info)
        assert directory.lookup("radio-uno") is info
        with pytest.raises(NotFoundError):
            directory.lookup("radio-ghost")
        found = directory.lookup_by_identifier(
            ServiceIdentifier(system="fm", pi_code="5201", frequency_khz=90200)
        )
        assert found.service_id == "radio-uno"
        with pytest.raises(NotFoundError):
            directory.lookup_by_identifier(
                ServiceIdentifier(system="fm", pi_code="9999", frequency_khz=88000)
            )
        assert directory.service_ids() == ["radio-uno"]
