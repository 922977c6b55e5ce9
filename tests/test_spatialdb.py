"""Tests for the tracking store and spatial query engine."""

import math
import random

import pytest

from repro.errors import NotFoundError, ValidationError
from repro.geo import BoundingBox, GeoPoint
from repro.geo.geodesy import destination_point, path_length_m
from repro.spatialdb import GpsFix, SpatialQueryEngine, TrackingStore

ORIGIN = GeoPoint(45.07, 7.68)


def make_drive_fixes(user_id: str, *, start_s: float = 0.0, count: int = 20, speed_mps: float = 10.0):
    """Fixes along a straight east-heading drive at constant speed."""
    fixes = []
    for i in range(count):
        position = destination_point(ORIGIN, 90.0, i * speed_mps * 10.0)
        fixes.append(GpsFix(user_id, start_s + i * 10.0, position, speed_mps=speed_mps))
    return fixes


class TestGpsFix:
    def test_negative_speed_rejected(self):
        with pytest.raises(ValidationError):
            GpsFix("u", 0.0, ORIGIN, speed_mps=-1.0)

    def test_zero_accuracy_rejected(self):
        with pytest.raises(ValidationError):
            GpsFix("u", 0.0, ORIGIN, accuracy_m=0.0)

    def test_empty_user_rejected(self):
        with pytest.raises(ValidationError):
            GpsFix("", 0.0, ORIGIN)


class TestTrackingStore:
    def test_add_and_count(self):
        store = TrackingStore()
        store.add_fixes(make_drive_fixes("u1", count=5))
        assert store.fix_count("u1") == 5
        assert store.fix_count() == 5
        assert store.user_ids() == ["u1"]

    def test_out_of_order_rejected(self):
        store = TrackingStore()
        store.add_fix(GpsFix("u1", 100.0, ORIGIN))
        with pytest.raises(ValidationError):
            store.add_fix(GpsFix("u1", 50.0, ORIGIN))

    def test_equal_timestamp_allowed(self):
        store = TrackingStore()
        store.add_fix(GpsFix("u1", 100.0, ORIGIN))
        store.add_fix(GpsFix("u1", 100.0, ORIGIN))
        assert store.fix_count("u1") == 2

    def test_fixes_for_time_range(self):
        store = TrackingStore()
        store.add_fixes(make_drive_fixes("u1", count=10))
        subset = store.fixes_for("u1", start_s=30.0, end_s=60.0)
        assert [fix.timestamp_s for fix in subset] == [30.0, 40.0, 50.0]

    def test_fixes_for_unknown_user(self):
        with pytest.raises(NotFoundError):
            TrackingStore().fixes_for("ghost")

    def test_latest_fix_and_position(self):
        store = TrackingStore()
        fixes = make_drive_fixes("u1", count=3)
        store.add_fixes(fixes)
        assert store.latest_fix("u1").timestamp_s == fixes[-1].timestamp_s
        assert store.latest_position("u1") == fixes[-1].position

    def test_users_within_uses_latest_position(self):
        store = TrackingStore()
        store.add_fixes(make_drive_fixes("driver", count=30))  # ends ~2.9 km east
        store.add_fix(GpsFix("parked", 0.0, ORIGIN))
        assert store.users_within(ORIGIN, 500.0) == ["parked"]
        far_point = destination_point(ORIGIN, 90.0, 2900.0)
        assert "driver" in store.users_within(far_point, 500.0)

    def test_users_in_bbox(self):
        store = TrackingStore()
        store.add_fix(GpsFix("u1", 0.0, ORIGIN))
        box = BoundingBox.around(ORIGIN, 1000.0)
        assert store.users_in_bbox(box) == ["u1"]

    def test_prune_before(self):
        store = TrackingStore()
        store.add_fixes(make_drive_fixes("u1", count=10))
        removed = store.prune_before("u1", cutoff_s=50.0)
        assert removed == 5
        assert store.fix_count("u1") == 5

    def test_prune_keeps_latest_when_all_old(self):
        store = TrackingStore()
        store.add_fixes(make_drive_fixes("u1", count=5))
        store.prune_before("u1", cutoff_s=1e9)
        assert store.fix_count("u1") == 1

    def test_clear_user(self):
        store = TrackingStore()
        store.add_fixes(make_drive_fixes("u1", count=3))
        store.clear_user("u1")
        assert store.user_ids() == []
        with pytest.raises(NotFoundError):
            store.clear_user("u1")


def linear_window(history, start_s=None, end_s=None):
    """The reference window: two passes of comparisons over the history."""
    result = list(history)
    if start_s is not None:
        result = [fix for fix in result if fix.timestamp_s >= start_s]
    if end_s is not None:
        result = [fix for fix in result if fix.timestamp_s < end_s]
    return result


def reference_speed(history, smoothing_fixes):
    """``current_speed_mps`` over the whole history, as it read before tail slices."""
    recent = history[-max(2, smoothing_fixes):]
    if len(recent) < 2:
        return recent[-1].speed_mps
    distance = path_length_m(fix.position for fix in recent)
    duration = recent[-1].timestamp_s - recent[0].timestamp_s
    if duration <= 0:
        return recent[-1].speed_mps
    return distance / duration


def random_history(rng, user_id, count):
    """A time-ordered history with ties (timestamps drawn from a small grid)."""
    stamps = sorted(
        rng.choice(range(0, 400, 10)) + rng.choice((0.0, 0.0, 2.5)) for _ in range(count)
    )
    return [
        GpsFix(
            user_id,
            float(stamp),
            destination_point(ORIGIN, rng.uniform(0.0, 360.0), rng.uniform(0.0, 3000.0)),
            speed_mps=rng.uniform(0.0, 30.0),
        )
        for stamp in stamps
    ]


class TestWindowedFixReads:
    def test_window_matches_the_linear_filter(self):
        rng = random.Random(22)
        special = [None, -math.inf, math.inf, math.nan, -1e9, 1e9, -5.0, 0.0, 405.0, 10_000.0]
        for trial in range(60):
            store = TrackingStore(shards=1 + trial % 3)
            user_id = f"u{trial}"
            history = random_history(rng, user_id, rng.choice((1, 2, 3, 8, 40)))
            store.add_fixes(history)
            stamps = [fix.timestamp_s for fix in history]
            bounds = special + [stamp + shift for stamp in stamps for shift in (0.0, 0.5, -0.5)]
            for _ in range(80):
                start_s, end_s = rng.choice(bounds), rng.choice(bounds)
                got = store.fixes_for(user_id, start_s=start_s, end_s=end_s)
                assert got == linear_window(history, start_s, end_s), (start_s, end_s)
            # Equal bounds, inverted bounds and ties at both ends.
            for stamp in stamps:
                assert store.fixes_for(user_id, start_s=stamp, end_s=stamp) == []
                assert store.fixes_for(user_id, start_s=stamp + 1.0, end_s=stamp) == []
                assert store.fixes_for(user_id, start_s=stamp) == linear_window(history, stamp)
                assert store.fixes_for(user_id, end_s=stamp) == linear_window(history, None, stamp)

    def test_nan_bounds_admit_no_fix(self):
        store = TrackingStore()
        store.add_fixes(make_drive_fixes("u1", count=10))
        assert store.fixes_for("u1", start_s=math.nan) == []
        assert store.fixes_for("u1", end_s=math.nan) == []
        assert store.fixes_for("u1", start_s=math.nan, end_s=math.nan) == []
        assert store.fixes_for("u1", start_s=0.0, end_s=math.nan) == []

    def test_window_is_a_copy(self):
        store = TrackingStore()
        store.add_fixes(make_drive_fixes("u1", count=5))
        for window in (store.fixes_for("u1"), store.fixes_for("u1", start_s=10.0, end_s=40.0)):
            window.clear()
        assert store.fix_count("u1") == 5
        tail = store.recent_fixes("u1", 2)
        tail.clear()
        assert store.fix_count("u1") == 5

    def test_current_speed_matches_the_full_history_reference(self):
        rng = random.Random(7)
        for trial in range(80):
            store = TrackingStore()
            history = random_history(rng, "u", rng.choice((1, 2, 3, 4, 9, 30)))
            store.add_fixes(history)
            engine = SpatialQueryEngine(store)
            for smoothing in (0, 1, 2, 3, 5, 50):
                expected = reference_speed(history, smoothing)
                assert engine.current_speed_mps("u", smoothing_fixes=smoothing) == expected

    def test_recent_fixes_errors(self):
        store = TrackingStore()
        with pytest.raises(NotFoundError):
            store.recent_fixes("ghost", 3)
        with pytest.raises(NotFoundError):
            SpatialQueryEngine(store).current_speed_mps("ghost")
        store.add_fixes(make_drive_fixes("u1", count=3))
        with pytest.raises(ValidationError):
            store.recent_fixes("u1", 0)
        assert store.recent_fixes("u1", 10) == store.fixes_for("u1")

    def test_restore_rejects_out_of_order_histories(self):
        store = TrackingStore()
        store.add_fixes(make_drive_fixes("u1", count=4))
        payload = store.snapshot()
        payload["users"]["u1"]["fixes"].reverse()
        with pytest.raises(ValidationError, match="out of time order"):
            TrackingStore().restore(payload)


class TestSpatialQueryEngine:
    def test_distance_travelled(self):
        store = TrackingStore()
        store.add_fixes(make_drive_fixes("u1", count=11, speed_mps=10.0))
        engine = SpatialQueryEngine(store)
        # 10 segments of ~100 m each
        assert engine.distance_travelled_m("u1") == pytest.approx(1000.0, rel=0.02)

    def test_movement_summary_moving(self):
        store = TrackingStore()
        store.add_fixes(make_drive_fixes("u1", count=11, speed_mps=10.0))
        summary = SpatialQueryEngine(store).movement_summary("u1")
        assert summary.is_moving
        assert summary.fix_count == 11
        assert summary.mean_speed_mps == pytest.approx(10.0, rel=0.05)
        assert summary.bounding_box is not None

    def test_movement_summary_window(self):
        store = TrackingStore()
        store.add_fixes(make_drive_fixes("u1", count=20, speed_mps=10.0))
        summary = SpatialQueryEngine(store).movement_summary("u1", window_s=50.0)
        assert summary.fix_count == 6

    def test_movement_summary_stationary(self):
        store = TrackingStore()
        for i in range(5):
            store.add_fix(GpsFix("u1", i * 10.0, ORIGIN))
        summary = SpatialQueryEngine(store).movement_summary("u1")
        assert not summary.is_moving

    def test_displacement_vs_distance(self):
        store = TrackingStore()
        # Out and back: distance is large, displacement is ~0.
        out = make_drive_fixes("u1", count=10, speed_mps=10.0)
        store.add_fixes(out)
        back = []
        for i, fix in enumerate(reversed(out)):
            back.append(GpsFix("u1", 100.0 + i * 10.0, fix.position, speed_mps=10.0))
        store.add_fixes(back)
        engine = SpatialQueryEngine(store)
        assert engine.displacement_m("u1", window_s=1e6) < 50.0
        assert engine.distance_travelled_m("u1") > 1500.0

    def test_current_speed(self):
        store = TrackingStore()
        store.add_fixes(make_drive_fixes("u1", count=10, speed_mps=12.0))
        engine = SpatialQueryEngine(store)
        assert engine.current_speed_mps("u1") == pytest.approx(12.0, rel=0.1)

    def test_current_speed_single_fix(self):
        store = TrackingStore()
        store.add_fix(GpsFix("u1", 0.0, ORIGIN, speed_mps=7.0))
        assert SpatialQueryEngine(store).current_speed_mps("u1") == 7.0

    def test_listeners_near(self):
        store = TrackingStore()
        store.add_fix(GpsFix("u1", 0.0, ORIGIN))
        store.add_fix(GpsFix("u2", 0.0, destination_point(ORIGIN, 0.0, 10000.0)))
        assert SpatialQueryEngine(store).listeners_near(ORIGIN, 1000.0) == ["u1"]
