"""Integration tests: the paper's demonstration scenarios end to end.

These exercise the whole stack the way the EDBT demo would: a populated
world, the live drive, the proactive pipeline, the client playback and the
dashboard, asserting the qualitative outcomes the paper describes.
"""

import pytest

from repro.client import ControlDashboard
from repro.datasets import BroadcasterConfig, CommuterConfig, WorldConfig, build_world
from repro.delivery import SegmentSource
from repro.roadnet import CityGeneratorConfig
from repro.simulation import (
    PersonalizationStrategy,
    SimulationRunner,
    run_manual_skip_scenario,
    run_proactive_commute_scenario,
)


@pytest.fixture(scope="module")
def demo_world():
    """A dedicated world for scenario tests (mutated by the scenarios)."""
    return build_world(
        WorldConfig(
            seed=2027,
            city=CityGeneratorConfig(grid_rows=10, grid_cols=10, block_size_m=650.0, poi_count=16, seed=12),
            broadcaster=BroadcasterConfig(seed=13, clips_per_day=110),
            commuters=CommuterConfig(seed=14, commuters=10, history_days=7),
            classifier_documents_per_category=8,
            feedback_events_per_user=28,
        )
    )


class TestManualSkipScenario:
    """Paper §2.1.1 — Greg skips the football talk and reaches his favourites."""

    def test_greg_reaches_preferred_content_without_zapping(self, demo_world):
        result = run_manual_skip_scenario(demo_world, user_id=demo_world.commuters[1].user_id)
        assert len(result.skipped_programme_ids) == 2
        assert result.final_clip is not None
        assert result.final_clip_matches_taste
        assert not result.channel_changed
        assert result.timeline  # the playback timeline exists

    def test_skips_recorded_as_feedback(self, demo_world):
        user_id = demo_world.commuters[2].user_id
        before = len(demo_world.server.users.feedback.events_for_user(user_id))
        run_manual_skip_scenario(demo_world, user_id=user_id)
        after = len(demo_world.server.users.feedback.events_for_user(user_id))
        assert after > before


class TestProactiveCommuteScenario:
    """Paper §2.1.2 / Figure 4 — Lilly's proactive personalized commute."""

    def test_proactive_plan_produced_and_played(self, demo_world):
        for candidate in demo_world.commuters[:6]:
            result = run_proactive_commute_scenario(demo_world, user_id=candidate.user_id)
            if result.decision.should_recommend:
                break
        else:
            pytest.fail("proactive recommendation never triggered for any commuter")

        assert result.plan is not None
        assert result.played_clip_ids
        # The plan respects the predicted available time.
        assert result.plan.total_scheduled_s <= result.plan.available_s + 1e-6
        # ΔT prediction is in the right ballpark of the true remaining time.
        assert result.delta_t_predicted_s > 60.0
        assert result.delta_t_predicted_s < 3.0 * max(result.delta_t_actual_s, 60.0)

    def test_timeline_contains_live_clip_and_timeshift(self, demo_world):
        found_full_timeline = False
        for candidate in demo_world.commuters[:8]:
            result = run_proactive_commute_scenario(demo_world, user_id=candidate.user_id)
            if not result.decision.should_recommend:
                continue
            sources = [line.split("  ")[1].split()[0] for line in result.timeline]
            if "LIVE" in sources and "CLIP" in sources:
                found_full_timeline = True
                # After playing clips the listener is behind live (time-shift offset).
                assert result.time_shift_offset_s > 0.0
                break
        assert found_full_timeline

    def test_recommendations_without_explicit_action(self, demo_world):
        """Proactivity: content is chosen with no skip/like from the user today."""
        commuter = demo_world.commuters[5]
        user_id = commuter.user_id
        feedback_before = len(demo_world.server.users.feedback.events_for_user(user_id))
        decision_events = []
        demo_world.server.bus.subscribe("recommendation.decision", decision_events.append)
        result = run_proactive_commute_scenario(demo_world, user_id=user_id)
        if result.decision.should_recommend:
            assert result.played_clip_ids
        # The decision itself never required explicit feedback during the drive
        # (only playback-completion events may have been added afterwards).
        assert decision_events


class TestStrategyComparisonShape:
    """The paper's headline claim: personalization reduces skips and zapping."""

    def test_pphcr_beats_linear_on_skip_rate(self, demo_world):
        runner = SimulationRunner(demo_world, seed=17)
        comparison = runner.compare_strategies(
            [
                PersonalizationStrategy.LINEAR_ONLY,
                PersonalizationStrategy.CONTENT_ONLY,
                PersonalizationStrategy.PPHCR,
            ],
            max_users=10,
        )
        linear_skip = comparison.mean_skip_rate("linear_only")
        pphcr_skip = comparison.mean_skip_rate("pphcr")
        assert pphcr_skip <= linear_skip + 0.05
        # Enjoyment moves the other way.
        assert comparison.mean_enjoyment("pphcr") >= comparison.mean_enjoyment("linear_only") - 0.05

    def test_channel_changes_only_happen_on_linear(self, demo_world):
        runner = SimulationRunner(demo_world, seed=19)
        comparison = runner.compare_strategies(
            [PersonalizationStrategy.LINEAR_ONLY, PersonalizationStrategy.CONTENT_ONLY],
            max_users=8,
        )
        assert comparison.mean_channel_change_rate("content_only") == 0.0


class TestDashboardIntegration:
    def test_dashboard_reflects_scenario_activity(self, demo_world):
        server = demo_world.server
        dashboard = ControlDashboard(server.users, server.content, editorial=server.editorial)
        user_id = demo_world.commuters[0].user_id
        report = dashboard.trajectory_report(user_id)
        assert report.trip_count >= 4
        assert report.recurring_routes >= 1
        overview = dashboard.overview()
        assert overview["feedback_events"] > 0
        assert overview["plans"] == 0  # plans are recorded explicitly by callers
