"""The web control dashboard, reproduced as report builders.

During the demonstration the dashboard "visualizes the user's past
trajectories, content preference, and the details of the recommendation
process" (Figure 5) and "allows manual injection of recommendations"
(Figure 6).  The reproduction renders the same information as structured
report objects plus plain-text views the benches print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.client.editorial import EditorialDesk
from repro.content.repository import ContentRepository
from repro.errors import NotFoundError
from repro.geo import BoundingBox
from repro.recommender.scheduling import RecommendationPlan
from repro.spatialdb import SpatialQueryEngine
from repro.trajectory import (
    Trajectory,
    cluster_trips,
    detect_stay_points,
    split_into_trips,
)
from repro.trajectory.staypoints import StayPoint
from repro.users.management import UserManager
from repro.util.timeutils import format_clock


@dataclass(frozen=True)
class TrajectoryReport:
    """What the dashboard map (Figure 5) shows for one listener."""

    user_id: str
    fix_count: int
    trip_count: int
    stay_points: List[StayPoint]
    bounding_box: Optional[BoundingBox]
    total_distance_km: float
    recurring_routes: int

    def summary_lines(self) -> List[str]:
        """Plain-text rendering of the map summary."""
        lines = [
            f"listener {self.user_id}: {self.fix_count} GPS fixes, "
            f"{self.trip_count} trips, {self.total_distance_km:.1f} km travelled",
            f"  recurring routes: {self.recurring_routes}",
        ]
        for stay_point in self.stay_points[:5]:
            lines.append(
                f"  stay point #{stay_point.stay_point_id} at {stay_point.center} "
                f"(support {stay_point.support})"
            )
        return lines


@dataclass(frozen=True)
class RecommendationReport:
    """What the dashboard recommendation panel (Figure 6) shows."""

    user_id: str
    generated_s: float
    rows: List[Dict[str, object]] = field(default_factory=list)

    def summary_lines(self) -> List[str]:
        """Plain-text rendering of the recommendation list."""
        lines = [f"recommendations for {self.user_id} at {format_clock(self.generated_s)}:"]
        for row in self.rows:
            lines.append(
                f"  [{row['rank']}] {row['title']} "
                f"(score {row['score']:.2f}, {row['duration_s']:.0f}s, {row['reason']})"
            )
        return lines


class ControlDashboard:
    """Read-only analytics over the server state, plus editorial controls."""

    def __init__(
        self,
        users: UserManager,
        content: ContentRepository,
        *,
        editorial: Optional[EditorialDesk] = None,
    ) -> None:
        self._users = users
        self._content = content
        self._editorial = editorial or EditorialDesk()
        self._plans: Dict[str, List[RecommendationPlan]] = {}

    @property
    def editorial(self) -> EditorialDesk:
        """The editorial injection desk."""
        return self._editorial

    def record_plan(self, plan: RecommendationPlan) -> None:
        """Store a produced recommendation plan for later inspection."""
        self._plans.setdefault(plan.user_id, []).append(plan)

    def plans_for(self, user_id: str) -> List[RecommendationPlan]:
        """Every stored plan for a user."""
        return list(self._plans.get(user_id, []))

    def trajectory_report(self, user_id: str) -> TrajectoryReport:
        """Build the Figure-5 style movement report for one listener."""
        tracking = self._users.tracking
        fixes = tracking.fixes_for(user_id)
        if not fixes:
            raise NotFoundError(f"no tracking data for user {user_id!r}")
        trajectory = Trajectory.from_fixes(user_id, fixes)
        trips = split_into_trips(trajectory)
        endpoints = []
        for trip in trips:
            endpoints.append(trip.origin)
            endpoints.append(trip.destination)
        stay_points = (
            detect_stay_points(endpoints, eps_m=250.0, min_samples=2) if endpoints else []
        )
        clusters = cluster_trips(trips, stay_points) if stay_points else []
        engine = SpatialQueryEngine(tracking)
        summary = engine.movement_summary(user_id)
        return TrajectoryReport(
            user_id=user_id,
            fix_count=len(fixes),
            trip_count=len(trips),
            stay_points=stay_points,
            bounding_box=summary.bounding_box,
            total_distance_km=summary.distance_m / 1000.0,
            recurring_routes=sum(1 for cluster in clusters if cluster.support >= 2),
        )

    def recommendation_report(self, user_id: str) -> RecommendationReport:
        """Build the Figure-6 style recommendation list for one listener."""
        plans = self._plans.get(user_id, [])
        if not plans:
            raise NotFoundError(f"no recommendation plan recorded for user {user_id!r}")
        plan = plans[-1]
        rows: List[Dict[str, object]] = []
        for rank, item in enumerate(plan.items, start=1):
            rows.append(
                {
                    "rank": rank,
                    "clip_id": item.clip_id,
                    "title": item.scored.clip.title,
                    "score": item.scored.final_score,
                    "duration_s": item.scored.clip.duration_s,
                    "reason": item.reason,
                    "start": format_clock(item.start_s),
                }
            )
        return RecommendationReport(user_id=user_id, generated_s=plan.created_s, rows=rows)

    def preference_report(self, user_id: str) -> List[str]:
        """Plain-text view of a listener's learned content preferences."""
        profile = self._users.preference_profile(user_id)
        lines = [f"content preferences for {user_id} ({profile.observation_count} observations):"]
        for name, score in profile.top_categories(8):
            lines.append(f"  + {name}: {score:+.2f}")
        for name in profile.disliked_categories()[:5]:
            lines.append(f"  - {name}: {profile.score(name):+.2f}")
        return lines

    def overview(self) -> Dict[str, int]:
        """System-wide counters shown on the dashboard landing page."""
        return {
            "users": self._users.user_count(),
            "clips": self._content.clip_count(),
            "services": len(self._content.services()),
            "feedback_events": len(self._users.feedback),
            "tracked_users": len(self._users.tracking.user_ids()),
            "plans": sum(len(plans) for plans in self._plans.values()),
            "editorial_injections": len(self._editorial.all_injections()),
        }

    def storage_report(self) -> List[Dict[str, object]]:
        """Per-database storage-engine statistics (Figure-5 ops panel).

        One entry per backing database — metadata, profiles, feedbacks,
        tracking — with row counts, write counters and the index-hit/scan
        split.  Shard-partitioned databases report their
        counters *merged* across shards in the same
        :meth:`Database.stats() <repro.storage.database.Database.stats>`
        shape, plus a ``"shards"`` list with each shard's own stats so the
        panel can show per-shard skew (see :meth:`ShardedDatabase.stats
        <repro.storage.sharding.ShardedDatabase.stats>`).
        """
        databases = [
            self._content.database,
            self._users.profiles_database,
            self._users.feedback.database,
            self._users.tracking.database,
        ]
        return [database.stats() for database in databases]

    def ops_report(self, *, telemetry=None) -> OpsReport:
        """The operations panel: storage and telemetry counters.

        ``telemetry`` is the server's :class:`~repro.obs.telemetry.Telemetry`
        bundle — when given (and enabled), the report also carries the
        metrics registry's snapshot (API-gateway request counts included)
        and the slow-query log, the same payloads ``GET /v1/ops/metrics`` /
        ``/v1/ops/traces`` expose; without it the report covers storage only.
        """
        metrics = None
        slow_queries = None
        if telemetry is not None and telemetry.enabled:
            metrics = telemetry.metrics_snapshot()
            slow_queries = telemetry.slow_queries.entries()
        return OpsReport(
            storage=self.storage_report(), metrics=metrics, slow_queries=slow_queries
        )


@dataclass(frozen=True)
class OpsReport:
    """Storage-engine plus telemetry counters for the ops panel."""

    storage: List[Dict[str, object]]
    #: The metrics registry's :meth:`snapshot` payload (None when the
    #: report was built without telemetry or with it disabled).
    metrics: Optional[Dict[str, object]] = None
    #: The slow-query log, newest first (None without telemetry).
    slow_queries: Optional[List[Dict[str, object]]] = None

    def summary_lines(self) -> List[str]:
        """Plain-text rendering of the ops panel."""
        lines = ["storage engines:"]
        for stats in self.storage:
            shards = stats.get("shards")
            suffix = f" across {len(shards)} shards" if shards else ""
            lines.append(
                f"  {stats['database']}: {stats['total_rows']} rows, "
                f"{stats['index_hits']} index hits, {stats['scans']} scans{suffix}"
            )
            for table_name, table_stats in sorted(stats["tables"].items()):
                lines.append(
                    f"    {table_name}: {table_stats['rows']} rows "
                    f"(v{table_stats['version']}, {table_stats['indexes']} indexes, "
                    f"+{table_stats['inserts']}/~{table_stats['updates']}"
                    f"/-{table_stats['deletes']})"
                )
            if shards:
                for shard_stats in shards:
                    lines.append(
                        f"    shard {shard_stats['database']}: "
                        f"{shard_stats['total_rows']} rows, "
                        f"{shard_stats['index_hits']} index hits, "
                        f"{shard_stats['scans']} scans"
                    )
        if self.metrics is not None:
            counters = self.metrics.get("counters", {})
            requests = counters.get("api_requests_total", {}).get("series", [])
            if requests:
                by_class: Dict[str, int] = {}
                for entry in requests:
                    status_class = entry["labels"].get("status_class", "?")
                    by_class[status_class] = by_class.get(status_class, 0) + int(entry["value"])
                lines.append(f"api gateway: {sum(by_class.values())} requests")
                for status_class in sorted(by_class):
                    lines.append(f"  {status_class}: {by_class[status_class]}")
            histograms = self.metrics.get("histograms", {})
            latency = histograms.get("api_request_seconds", {})
            series = latency.get("series", [])
            if series:
                lines.append("route latency (p50/p95/p99 ms):")
                for entry in sorted(series, key=lambda s: s["labels"].get("route", "")):
                    lines.append(
                        f"  {entry['labels'].get('route', '?')}: "
                        f"{entry['p50'] * 1000:.2f}/{entry['p95'] * 1000:.2f}"
                        f"/{entry['p99'] * 1000:.2f} ({entry['count']} requests)"
                    )
            dead = counters.get("bus_dead_letters_total", {})
            total_dead = sum(entry["value"] for entry in dead.get("series", []))
            if total_dead:
                lines.append(f"bus dead letters: {total_dead}")
            appends = counters.get("wal_appends_total", {}).get("series", [])
            if appends:
                total_appends = sum(entry["value"] for entry in appends)
                wal_bytes = sum(
                    entry["value"]
                    for entry in counters.get("wal_bytes_total", {}).get("series", [])
                )
                lines.append(
                    f"write-ahead log: {total_appends} frames, {wal_bytes} bytes"
                )
                for entry in sorted(appends, key=lambda s: s["labels"].get("shard", "")):
                    lines.append(
                        f"  {entry['labels'].get('shard', '?')}: {entry['value']} frames"
                    )
                compactions = sum(
                    entry["value"]
                    for entry in counters.get("wal_compactions_total", {}).get("series", [])
                )
                if compactions:
                    reclaimed = sum(
                        entry["value"]
                        for entry in counters.get(
                            "wal_compaction_reclaimed_bytes_total", {}
                        ).get("series", [])
                    )
                    lines.append(
                        f"  compactions: {compactions} ({reclaimed} bytes reclaimed)"
                    )
            gauges = self.metrics.get("gauges", {})
            lag = gauges.get("replica_lag_frames", {}).get("series", [])
            if lag:
                for entry in lag:
                    lines.append(f"replica lag: {entry['value']} frames")
        if self.slow_queries:
            lines.append(f"slow queries: {len(self.slow_queries)}")
            for entry in self.slow_queries[:5]:
                plan = entry.get("plan", {})
                lines.append(
                    f"  {entry['database']}.{entry.get('table', '?')} "
                    f"[{plan.get('strategy', '?')}] {entry['elapsed_ms']:.1f} ms, "
                    f"{entry['rows']} rows (shard {entry.get('shard')})"
                )
        return lines
