"""Incremental per-user mobility models over a stream of completed trips.

The batch pipeline recomputes each user's whole mobility model (stay-point
DBSCAN + route clustering) from the full GPS history on every compaction
pass.  This module instead folds one completed trip at a time into a live
model:

* trip endpoints are matched to existing stay points through a
  :class:`~repro.geo.grid_index.GridIndex` ``nearest`` query (no O(n²)
  scan), updating support/dwell and the running centroid;
* endpoints matching nothing accumulate as *pending observations* in a
  second grid index, and a new stay point is spawned as soon as a density
  neighbourhood (``min_samples`` within ``eps_m``) forms around one — the
  streaming analogue of a DBSCAN core point;
* the trip joins its (origin, destination) route cluster through the
  per-user :class:`~repro.trajectory.clustering.RouteClusterIndex` (an O(1)
  dict lookup, not a linear scan), or starts a new one; joins go through
  ``RouteCluster.add_trip`` so cluster coherence stays incrementally
  maintained over the shared route-signature cache.

Incremental maintenance drifts from the batch reference (centroids move,
stay points are never merged or re-ranked online), so every user carries a
dirty-trip counter and an epoch: once ``repair_every`` trips accumulate, a
*repair* re-runs the batch miner over the user's **compact trip list**
(never the raw fixes) and resets the drift.  A repaired model is exactly
what the batch miner produces on the same trips, which the equivalence
tests assert.

Snapshots carry each retained trip as the canonical JSON text of its point
list.  Trips never change once folded in, so the text is encoded the first
time a snapshot needs it and kept, keyed by trip identity, for as long as
the trip is retained — a checkpoint re-encodes only the trips that arrived
since the last one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import TrajectoryError
from repro.geo import GeoPoint, GridIndex
from repro.geo.geodesy import haversine_m
from repro.trajectory.clustering import RouteCluster, RouteClusterIndex, cluster_trips
from repro.trajectory.model import Trajectory, TrajectoryPoint
from repro.trajectory.staypoints import StayPoint, stay_points_from_trips

#: Below this many items a direct scan beats the grid index's cell walk.
_LINEAR_SCAN_LIMIT = 12


@dataclass(frozen=True)
class IncrementalConfig:
    """Parameters of the incremental mobility miner.

    ``eps_m``, ``min_samples`` and ``assign_radius_m`` are the batch
    miner's parameters — repairs and full snapshots re-run the batch
    algorithms with these values, which is what makes them *equal* to a
    batch rebuild with the same values, not merely similar.
    ``repair_every`` bounds drift, ``max_trips_per_user`` bounds state
    (see ``docs/ARCHITECTURE.md``).
    """

    #: DBSCAN radius for stay-point formation (``stay_points_from_trips``'s
    #: ``eps_m``).
    eps_m: float = 300.0
    #: Observations within ``eps_m`` needed to spawn a stay point
    #: (mirrors ``stay_points_from_trips``'s ``min_samples``).
    min_samples: int = 2
    #: Endpoint-to-stay-point assignment radius for route clustering
    #: (mirrors ``cluster_trips``'s ``max_endpoint_distance_m``).
    assign_radius_m: float = 500.0
    #: Dirty trips tolerated before a full repair re-mines the trip list.
    repair_every: int = 32
    #: Retained trips per user: the compact model only needs the recurring
    #: recent behaviour, so older trips are dropped at repair time — this is
    #: what keeps long-running streaming state (and repair cost) bounded
    #: after the raw fixes have been pruned.
    max_trips_per_user: int = 512

    def __post_init__(self) -> None:
        if self.eps_m <= 0:
            raise TrajectoryError("eps_m must be > 0")
        if self.min_samples < 1:
            raise TrajectoryError("min_samples must be >= 1")
        if self.assign_radius_m <= 0:
            raise TrajectoryError("assign_radius_m must be > 0")
        if self.repair_every < 1:
            raise TrajectoryError("repair_every must be >= 1")
        if self.max_trips_per_user < 1:
            raise TrajectoryError("max_trips_per_user must be >= 1")


@dataclass
class _LiveStayPoint:
    """A mutable stay point whose centroid tracks its member observations."""

    stay_point_id: int
    lat_sum: float
    lon_sum: float
    support: int
    total_dwell_s: float
    label: Optional[str] = None
    #: Cached centroid, refreshed on absorb (reads vastly outnumber writes).
    center: GeoPoint = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.center is None:
            self.center = GeoPoint(self.lat_sum / self.support, self.lon_sum / self.support)

    def absorb(self, observation: GeoPoint, dwell_s: float) -> None:
        self.lat_sum += observation.lat
        self.lon_sum += observation.lon
        self.support += 1
        self.total_dwell_s += dwell_s
        self.center = GeoPoint(self.lat_sum / self.support, self.lon_sum / self.support)

    def freeze(self) -> StayPoint:
        return StayPoint(
            stay_point_id=self.stay_point_id,
            center=self.center,
            support=self.support,
            total_dwell_s=self.total_dwell_s,
            label=self.label,
        )


@dataclass(frozen=True)
class MobilitySnapshot:
    """An immutable view of one user's mobility model.

    Stay points and clusters are snapshot-grade copies: later online
    appends to the live state never leak into a handed-out snapshot.
    ``epoch`` counts repairs (0 = never repaired) and ``dirty_trips`` the
    trips folded in since the last one, so callers can judge drift: a
    snapshot with ``dirty_trips == 0`` is exactly what the batch miner
    would produce over the same trip list (see ``docs/ARCHITECTURE.md``,
    "dirty/epoch semantics").
    """

    stay_points: List[StayPoint]
    clusters: List[RouteCluster]
    trip_count: int
    epoch: int
    dirty_trips: int


@dataclass
class _UserModelState:
    trips: List[Trajectory] = field(default_factory=list)
    stay_points: Dict[int, _LiveStayPoint] = field(default_factory=dict)
    sp_index: GridIndex = field(default_factory=lambda: GridIndex(500.0))
    clusters: List[RouteCluster] = field(default_factory=list)
    #: (origin, destination) → cluster lookup kept in lockstep with
    #: ``clusters`` so per-trip resolution is O(1), not a linear scan.
    cluster_index: RouteClusterIndex = field(default_factory=RouteClusterIndex)
    pending_index: GridIndex = field(default_factory=lambda: GridIndex(500.0))
    pending_points: Dict[int, GeoPoint] = field(default_factory=dict)
    #: Which (trip index, endpoint slot) each pending observation came from,
    #: so a spawned stay point can retroactively resolve the trips whose
    #: endpoints formed it.
    pending_owners: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: Per trip: resolved [origin, destination] stay-point ids (None = open).
    trip_endpoints: List[List[Optional[int]]] = field(default_factory=list)
    #: Per trip: whether it has been attached to a route cluster.
    trip_clustered: List[bool] = field(default_factory=list)
    next_stay_point_id: int = 0
    next_observation_id: int = 0
    next_cluster_id: int = 0
    dirty_trips: int = 0
    epoch: int = 0
    #: Retained trip → its snapshot text (see :func:`_trip_text`).  Derived
    #: state: filled by snapshots, seeded by restores, trimmed with ``trips``,
    #: never snapshotted or compared.
    trip_texts: Dict[Trajectory, str] = field(default_factory=dict)


class IncrementalMobilityModel:
    """Maintains stay points and route clusters as completed trips arrive.

    Invariants (see the module docstring for the mechanism and
    ``docs/ARCHITECTURE.md`` for the surrounding flow):

    * **repair equality** — :meth:`repair` (and any snapshot taken when it
      runs) produces exactly what the batch miner yields over the user's
      compact trip list: same stay points, same clusters, same numbering
      (asserted by the equivalence tests);
    * **dirty/epoch semantics** — ``dirty_trips(user)`` counts trips folded
      in since the last repair and triggers one at ``repair_every``;
      ``epoch(user)`` increments per repair, letting callers (the server's
      snapshot cache) detect staleness with one integer compare;
    * **bounded state** — the compact trip list is capped at
      ``max_trips_per_user`` (oldest age out at repair), and cluster
      resolution is O(1) per trip through the per-user
      :class:`~repro.trajectory.clustering.RouteClusterIndex`, with
      coherence sums maintained through the shared signature cache.
    """

    def __init__(self, config: IncrementalConfig = IncrementalConfig()) -> None:
        self._config = config
        self._states: Dict[str, _UserModelState] = {}
        self._spawned_stay_points = 0
        self._repairs = 0

    @property
    def config(self) -> IncrementalConfig:
        """The miner's parameters."""
        return self._config

    @property
    def spawned_stay_points(self) -> int:
        """Stay points spawned online (across all users, since start)."""
        return self._spawned_stay_points

    @property
    def repairs(self) -> int:
        """Full-repair passes executed (across all users, since start)."""
        return self._repairs

    def user_ids(self) -> List[str]:
        """Users with a live model."""
        return sorted(self._states.keys())

    def has_user(self, user_id: str) -> bool:
        """Whether the user has a live model."""
        return user_id in self._states

    def trip_count(self, user_id: str) -> int:
        """Completed trips folded in for a user."""
        state = self._states.get(user_id)
        return len(state.trips) if state is not None else 0

    def stay_point_count(self, user_id: str) -> int:
        """Live stay points for a user (no snapshot materialization)."""
        state = self._states.get(user_id)
        return len(state.stay_points) if state is not None else 0

    def dirty_trips(self, user_id: str) -> int:
        """Trips folded in since the user's last repair."""
        state = self._states.get(user_id)
        return state.dirty_trips if state is not None else 0

    def epoch(self, user_id: str) -> int:
        """Repair epoch of the user's model (0 = never repaired)."""
        state = self._states.get(user_id)
        return state.epoch if state is not None else 0

    def needs_repair(self, user_id: str) -> bool:
        """Whether drift exceeded the configured repair cadence."""
        state = self._states.get(user_id)
        if state is None:
            return False
        return state.dirty_trips >= self._config.repair_every

    # Trip ingestion --------------------------------------------------------

    def add_trip(self, trip: Trajectory) -> Dict[str, int]:
        """Fold one completed trip into its user's model.

        Returns a small summary for observability (``spawned`` stay points,
        ``new_cluster`` flag, assigned stay-point ids where found).
        """
        state = self._states.setdefault(trip.user_id, _UserModelState())
        trip_index = len(state.trips)
        state.trips.append(trip)
        state.trip_endpoints.append([None, None])
        state.trip_clustered.append(False)
        state.dirty_trips += 1

        spawned = 0
        for slot, observation in enumerate((trip.origin, trip.destination)):
            did_spawn = self._assign_observation(state, observation, trip_index, slot)
            if did_spawn:
                spawned += 1
                self._spawned_stay_points += 1
        new_cluster = self._maybe_cluster(state, trip_index)

        origin_id, destination_id = state.trip_endpoints[trip_index]
        # Backstop for pure-ingest users nobody snapshots: once the trip list
        # overshoots the retention cap by a repair period, repair (and trim)
        # inline so state cannot grow without bound.
        config = self._config
        if len(state.trips) >= config.max_trips_per_user + config.repair_every:
            self.repair(trip.user_id)
        return {
            "spawned_stay_points": spawned,
            "new_cluster": new_cluster,
            "origin_stay_point": -1 if origin_id is None else origin_id,
            "destination_stay_point": -1 if destination_id is None else destination_id,
        }

    def _assign_observation(
        self, state: _UserModelState, observation: GeoPoint, trip_index: int, slot: int
    ) -> bool:
        """Match one endpoint to a stay point, spawning one if density forms.

        Returns whether a new stay point was spawned.
        """
        config = self._config
        hit: Optional[Tuple[int, float]] = None
        stay_points = state.stay_points
        if stay_points and len(stay_points) <= _LINEAR_SCAN_LIMIT:
            # Typical users have a handful of stay points: a direct scan
            # beats the grid walk's cell bookkeeping.
            best_id = -1
            best_distance = config.assign_radius_m
            for live in stay_points.values():
                distance = haversine_m(live.center, observation)
                if distance <= best_distance:
                    best_distance = distance
                    best_id = live.stay_point_id
            if best_id >= 0:
                hit = (best_id, best_distance)
        elif stay_points:
            hit = state.sp_index.nearest(observation, max_radius_m=config.assign_radius_m)
        if hit is not None:
            stay_point_id, distance = hit
            if distance <= config.eps_m:
                # A genuine member observation: fold it into the centroid.
                live = state.stay_points[stay_point_id]
                live.absorb(observation, 1.0)
                state.sp_index.insert(stay_point_id, live.center)
            # Within the assignment radius either way: the trip endpoint
            # resolves to this stay point for clustering purposes.
            state.trip_endpoints[trip_index][slot] = stay_point_id
            return False

        # No stay point in reach: remember the observation and check whether
        # a density neighbourhood has formed around it (grid lookup, not a
        # scan over the user's whole history).
        observation_id = state.next_observation_id
        state.next_observation_id += 1
        state.pending_points[observation_id] = observation
        state.pending_owners[observation_id] = (trip_index, slot)
        state.pending_index.insert(observation_id, observation)
        if len(state.pending_points) <= _LINEAR_SCAN_LIMIT:
            neighbours = [
                (obs_id, distance)
                for obs_id, pending in state.pending_points.items()
                if (distance := haversine_m(pending, observation)) <= config.eps_m
            ]
        else:
            neighbours = state.pending_index.query_radius(observation, config.eps_m)
        if len(neighbours) < config.min_samples:
            return False

        members = [state.pending_points[obs_id] for obs_id, _distance in neighbours]
        live = _LiveStayPoint(
            stay_point_id=state.next_stay_point_id,
            lat_sum=sum(p.lat for p in members),
            lon_sum=sum(p.lon for p in members),
            support=len(members),
            total_dwell_s=float(len(members)),
        )
        state.next_stay_point_id += 1
        state.stay_points[live.stay_point_id] = live
        state.sp_index.insert(live.stay_point_id, live.center)
        # Retroactively resolve every endpoint that formed the neighbourhood:
        # their trips may now be cluster-assignable.
        for obs_id, _distance in neighbours:
            del state.pending_points[obs_id]
            state.pending_index.remove(obs_id)
            owner_trip, owner_slot = state.pending_owners.pop(obs_id)
            state.trip_endpoints[owner_trip][owner_slot] = live.stay_point_id
            if owner_trip != trip_index:
                self._maybe_cluster(state, owner_trip)
        return True

    def _maybe_cluster(self, state: _UserModelState, trip_index: int) -> int:
        """Attach a trip to its route cluster once both endpoints resolved.

        Returns 1 when a brand-new cluster was created, else 0.
        """
        if state.trip_clustered[trip_index]:
            return 0
        origin_id, destination_id = state.trip_endpoints[trip_index]
        if origin_id is None or destination_id is None or origin_id == destination_id:
            return 0
        state.trip_clustered[trip_index] = True
        cluster = state.cluster_index.find(origin_id, destination_id)
        created = 0
        if cluster is None:
            cluster = RouteCluster(
                cluster_id=state.next_cluster_id,
                origin_stay_point=origin_id,
                destination_stay_point=destination_id,
            )
            state.next_cluster_id += 1
            state.clusters.append(cluster)
            state.cluster_index.add(cluster)
            created = 1
        # add_trip keeps the running coherence sum maintained over the
        # shared signature cache (deferred until a reader consumes it, then
        # O(members) per join), so coherence readers never pay the seed's
        # O(pairs) polyline-resampling recompute.
        cluster.add_trip(state.trips[trip_index])
        return created

    # Repair and snapshots --------------------------------------------------

    def repair(self, user_id: str) -> MobilitySnapshot:
        """Re-mine the user's compact trip list with the batch algorithms.

        Resets centroid drift and stay-point/cluster numbering to exactly
        what the batch pipeline would produce over the same trips.
        """
        state = self._states.setdefault(user_id, _UserModelState())
        if len(state.trips) > self._config.max_trips_per_user:
            # Retention: the compact model describes *recurring recent*
            # behaviour; oldest trips age out here, bounding state and
            # repair cost for long-running deployments.
            state.trips = state.trips[-self._config.max_trips_per_user :]
            state.trip_texts = {
                trip: state.trip_texts[trip]
                for trip in state.trips
                if trip in state.trip_texts
            }
        stay_points, clusters = self._mine(state.trips)
        self._install(state, state.trips, stay_points, clusters)
        state.dirty_trips = 0
        state.epoch += 1
        self._repairs += 1
        return MobilitySnapshot(
            stay_points=list(stay_points),
            clusters=self._copy_clusters(clusters),
            trip_count=len(state.trips),
            epoch=state.epoch,
            dirty_trips=0,
        )

    def full_snapshot(
        self, user_id: str, extra_trips: Optional[List[Trajectory]] = None
    ) -> Optional[MobilitySnapshot]:
        """A batch-exact model over the user's trips plus ``extra_trips``.

        Mines the combined trip list once with the batch algorithms and
        returns the result *without* persisting it — ``extra_trips`` (e.g.
        a peeked open tail) may still change, so the live state keeps only
        finalized trips and repairs on its own cadence.  Works even for a
        user whose only trips are still in the open tail.
        """
        state = self._states.get(user_id)
        finalized = state.trips if state is not None else []
        extras = list(extra_trips or [])
        if not finalized and not extras:
            return None
        stay_points, clusters = self._mine(finalized + extras)
        return MobilitySnapshot(
            stay_points=stay_points,
            clusters=clusters,
            trip_count=len(finalized) + len(extras),
            epoch=state.epoch if state is not None else 0,
            dirty_trips=state.dirty_trips if state is not None else 0,
        )

    @staticmethod
    def _copy_clusters(clusters: List[RouteCluster]) -> List[RouteCluster]:
        """Snapshot-grade copies: later online appends must not leak in.

        The copies carry the running similarity state, so coherence reads on
        a snapshot stay O(1) instead of re-accumulating the pair sums.
        """
        return [cluster.copy() for cluster in clusters]

    def _mine(self, trips: List[Trajectory]) -> Tuple[List[StayPoint], List[RouteCluster]]:
        config = self._config
        stay_points = (
            stay_points_from_trips(trips, eps_m=config.eps_m, min_samples=config.min_samples)
            if trips
            else []
        )
        clusters = (
            cluster_trips(trips, stay_points, max_endpoint_distance_m=config.assign_radius_m)
            if stay_points
            else []
        )
        return stay_points, clusters

    def _install(
        self,
        state: _UserModelState,
        trips: List[Trajectory],
        stay_points: List[StayPoint],
        clusters: List[RouteCluster],
    ) -> None:
        """Rebuild the live (mutable, indexed) state from batch-mined results."""
        config = self._config
        state.stay_points = {}
        state.sp_index = GridIndex(max(config.assign_radius_m, 250.0))
        for frozen in stay_points:
            live = _LiveStayPoint(
                stay_point_id=frozen.stay_point_id,
                lat_sum=frozen.center.lat * frozen.support,
                lon_sum=frozen.center.lon * frozen.support,
                support=frozen.support,
                total_dwell_s=frozen.total_dwell_s,
                label=frozen.label,
                center=frozen.center,
            )
            state.stay_points[live.stay_point_id] = live
            state.sp_index.insert(live.stay_point_id, frozen.center)
        state.next_stay_point_id = (
            max((sp.stay_point_id for sp in stay_points), default=-1) + 1
        )
        state.clusters = list(clusters)
        state.cluster_index = RouteClusterIndex(state.clusters)
        state.next_cluster_id = (
            max((cluster.cluster_id for cluster in clusters), default=-1) + 1
        )
        clustered_trip_ids = {
            id(trip) for cluster in clusters for trip in cluster.trips
        }
        # Endpoints the repaired model left unexplained become the new
        # pending observations (with their owning trips remembered), so
        # online spawning and retroactive clustering continue seamlessly.
        state.pending_points = {}
        state.pending_owners = {}
        state.pending_index = GridIndex(max(config.eps_m, 250.0))
        state.next_observation_id = 0
        state.trip_endpoints = []
        state.trip_clustered = []
        for trip_index, trip in enumerate(trips):
            endpoints: List[Optional[int]] = [None, None]
            for slot, observation in enumerate((trip.origin, trip.destination)):
                hit = state.sp_index.nearest(
                    observation, max_radius_m=config.assign_radius_m
                )
                if hit is not None:
                    endpoints[slot] = hit[0]
                else:
                    observation_id = state.next_observation_id
                    state.next_observation_id += 1
                    state.pending_points[observation_id] = observation
                    state.pending_owners[observation_id] = (trip_index, slot)
                    state.pending_index.insert(observation_id, observation)
            state.trip_endpoints.append(endpoints)
            state.trip_clustered.append(id(trip) in clustered_trip_ids)

    def snapshot(self, user_id: str, *, auto_repair: bool = True) -> Optional[MobilitySnapshot]:
        """The user's current model (repairing first when drift is due)."""
        state = self._states.get(user_id)
        if state is None:
            return None
        if auto_repair and state.dirty_trips >= self._config.repair_every:
            return self.repair(user_id)
        stay_points = sorted(
            (live.freeze() for live in state.stay_points.values()),
            key=lambda sp: (-sp.support, sp.stay_point_id),
        )
        return MobilitySnapshot(
            stay_points=stay_points,
            clusters=self._copy_clusters(state.clusters),
            trip_count=len(state.trips),
            epoch=state.epoch,
            dirty_trips=state.dirty_trips,
        )

    def forget_user(self, user_id: str) -> None:
        """Drop a user's model entirely."""
        self._states.pop(user_id, None)

    # Snapshot / restore ----------------------------------------------------

    def snapshot_state(self) -> Dict[str, object]:
        """The live mining state as a JSON-serializable payload.

        Exact-state capture: centroid sums (not just centroids), pending
        observations with their owning trips, cluster membership as trip
        indices, grid cell sizes, and the dirty/epoch counters — so a
        restored model answers every query identically *and* keeps evolving
        identically as further trips fold in.  Each trip is one string, the
        canonical JSON of its point list, encoded once per retained trip.
        """
        users: Dict[str, object] = {}
        for user_id, state in self._states.items():
            trip_positions = {id(trip): index for index, trip in enumerate(state.trips)}
            users[user_id] = {
                "trips": [_trip_text(state, trip) for trip in state.trips],
                "stay_points": [
                    [
                        live.stay_point_id,
                        live.lat_sum,
                        live.lon_sum,
                        live.support,
                        live.total_dwell_s,
                        live.label,
                        live.center.lat,
                        live.center.lon,
                    ]
                    for live in state.stay_points.values()
                ],
                "sp_cell_m": state.sp_index.cell_size_m,
                "clusters": [
                    [
                        cluster.cluster_id,
                        cluster.origin_stay_point,
                        cluster.destination_stay_point,
                        [trip_positions[id(trip)] for trip in cluster.trips],
                    ]
                    for cluster in state.clusters
                ],
                "pending": [
                    [
                        observation_id,
                        point.lat,
                        point.lon,
                        state.pending_owners[observation_id][0],
                        state.pending_owners[observation_id][1],
                    ]
                    for observation_id, point in state.pending_points.items()
                ],
                "pending_cell_m": state.pending_index.cell_size_m,
                "trip_endpoints": [list(pair) for pair in state.trip_endpoints],
                "trip_clustered": list(state.trip_clustered),
                "next_stay_point_id": state.next_stay_point_id,
                "next_observation_id": state.next_observation_id,
                "next_cluster_id": state.next_cluster_id,
                "dirty_trips": state.dirty_trips,
                "epoch": state.epoch,
            }
        return {"users": users}

    def restore_state(self, payload: Dict[str, object]) -> None:
        """Reload a :meth:`snapshot_state` payload, replacing live state."""
        if not isinstance(payload, dict) or not isinstance(payload.get("users"), dict):
            raise TrajectoryError("unsupported incremental-model snapshot payload")
        states: Dict[str, _UserModelState] = {}
        for user_id, raw in payload["users"].items():
            state = _UserModelState()
            for text in raw["trips"]:
                # Rebuilt in stored order, so grid iteration and cluster
                # membership match the captured model.
                trip = Trajectory(
                    user_id, [_trajectory_point(point) for point in json.loads(text)]
                )
                state.trips.append(trip)
                state.trip_texts[trip] = text
            state.sp_index = GridIndex(raw["sp_cell_m"])
            for sp_id, lat_sum, lon_sum, support, dwell_s, label, center_lat, center_lon in raw[
                "stay_points"
            ]:
                live = _LiveStayPoint(
                    stay_point_id=sp_id,
                    lat_sum=lat_sum,
                    lon_sum=lon_sum,
                    support=support,
                    total_dwell_s=dwell_s,
                    label=label,
                    center=GeoPoint(center_lat, center_lon),
                )
                state.stay_points[sp_id] = live
                state.sp_index.insert(sp_id, live.center)
            state.clusters = []
            state.cluster_index = RouteClusterIndex()
            for cluster_id, origin_id, destination_id, trip_indices in raw["clusters"]:
                cluster = RouteCluster(
                    cluster_id=cluster_id,
                    origin_stay_point=origin_id,
                    destination_stay_point=destination_id,
                    trips=[state.trips[index] for index in trip_indices],
                )
                state.clusters.append(cluster)
                state.cluster_index.add(cluster)
            state.pending_index = GridIndex(raw["pending_cell_m"])
            for observation_id, lat, lon, owner_trip, owner_slot in raw["pending"]:
                point = GeoPoint(lat, lon)
                state.pending_points[observation_id] = point
                state.pending_owners[observation_id] = (owner_trip, owner_slot)
                state.pending_index.insert(observation_id, point)
            state.trip_endpoints = [list(pair) for pair in raw["trip_endpoints"]]
            state.trip_clustered = list(raw["trip_clustered"])
            state.next_stay_point_id = raw["next_stay_point_id"]
            state.next_observation_id = raw["next_observation_id"]
            state.next_cluster_id = raw["next_cluster_id"]
            state.dirty_trips = raw["dirty_trips"]
            state.epoch = raw["epoch"]
            states[user_id] = state
        self._states = states


def _trip_text(state: _UserModelState, trip: Trajectory) -> str:
    """A retained trip's snapshot text, encoded on first use and then kept.

    The text is the canonical JSON of the point list,
    ``[[t, lat, lon, speed], ...]``.
    """
    text = state.trip_texts.get(trip)
    if text is None:
        text = json.dumps(
            [[p.timestamp_s, p.position.lat, p.position.lon, p.speed_mps] for p in trip.points],
            separators=(",", ":"),
        )
        state.trip_texts[trip] = text
    return text


def _trajectory_point(raw) -> "TrajectoryPoint":
    timestamp_s, lat, lon, speed_mps = raw
    return TrajectoryPoint(timestamp_s, GeoPoint(lat, lon), speed_mps)
