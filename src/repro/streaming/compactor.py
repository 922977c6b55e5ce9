"""Sharded, budgeted compaction over the tracking store.

The seed ``compact_tracking_data`` visited *every* tracked user on *every*
pass and re-mined each one's full raw history — O(users × history²) per
tick.  The compactor turns the pass into incremental maintenance:

* **dirty tracking** — the tracking store counts fixes ever added per user;
  the compactor remembers the count at its last visit and skips users whose
  counter has not moved (they are reported as *unchanged*, not re-mined);
* **sharding** — a pass can walk one of the tracking store's shards, so a
  deployment can run one shard per tick (or per worker) and still cover the
  whole population round-robin;
* **budgeting** — an optional per-pass cap on visited users; users over
  budget stay dirty and are reported as *deferred* for the next pass.

Model refresh itself is delegated to a callback; the server routes it to
the streaming engine (an O(trips) re-mine of the compact trip list).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import PipelineError
from repro.spatialdb.tracking_store import TrackingStore
from repro.storage.sharding import ShardWorkerPool


@dataclass(frozen=True)
class CompactionConfig:
    """Parameters of the compaction scheduler.

    The shard layout is the tracking store's (``ShardingConfig.shards`` on
    a server), not a setting of its own.  ``keep_window_s`` is how much raw
    history survives a visit, relative to each user's latest fix (the
    streaming models, not the raw fixes, are the durable record — see
    ``docs/ARCHITECTURE.md``).
    """

    max_users_per_pass: Optional[int] = None
    keep_window_s: float = 14 * 86400.0

    def __post_init__(self) -> None:
        if self.max_users_per_pass is not None and self.max_users_per_pass < 1:
            raise PipelineError("max_users_per_pass must be >= 1 when set")
        if self.keep_window_s <= 0:
            raise PipelineError("keep_window_s must be > 0")


@dataclass
class CompactionReport:
    """Outcome of one compaction pass.

    ``visited_users`` + ``unchanged_users`` + ``deferred_users`` accounts
    for every user considered (in the selected shard): visited users were
    re-mined and pruned, unchanged users had no new fixes (only a cheap
    window check), deferred users stayed dirty because the pass budget ran
    out and will be picked up by a later pass.

    ``shard_elapsed_s`` is the wall-time breakdown per shard — the time
    spent considering that shard's users, whether the pass ran serially
    (attributed via :meth:`TrackingStore.shard_of`) or in parallel
    (each worker times its own shard).  It is the report's only
    *timing* field: serial and parallel passes over the same state agree
    on every other field exactly, while the timings naturally differ.
    """

    removed: Dict[str, int] = field(default_factory=dict)
    visited_users: List[str] = field(default_factory=list)
    unchanged_users: int = 0
    deferred_users: int = 0
    skipped_users: int = 0  # visited but lacking enough data for a model
    shard: Optional[int] = None
    shard_elapsed_s: Dict[int, float] = field(default_factory=dict)

    @property
    def fixes_removed(self) -> int:
        """Total raw fixes pruned in the pass."""
        return sum(self.removed.values())


class ShardedCompactor:
    """Schedules incremental compaction passes over dirty users only.

    Invariants (see ``docs/ARCHITECTURE.md`` for the surrounding flow):

    * **shard stability** — shards are the tracking store's partitions
      (:func:`repro.storage.sharding.shard_of`, crc32 rather than Python's
      salted ``hash``), so a user maps to the same shard across processes
      and restarts; running shards round-robin therefore covers the whole
      population;
    * **dirty tracking** — a user is dirty iff their
      ``TrackingStore.fixes_added`` counter moved since the compactor's
      last visit; the counter is recorded *before* the refresh callback
      runs, so fixes racing in during a visit leave the user dirty for the
      next pass (work is never lost, at worst repeated);
    * **budget honesty** — users skipped over budget are reported as
      deferred, never silently dropped, and remain dirty.
    """

    def __init__(
        self,
        tracking: TrackingStore,
        refresh_model: Callable[[str], bool],
        *,
        config: CompactionConfig = CompactionConfig(),
    ) -> None:
        self._tracking = tracking
        self._refresh_model = refresh_model
        self._config = config
        self._seen_counts: Dict[str, int] = {}

    @property
    def config(self) -> CompactionConfig:
        """The scheduler's parameters."""
        return self._config

    def is_dirty(self, user_id: str) -> bool:
        """Whether the user has fixes the compactor has not yet visited."""
        return self._tracking.fixes_added(user_id) != self._seen_counts.get(user_id)

    def dirty_users(self, *, shard: Optional[int] = None) -> List[str]:
        """Dirty users, optionally restricted to one shard."""
        users = []
        for user_id in self._users_in(shard):
            if self.is_dirty(user_id):
                users.append(user_id)
        return users

    def _users_in(self, shard: Optional[int]) -> List[str]:
        """The tracked users a pass over ``shard`` must consider, sorted.

        A single-shard pass reads the owning partition directly, so the
        per-shard walk is O(shard), not O(users).
        """
        if shard is None:
            return self._tracking.user_ids()
        return self._tracking.user_ids_for_shard(shard)

    def run_pass(
        self,
        *,
        keep_window_s: Optional[float] = None,
        shard: Optional[int] = None,
        budget: Optional[int] = None,
        parallel: bool = False,
        pool: Optional[ShardWorkerPool] = None,
    ) -> CompactionReport:
        """Visit dirty users (in one shard, up to a budget) and compact them.

        Each visited user gets a refreshed mobility model (via the injected
        callback) and their raw fixes older than ``keep_window_s`` relative
        to their latest fix pruned.  Clean users are counted, not touched.

        With ``parallel=True`` (and no ``shard`` restriction) the pass
        covers *all* shards at once: each dirty shard runs as its own
        single-shard pass on a worker thread (``pool``'s, or a transient
        pool), while shards with no dirty users run inline on the caller —
        they only count unchanged users and apply window pruning, which is
        too cheap to ship to a worker.  Shard passes touch disjoint users,
        models and ``_seen_counts`` keys, so each worker is the single
        writer of its shard; the merged report is the same accounting a
        serial full pass produces (``budget`` then applies per shard, and
        ``visited_users`` orders by shard rather than globally).
        """
        window = self._config.keep_window_s if keep_window_s is None else keep_window_s
        if window <= 0:
            raise PipelineError("keep_window_s must be > 0")
        shards = self._tracking.shard_count
        if shard is not None and not 0 <= shard < shards:
            raise PipelineError(f"shard must be in [0, {shards}), got {shard}")
        cap = self._config.max_users_per_pass if budget is None else budget
        if cap is not None and cap < 1:
            raise PipelineError("budget must be >= 1 when set")
        if parallel and shard is None and shards > 1:
            return self._run_parallel(window, cap, pool)

        report = CompactionReport(shard=shard)
        for user_id in self._users_in(shard):
            user_shard = shard if shard is not None else self._tracking.shard_of(user_id)
            started = time.perf_counter()
            try:
                if not self.is_dirty(user_id):
                    report.unchanged_users += 1
                    # A clean user needs no re-mining, but a *tightened* window
                    # must still prune: check the cheap O(1) bound first.
                    latest = self._tracking.latest_fix(user_id).timestamp_s
                    cutoff = latest - window
                    if self._tracking.earliest_fix(user_id).timestamp_s < cutoff:
                        report.removed[user_id] = self._tracking.prune_before(
                            user_id, cutoff
                        )
                    continue
                if cap is not None and len(report.visited_users) >= cap:
                    report.deferred_users += 1
                    continue
                report.visited_users.append(user_id)
                # Record the counter before refreshing so fixes racing in during
                # the visit leave the user dirty for the next pass.
                self._seen_counts[user_id] = self._tracking.fixes_added(user_id)
                if not self._refresh_model(user_id):
                    report.skipped_users += 1
                    continue
                latest = self._tracking.latest_fix(user_id).timestamp_s
                report.removed[user_id] = self._tracking.prune_before(
                    user_id, latest - window
                )
            finally:
                report.shard_elapsed_s[user_shard] = report.shard_elapsed_s.get(
                    user_shard, 0.0
                ) + (time.perf_counter() - started)
        return report

    def _run_parallel(
        self, window: float, cap: Optional[int], pool: Optional[ShardWorkerPool]
    ) -> CompactionReport:
        """All shards in one pass: dirty shards on workers, clean inline."""
        shards = self._tracking.shard_count
        dirty_shards = {
            shard for shard in range(shards) if self.dirty_users(shard=shard)
        }
        reports: Dict[int, CompactionReport] = {}
        if dirty_shards:
            own_pool = pool is None or pool.shard_count < shards
            workers = ShardWorkerPool(shards) if own_pool else pool
            try:
                reports = workers.map_shards(
                    {
                        shard: (
                            lambda shard=shard: self.run_pass(
                                keep_window_s=window, shard=shard, budget=cap
                            )
                        )
                        for shard in sorted(dirty_shards)
                    }
                )
            finally:
                if own_pool:
                    workers.shutdown()
        for shard in range(shards):
            if shard not in reports:
                reports[shard] = self.run_pass(
                    keep_window_s=window, shard=shard, budget=cap
                )
        merged = CompactionReport(shard=None)
        for shard in range(shards):
            report = reports[shard]
            merged.removed.update(report.removed)
            merged.visited_users.extend(report.visited_users)
            merged.unchanged_users += report.unchanged_users
            merged.deferred_users += report.deferred_users
            merged.skipped_users += report.skipped_users
            # Per-shard passes key their timing by their own shard, so the
            # union is disjoint and mirrors a serial pass's attribution.
            merged.shard_elapsed_s.update(report.shard_elapsed_s)
        return merged
