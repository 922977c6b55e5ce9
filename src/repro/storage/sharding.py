"""Shard-partitioned storage: the router in front of per-shard databases.

The ROADMAP names horizontal scale-out — ``Database``-per-shard behind the
one server — as the biggest lever toward large populations, and the
streaming compactor already proved the idiom: users hash-partition into
stable crc32 shards.  This module generalizes it into storage
infrastructure:

* :func:`shard_of` — the one shard assignment every partitioned store uses
  (crc32 of the key, never Python's salted ``hash``), so the tracking
  store, the profiles/feedback DBs, the streaming engine and the compactor
  all agree on which shard owns a user;
* :class:`ShardedDatabase` — N per-shard :class:`~repro.storage.database.Database`
  instances behind one router: single-key reads/writes go to the owning
  shard, multi-shard reads fan out and merge (including keyset-cursor
  pagination whose merged token carries one resume position per shard),
  and snapshot/restore compose per shard so one shard can be captured,
  moved or rebalanced without touching the rest;
* :class:`ShardWorkerPool` — one single-thread executor per shard.  Because
  crc32 partitioning guarantees a user's writes all land on one shard,
  pinning each shard's work to its own worker makes every shard
  single-writer: no locks inside the storage engine, parallelism across
  shards, serial execution within one.

The single-writer-per-shard invariant (see ``docs/ARCHITECTURE.md``,
"Sharding & parallel workers"): all mutations of shard *i*'s state happen
on shard *i*'s worker (or on one thread when no pool is in play).  Small
shared caches keyed per user (mobility-model caches, dirty counters) are
safe across workers because different shards touch disjoint keys and
CPython dict item writes are atomic.
"""

from __future__ import annotations

import threading
import time
import zlib
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import PipelineError, ValidationError
from repro.storage.cursor import Page, decode_token, encode_token
from repro.storage.database import Database, payload_from_bytes, payload_to_bytes
from repro.storage.table import Row, Table

#: Version stamp of :class:`ShardedDatabase` snapshot payloads — the same
#: value as :data:`repro.storage.database.SNAPSHOT_VERSION`, because a
#: merged sharded snapshot *is* a database-shaped payload (restorable into
#: any shard count, including 1).
SNAPSHOT_VERSION = 1


def shard_of(key: str, shards: int) -> int:
    """Stable shard assignment for a key (crc32, not salted ``hash``).

    The one hash every partitioned component uses (the stores, the
    streaming engine, and through the tracking store the compactor), so
    all of them place a user on the same shard across processes and
    restarts.
    """
    if shards == 1:
        return 0
    return zlib.crc32(key.encode("utf-8")) % shards


@dataclass(frozen=True)
class ShardingConfig:
    """How the server partitions per-user state.

    ``shards`` is the partition width shared by every per-user store
    (tracking, profiles, feedback, streaming models), the compactor and
    ``maintenance_tick``'s rotation; changing it reshuffles every user's
    shard, so treat it as a deployment constant — rebalancing to a new
    width goes through snapshot/restore, which re-routes rows on load.  ``parallel`` enables
    the per-shard worker pool (multi-user batch ingest and compaction
    dispatch one task per shard instead of running serially).
    """

    shards: int = 4
    parallel: bool = True

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise PipelineError("shards must be >= 1")


class ShardWorkerPool:
    """One single-thread executor per shard: the parallel ingest substrate.

    Work for shard *i* always runs on worker *i*, so per-shard state never
    sees two writers — the storage engine stays lock-free.  Executors are
    created lazily (a serial deployment never spawns a thread) and torn
    down with :meth:`shutdown`.
    """

    def __init__(self, shards: int, *, tracer: Optional[Any] = None) -> None:
        if shards < 1:
            raise PipelineError("shards must be >= 1")
        self._shards = shards
        self._executors: List[Optional[ThreadPoolExecutor]] = [None] * shards
        self._lock = threading.Lock()
        #: Optional :class:`~repro.obs.tracing.Tracer`: when set, tasks
        #: adopt the submitter's trace context on the worker thread and run
        #: inside a ``shard.task`` span tagged with the shard id.
        self._tracer = tracer
        # Telemetry counters.  ``submitted`` is lock-guarded (any thread
        # submits); ``completed``/``busy_s`` are only written by shard i's
        # single worker thread, so they need no lock.
        self._submitted = [0] * shards
        self._completed = [0] * shards
        self._busy_s = [0.0] * shards
        # Chaos/testing hook: when set, called with the shard id at the
        # start of every task, before the task body runs.  Raising from the
        # hook fails the task exactly like the task body raising.
        self._fault_hook: Optional[Callable[[int], None]] = None

    @property
    def shard_count(self) -> int:
        """Number of shards this pool serves."""
        return self._shards

    def set_fault_hook(self, hook: Optional[Callable[[int], None]]) -> None:
        """Install (or clear, with ``None``) the per-task fault hook.

        The chaos harness uses this to make worker tasks fail on demand:
        an armed hook raising turns the whole :meth:`map_shards` barrier
        into the error path, which is exactly how a real worker crash
        mid-group presents to callers.
        """
        self._fault_hook = hook

    def _executor(self, shard: int) -> ThreadPoolExecutor:
        if not 0 <= shard < self._shards:
            raise PipelineError(f"shard must be in [0, {self._shards}), got {shard}")
        executor = self._executors[shard]
        if executor is None:
            with self._lock:
                executor = self._executors[shard]
                if executor is None:
                    executor = ThreadPoolExecutor(
                        max_workers=1, thread_name_prefix=f"shard-{shard}"
                    )
                    self._executors[shard] = executor
        return executor

    def submit(self, shard: int, fn: Callable, *args: Any, **kwargs: Any) -> Future:
        """Queue work on one shard's worker (FIFO within the shard).

        When the pool carries a tracer and the submitting thread has an
        active trace, the task re-enters that context on the worker and
        runs inside a ``shard.task`` span — cross-thread trace propagation
        is explicit (thread pools do not inherit thread-locals).
        """
        executor = self._executor(shard)
        with self._lock:
            self._submitted[shard] += 1
        tracer = self._tracer
        context = tracer.capture() if tracer is not None else None

        def run() -> Any:
            start = time.perf_counter()
            try:
                hook = self._fault_hook
                if hook is not None:
                    hook(shard)
                if context is not None:
                    with tracer.adopt(context):
                        with tracer.span("shard.task", shard=shard):
                            return fn(*args, **kwargs)
                return fn(*args, **kwargs)
            finally:
                # Single writer per shard: only worker `shard` touches these.
                self._busy_s[shard] += time.perf_counter() - start
                self._completed[shard] += 1

        return executor.submit(run)

    def stats(self) -> Dict[str, Any]:
        """Per-shard queue depth and busy time, plus the imbalance ratio.

        ``queue_depth`` is submitted-minus-completed (tasks waiting or
        running); ``busy_imbalance`` is max over mean of per-shard busy
        seconds (1.0 = perfectly balanced, only meaningful once some work
        has run).  Telemetry folds this in at pull time
        (:meth:`Telemetry.observe_pool <repro.obs.telemetry.Telemetry.observe_pool>`).
        """
        with self._lock:
            submitted = list(self._submitted)
        completed = list(self._completed)
        busy = list(self._busy_s)
        per_shard = [
            {
                "shard": shard,
                "submitted": submitted[shard],
                "completed": completed[shard],
                "queue_depth": submitted[shard] - completed[shard],
                "busy_s": round(busy[shard], 6),
            }
            for shard in range(self._shards)
        ]
        mean_busy = sum(busy) / self._shards
        imbalance = (max(busy) / mean_busy) if mean_busy > 0 else 0.0
        return {"shards": per_shard, "busy_imbalance": round(imbalance, 4)}

    def map_shards(self, work: Dict[int, Callable[[], Any]]) -> Dict[int, Any]:
        """Run one thunk per shard concurrently; wait for all of them.

        Every thunk runs to completion even when another fails — a
        half-applied shard batch would otherwise be invisible.  The first
        failure (lowest shard index, for determinism) is re-raised after
        the barrier; results are returned per shard otherwise.
        """
        futures = {shard: self.submit(shard, thunk) for shard, thunk in sorted(work.items())}
        results: Dict[int, Any] = {}
        first_error: Optional[Tuple[int, BaseException]] = None
        for shard, future in futures.items():
            try:
                results[shard] = future.result()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = (shard, exc)
        if first_error is not None:
            raise first_error[1]
        return results

    def shutdown(self) -> None:
        """Stop all workers (outstanding queued work completes first)."""
        with self._lock:
            executors, self._executors = self._executors, [None] * self._shards
        for executor in executors:
            if executor is not None:
                executor.shutdown(wait=True)


class ShardedDatabase:
    """N crc32-keyed per-shard databases behind one routing façade.

    Construction takes the table-creation recipe (``create_tables``) and
    applies it to every shard, so all shards share one schema.  Reads and
    writes that carry the shard key route to the owning shard
    (:meth:`table_for`); multi-shard reads fan out and merge:

    * :meth:`stats` merges per-shard counters into one
      ``Database.stats()``-shaped report and attaches the per-shard
      breakdown under ``"shards"``;
    * :meth:`page_by_index` k-way-merges per-shard sorted-index walks into
      one globally ordered page whose cursor token carries one resume
      position per shard;
    * :meth:`snapshot` emits a *database-shaped* payload with all shards'
      rows merged — so :meth:`restore` can route rows by the shard key and
      load the same snapshot into a deployment with a **different** shard
      count.  That re-routing restore, together with
      :meth:`snapshot_shard`/:meth:`restore_shard` for single shards, is
      the rebalancing/migration primitive.
    """

    def __init__(
        self,
        name: str,
        *,
        shards: int = 1,
        shard_key: str,
        create_tables: Callable[[Database], None],
    ) -> None:
        if shards < 1:
            raise PipelineError("shards must be >= 1")
        self._name = name
        self._shards = shards
        self._shard_key = shard_key
        self._dbs: List[Database] = []
        for index in range(shards):
            db = Database(name if shards == 1 else f"{name}.s{index}")
            create_tables(db)
            self._dbs.append(db)
        #: Telemetry hook: ``(table_name, elapsed_s) -> None`` timing each
        #: cross-shard fan-out merge (see :meth:`page_by_index`).
        self._fanout_observer: Optional[Callable[[str, float], None]] = None

    @property
    def name(self) -> str:
        """The logical database name (shard databases are ``name.sN``)."""
        return self._name

    @property
    def shard_count(self) -> int:
        """Number of shards."""
        return self._shards

    @property
    def shard_key(self) -> str:
        """The column whose value routes a row to its shard."""
        return self._shard_key

    def shard_of(self, key: str) -> int:
        """The shard owning ``key`` (stable crc32 assignment)."""
        return shard_of(key, self._shards)

    def shard(self, index: int) -> Database:
        """One shard's database by index."""
        if not 0 <= index < self._shards:
            raise PipelineError(f"shard must be in [0, {self._shards}), got {index}")
        return self._dbs[index]

    @property
    def databases(self) -> List[Database]:
        """All per-shard databases, in shard order."""
        return list(self._dbs)

    def set_fanout_observer(self, observer: Optional[Callable[[str, float], None]]) -> None:
        """Install a telemetry observer timing cross-shard fan-out reads."""
        self._fanout_observer = observer

    def add_commit_listener(self, listener: Callable[[int, Any], None]) -> None:
        """Observe every shard's atomic commits, tagged with the shard index.

        ``listener(shard, commit)`` with the same commit shape as
        :meth:`Database.add_commit_listener
        <repro.storage.database.Database.add_commit_listener>` — the
        write-ahead log uses the shard index to route frames to the
        owning shard's log file.
        """
        for index, db in enumerate(self._dbs):
            db.add_commit_listener(
                lambda commit, _shard=index: listener(_shard, commit)
            )

    def for_key(self, key: str) -> Database:
        """The database owning ``key``."""
        return self._dbs[self.shard_of(key)]

    def table_for(self, key: str, table_name: str) -> Table:
        """The owning shard's table — the single-key read/write route."""
        return self.for_key(key).table(table_name)

    def tables(self, table_name: str) -> List[Table]:
        """One table per shard, in shard order (the fan-out route)."""
        return [db.table(table_name) for db in self._dbs]

    def table_names(self) -> List[str]:
        """Names of the tables every shard carries."""
        return self._dbs[0].table_names()

    def version(self, table_name: str) -> int:
        """Summed change counter of a table across shards.

        Any single-shard write bumps exactly one addend by one, so the sum
        is a monotonic whole-table validator — and it matches what a
        single unsharded table's counter would read for the same history,
        which keeps ETags identical across shard layouts.
        """
        return sum(table.version for table in self.tables(table_name))

    def total_rows(self) -> int:
        """Total rows across all shards and tables."""
        return sum(db.total_rows() for db in self._dbs)

    def stats(self) -> Dict[str, Any]:
        """Merged ``Database.stats()`` plus the per-shard breakdown.

        The top-level shape matches :meth:`Database.stats
        <repro.storage.database.Database.stats>` (dashboards render it
        unchanged); ``"shards"`` carries each shard's own stats so the ops
        panel can show skew.
        """
        per_shard = [db.stats() for db in self._dbs]
        tables: Dict[str, Dict[str, int]] = {}
        for name in self.table_names():
            merged: Dict[str, int] = {}
            for shard_stats in per_shard:
                for key, value in shard_stats["tables"][name].items():
                    merged[key] = merged.get(key, 0) + value
            # Index count is structural, not additive: every shard carries
            # the same schema.
            merged["indexes"] = per_shard[0]["tables"][name]["indexes"]
            tables[name] = merged
        return {
            "database": self._name,
            "tables": tables,
            "total_rows": sum(stats["total_rows"] for stats in per_shard),
            "index_hits": sum(stats["index_hits"] for stats in per_shard),
            "scans": sum(stats["scans"] for stats in per_shard),
            "shards": per_shard,
        }

    # Merged keyset pagination --------------------------------------------

    def page_by_index(
        self,
        table_name: str,
        index_name: str,
        *,
        limit: int,
        after_token: Optional[str] = None,
        descending: bool = False,
        low: Any = None,
        high: Any = None,
        high_inclusive: bool = False,
    ) -> Page[Row]:
        """One globally ordered keyset page merged across all shards.

        Each shard's sorted index is walked independently and the streams
        k-way merge by index key (ties break by shard, then insertion
        order — deterministic).  The cursor token is a JSON array with one
        entry per shard: that shard's own resume token (or ``None`` if the
        merge has not consumed from it yet), so resuming replays no rows
        and stays stable under concurrent inserts exactly like the
        single-table walk.  Tokens are therefore shard-layout-specific —
        an opaque resume handle, not portable state.
        """
        if limit < 1:
            raise ValidationError(f"limit must be >= 1, got {limit}")
        observer = self._fanout_observer
        start = time.perf_counter() if observer is not None else 0.0
        shard_tokens: List[Optional[str]] = [None] * self._shards
        if after_token is not None:
            parts = decode_token(after_token, expected_len=self._shards)
            for index, part in enumerate(parts):
                if part is not None and not isinstance(part, str):
                    raise ValidationError(f"malformed cursor token {after_token!r}")
                shard_tokens[index] = part

        # Fetch up to `limit` entries per shard past its resume position.
        fetched: List[List[Tuple[Any, int, Any]]] = []
        more_flags: List[bool] = []
        indexes = []
        tables = self.tables(table_name)
        for table, token in zip(tables, shard_tokens):
            index = table.sorted_index(index_name)
            indexes.append(index)
            after = None
            if token is not None:
                token_parts = decode_token(token)
                key, raw_seq = tuple(token_parts[:-1]), token_parts[-1]
                if not key or not isinstance(raw_seq, int) or isinstance(raw_seq, bool):
                    raise ValidationError(f"malformed cursor token {after_token!r}")
                after = (key, raw_seq)
            entries, more = index.page_entries(
                limit=limit,
                after=after,
                descending=descending,
                low=low,
                high=high,
                high_inclusive=high_inclusive,
            )
            fetched.append(entries)
            more_flags.append(more)

        # K-way merge the per-shard streams by key (shard index breaks ties).
        positions = [0] * self._shards
        merged_rows: List[Row] = []
        while len(merged_rows) < limit:
            best_shard = -1
            best_key = None
            for shard_index in range(self._shards):
                position = positions[shard_index]
                if position >= len(fetched[shard_index]):
                    continue
                key = fetched[shard_index][position][0]
                if best_shard < 0 or (key > best_key if descending else key < best_key):
                    best_shard, best_key = shard_index, key
            if best_shard < 0:
                break
            entry = fetched[best_shard][positions[best_shard]]
            positions[best_shard] += 1
            merged_rows.append(tables[best_shard].get(entry[2]))
            shard_tokens[best_shard] = encode_token(
                indexes[best_shard].entry_token_parts(entry)
            )
        has_more = any(
            positions[index] < len(fetched[index]) or more_flags[index]
            for index in range(self._shards)
        )
        next_token = encode_token(shard_tokens) if has_more and merged_rows else None
        if observer is not None:
            observer(table_name, time.perf_counter() - start)
        return Page(items=merged_rows, next_token=next_token)

    # Unit of work ---------------------------------------------------------

    @contextmanager
    def batch(self) -> Iterator["ShardedDatabase"]:
        """Open a write batch spanning every shard (coalesced per table)."""
        with ExitStack() as stack:
            for db in self._dbs:
                stack.enter_context(db.batch())
            yield self

    # Snapshot / restore ---------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A database-shaped payload with all shards' rows merged.

        The shape is exactly :meth:`Database.snapshot
        <repro.storage.database.Database.snapshot>` (rows concatenated in
        shard order, versions summed), so the payload is portable across
        shard layouts: :meth:`restore` re-routes each row by the shard key.
        """
        tables: Dict[str, Dict[str, Any]] = {}
        for name in self.table_names():
            rows: List[Row] = []
            version = 0
            for table in self.tables(name):
                rows.extend(table.snapshot())
                version += table.version
            tables[name] = {"rows": rows, "table_version": version}
        return {"version": SNAPSHOT_VERSION, "name": self._name, "tables": tables}

    def restore(self, payload: Dict[str, Any]) -> Dict[str, int]:
        """Load a merged snapshot, routing every row to its owning shard.

        Accepts payloads captured under **any** shard count (including a
        plain :class:`Database` snapshot) — this is how a deployment
        rebalances to a new width: snapshot, rebuild with the new count,
        restore.  Returns rows loaded per table.  Summed table versions
        are preserved so ETags minted before the snapshot stay invalid.
        """
        if not isinstance(payload, dict) or payload.get("version") != SNAPSHOT_VERSION:
            raise ValidationError(
                f"unsupported database snapshot payload (want version {SNAPSHOT_VERSION})"
            )
        tables = payload.get("tables")
        if not isinstance(tables, dict):
            raise ValidationError("database snapshot payload has no table map")
        known = set(self.table_names())
        unknown = set(tables) - known
        if unknown:
            raise ValidationError(
                f"snapshot has tables unknown to database {self._name!r}: {sorted(unknown)}"
            )
        loaded: Dict[str, int] = {}
        for name in self.table_names():
            entry = tables.get(name, {"rows": [], "table_version": 0})
            rows = entry["rows"]
            per_shard: List[List[Row]] = [[] for _ in range(self._shards)]
            for row in rows:
                key = row.get(self._shard_key)
                if not isinstance(key, str):
                    raise ValidationError(
                        f"snapshot row in table {name!r} lacks shard key {self._shard_key!r}"
                    )
                per_shard[self.shard_of(key)].append(row)
            count = 0
            shard_tables = self.tables(name)
            for table, shard_rows in zip(shard_tables, per_shard):
                count += table.restore(shard_rows)
            # Preserve the summed change counter: replaying n_i inserts per
            # shard lands the sum at the row count; raise shard 0 by the
            # deficit so version() matches the captured total.
            total_version = entry.get("table_version", 0)
            replayed = sum(table.version for table in shard_tables)
            if total_version > replayed:
                shard_tables[0].bump_version_to(
                    shard_tables[0].version + (total_version - replayed)
                )
            loaded[name] = count
        return loaded

    def snapshot_shard(self, shard: int) -> Dict[str, Any]:
        """One shard's database snapshot — the migration/rebalancing unit."""
        return self.shard(shard).snapshot()

    def restore_shard(self, shard: int, payload: Dict[str, Any]) -> Dict[str, int]:
        """Load one shard's snapshot without touching the other shards.

        Every row must actually route to ``shard`` under this router's
        layout — moving rows *between* layouts goes through the re-routing
        :meth:`restore` instead.
        """
        if not isinstance(payload, dict) or payload.get("version") != SNAPSHOT_VERSION:
            raise ValidationError(
                f"unsupported database snapshot payload (want version {SNAPSHOT_VERSION})"
            )
        for name, entry in payload.get("tables", {}).items():
            for row in entry.get("rows", []):
                key = row.get(self._shard_key)
                if not isinstance(key, str) or self.shard_of(key) != shard:
                    raise ValidationError(
                        f"row with shard key {key!r} in table {name!r} does not "
                        f"belong to shard {shard}"
                    )
        return self.shard(shard).restore(payload)

    def snapshot_bytes(self, *, compress: bool = False) -> bytes:
        """The merged snapshot serialized (optionally gzip-compressed)."""
        return payload_to_bytes(self.snapshot(), compress=compress)

    def restore_bytes(self, raw: bytes) -> Dict[str, int]:
        """Load a :meth:`snapshot_bytes` payload (compression auto-detected)."""
        return self.restore(payload_from_bytes(raw))
