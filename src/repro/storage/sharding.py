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
  moved or rebalanced without touching the rest.

Shards partition state, not threads (see ``docs/ARCHITECTURE.md``,
"Sharding"): every operation, multi-shard batches included, runs on the
caller's thread.  Shard work is CPU-bound Python that the GIL would never
overlap, so a worker per shard only added handoff cost, and serial
dispatch keeps commit order — and the WAL's LSN sequence — a function of
the request stream alone.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

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
    width goes through snapshot/restore, which re-routes rows on load.
    """

    shards: int = 4

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise PipelineError("shards must be >= 1")


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
