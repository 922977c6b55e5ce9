"""A named collection of tables: the in-memory stand-in for the server's DBs.

The PPHCR server (paper Figure 3) uses several databases: the metadata DB,
the profiles DB, the feedbacks DB and the PostGIS tracking DB.  In this
reproduction each of those is a :class:`Database` instance holding typed
:class:`~repro.storage.table.Table` objects (the tracking DB additionally
wraps a spatial index, see :mod:`repro.spatialdb`).

Beyond the table registry, the database is the unit-of-work and the
persistence boundary:

* :meth:`Database.batch` opens a write batch — change-listener
  notifications from every member table buffer and are delivered
  *coalesced, per table* when the batch closes (the generalization of the
  user manager's bulk fix-listener channel);
* :meth:`Database.snapshot` / :meth:`Database.restore` capture and reload
  every table as one versioned, JSON-serializable payload;
* :meth:`Database.stats` aggregates per-table row counts, mutation
  counters and the index-hit/scan counters for the dashboard.
"""

from __future__ import annotations

import gzip
import json
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.errors import DuplicateError, NotFoundError, ValidationError
from repro.storage.table import Change, ChangeListener, Schema, Table

#: One atomic commit as observed by a database commit listener: the
#: per-table change groups a single write (or one closed ``batch()``)
#: produced, in delivery order.
Commit = List[Tuple[str, List[Change]]]

#: A commit listener receives one :data:`Commit` per unit of work.
CommitListener = Callable[[Commit], None]

#: Version stamp written into (and checked against) snapshot payloads.
SNAPSHOT_VERSION = 1

#: The gzip magic bytes — how :func:`payload_from_bytes` auto-detects a
#: compressed payload without a flag day on the wire format.
_GZIP_MAGIC = b"\x1f\x8b"


def payload_to_bytes(payload: Dict[str, Any], *, compress: bool = False) -> bytes:
    """Serialize a snapshot payload (optionally gzip-compressed).

    Compression is deterministic (``mtime=0``; the same payload always
    yields the same bytes for a given zlib), so rebalancing tooling can
    compare shard archives byte-for-byte.  ``gzip.decompress`` of the
    compressed form equals the uncompressed form exactly.  It runs at
    level 1 because WAL checkpoints compress the whole server on the
    maintenance path: on a 4 MB checkpoint, level 9 took ~10x as long for
    output only ~8% smaller, and decompression costs the same either way.
    """
    if not isinstance(payload, dict):
        raise ValidationError("snapshot payload must be a JSON object")
    raw = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
    if compress:
        return gzip.compress(raw, compresslevel=1, mtime=0)
    return raw


def payload_from_bytes(raw: bytes) -> Dict[str, Any]:
    """Deserialize a :func:`payload_to_bytes` blob (compression auto-detected)."""
    if not isinstance(raw, (bytes, bytearray)):
        raise ValidationError("snapshot bytes must be a bytes object")
    if raw[:2] == _GZIP_MAGIC:
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError) as exc:
            raise ValidationError(f"corrupt gzip snapshot payload: {exc}") from exc
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"malformed snapshot payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValidationError("snapshot payload must be a JSON object")
    return payload


class Database:
    """A named registry of tables."""

    #: Wiring, not state: commit listeners are re-attached by whoever owns
    #: the database (the WAL, shard bridges) after a restore, and the
    #: bridged-table set refills as those bridges re-register.
    SNAPSHOT_EXEMPT = ("_commit_listeners", "_bridged")

    def __init__(self, name: str) -> None:
        self._name = name
        self._tables: Dict[str, Table] = {}
        self._batch_depth = 0
        self._query_observer = None
        self._commit_listeners: List[CommitListener] = []
        self._bridged: set = set()
        self._commit_buffer: Any = None

    @property
    def name(self) -> str:
        """The database name."""
        return self._name

    def create_table(self, schema: Schema) -> Table:
        """Create a table from a schema; fails if the name is taken."""
        if schema.name in self._tables:
            raise DuplicateError(
                f"database {self._name!r} already has a table {schema.name!r}"
            )
        table = Table(schema)
        self._tables[schema.name] = table
        if self._batch_depth > 0:
            table._begin_batch()
        if self._query_observer is not None:
            table.set_query_observer(self._query_observer)
        if self._commit_listeners:
            self._bridge_table(schema.name, table)
        return table

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        table = self._tables.get(name)
        if table is None:
            raise NotFoundError(f"database {self._name!r} has no table {name!r}")
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table and all its rows."""
        if name not in self._tables:
            raise NotFoundError(f"database {self._name!r} has no table {name!r}")
        del self._tables[name]

    def table_names(self) -> List[str]:
        """Names of all tables."""
        return sorted(self._tables.keys())

    def total_rows(self) -> int:
        """Total number of rows across all tables (used by dashboards)."""
        return sum(len(table) for table in self._tables.values())

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def set_query_observer(self, observer) -> None:
        """Install a telemetry query observer on every table (and future ones).

        See :meth:`Table.set_query_observer
        <repro.storage.table.Table.set_query_observer>`; ``None`` clears.
        """
        self._query_observer = observer
        for table in self._tables.values():
            table.set_query_observer(observer)

    # Unit of work ---------------------------------------------------------

    def add_listener(self, table_name: str, listener: ChangeListener) -> None:
        """Register a change listener on one member table."""
        self.table(table_name).add_listener(listener)

    def add_commit_listener(self, listener: CommitListener) -> None:
        """Observe whole units of work instead of single tables.

        The listener receives one :data:`Commit` — a list of
        ``(table_name, [Change, ...])`` groups — per atomic write: a bare
        mutation outside a batch delivers a one-group commit immediately,
        while everything inside one outermost :meth:`batch` arrives as a
        single commit with every touched table's coalesced changes.  This
        is the write-ahead log's feed: commit boundaries here become
        atomic commit records there.
        """
        if not self._commit_listeners:
            for name, table in self._tables.items():
                self._bridge_table(name, table)
        self._commit_listeners.append(listener)

    def _bridge_table(self, name: str, table: Table) -> None:
        if name in self._bridged:
            return
        self._bridged.add(name)
        table.add_listener(
            lambda changes, _name=name: self._observe_table_changes(_name, changes)
        )

    def _observe_table_changes(self, table_name: str, changes: List[Change]) -> None:
        if not self._commit_listeners or not changes:
            return
        group = (table_name, list(changes))
        if self._commit_buffer is not None:
            self._commit_buffer.append(group)
            return
        commit = [group]
        for listener in self._commit_listeners:
            listener(commit)

    @contextmanager
    def batch(self) -> Iterator["Database"]:
        """Open a write batch over every table in the database.

        Inside the batch, mutations apply immediately (reads see them) but
        change-listener notifications buffer; when the batch closes each
        table delivers its changes as *one* coalesced batch — the same
        per-item vs. bulk shape the user manager's fix listeners have.
        Batches nest: only the outermost close delivers.  Changes made
        before an exception are still delivered, mirroring how partial
        batch ingests notify listeners of the fixes that were accepted.
        """
        self._batch_depth += 1
        if self._batch_depth == 1:
            for table in self._tables.values():
                table._begin_batch()
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0:
                if self._commit_listeners:
                    self._commit_buffer = []
                try:
                    for table in self._tables.values():
                        table._end_batch()
                finally:
                    buffered, self._commit_buffer = self._commit_buffer, None
                    if buffered:
                        for listener in self._commit_listeners:
                            listener(buffered)

    # Snapshot / restore ---------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A versioned, JSON-serializable payload of every table's rows.

        Schemas are code, not data: the payload carries rows only and a
        restore replays them through the live schema's validation, so a
        snapshot cannot smuggle rows past type checking.
        """
        return {
            "version": SNAPSHOT_VERSION,
            "name": self._name,
            "tables": {
                name: {"rows": table.snapshot(), "table_version": table.version}
                for name, table in self._tables.items()
            },
        }

    def restore(self, payload: Dict[str, Any]) -> Dict[str, int]:
        """Load a :meth:`snapshot` payload into this database's tables.

        Tables must already exist (created by the owning store's
        constructor); unknown tables in the payload raise, missing ones
        are cleared.  Returns rows loaded per table.
        """
        if not isinstance(payload, dict) or payload.get("version") != SNAPSHOT_VERSION:
            raise ValidationError(
                f"unsupported database snapshot payload (want version {SNAPSHOT_VERSION})"
            )
        tables = payload.get("tables")
        if not isinstance(tables, dict):
            raise ValidationError("database snapshot payload has no table map")
        unknown = set(tables) - set(self._tables)
        if unknown:
            raise ValidationError(
                f"snapshot has tables unknown to database {self._name!r}: {sorted(unknown)}"
            )
        loaded: Dict[str, int] = {}
        for name, table in self._tables.items():
            entry = tables.get(name, {"rows": [], "table_version": 0})
            loaded[name] = table.restore(entry["rows"])
            # Re-arm the change counter: replaying N inserts on a fresh
            # table lands at version N, which could collide with ETags
            # minted before the snapshot was taken.
            table.bump_version_to(entry.get("table_version", 0))
        return loaded

    def snapshot_bytes(self, *, compress: bool = False) -> bytes:
        """The snapshot serialized to bytes, optionally gzip-compressed.

        The per-shard rebalancing path ships these blobs between
        processes; compression keeps them small and the round trip is
        exact: decompressing the compressed form yields byte-identical
        output to ``snapshot_bytes(compress=False)``.
        """
        return payload_to_bytes(self.snapshot(), compress=compress)

    def restore_bytes(self, raw: bytes) -> Dict[str, int]:
        """Load a :meth:`snapshot_bytes` blob (compression auto-detected)."""
        return self.restore(payload_from_bytes(raw))

    def stats(self) -> Dict[str, Any]:
        """Aggregate per-table statistics (rows, writes, index-hit/scan counters)."""
        tables = {name: table.stats() for name, table in self._tables.items()}
        return {
            "database": self._name,
            "tables": tables,
            "total_rows": sum(stats["rows"] for stats in tables.values()),
            "index_hits": sum(stats["index_hits"] for stats in tables.values()),
            "scans": sum(stats["scans"] for stats in tables.values()),
        }
