"""A named collection of tables: the in-memory stand-in for the server's DBs.

The PPHCR server (paper Figure 3) uses several databases: the metadata DB,
the profiles DB, the feedbacks DB and the PostGIS tracking DB.  In this
reproduction each of those is a :class:`Database` instance holding typed
:class:`~repro.storage.table.Table` objects (the tracking DB additionally
wraps a spatial index, see :mod:`repro.spatialdb`).

Beyond the table registry, the database is the persistence boundary:

* :meth:`Database.snapshot` / :meth:`Database.restore` capture and reload
  every table as one versioned, JSON-serializable payload;
* :meth:`Database.stats` aggregates per-table row counts, mutation
  counters and the index-hit/scan counters for the dashboard.
"""

from __future__ import annotations

import gzip
import json
from typing import Any, Dict, List

from repro.errors import DuplicateError, NotFoundError, ValidationError
from repro.storage.table import Schema, Table

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

    def __init__(self, name: str) -> None:
        self._name = name
        self._tables: Dict[str, Table] = {}
        self._query_observer = None

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
        if self._query_observer is not None:
            table.set_query_observer(self._query_observer)
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
