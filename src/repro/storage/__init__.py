"""An in-memory storage engine: typed tables, declarative indexes, a planner.

The paper's server keeps its metadata, user profiles and feedback logs in
conventional relational databases (plus PostGIS for tracking data).  This
package provides the equivalent building blocks used throughout the
reproduction:

* typed tables with schemas, primary keys and **declarative secondary
  indexes** (:class:`IndexSpec`: hash, sorted and spatial kinds) maintained
  automatically on every mutation;
* an **index-aware query planner** (:class:`Query`) that routes equality,
  membership, range and ordered reads through a matching index — with
  :meth:`Query.explain` and scan-parity guarantees — and falls back to the
  seed's full scan otherwise;
* **first-class keyset cursors** (:class:`Page`) for pagination that stays
  stable under concurrent inserts;
* a **unit-of-work write path** (:meth:`Database.batch`) with per-table
  change listeners, and **snapshot/restore** of whole databases as
  versioned JSON-serializable payloads.
"""

from repro.storage.cursor import Page, decode_token, encode_token
from repro.storage.database import Database, payload_from_bytes, payload_to_bytes
from repro.storage.index import HashIndex, SecondaryIndex, SortedIndex, SpatialIndex
from repro.storage.query import Query
from repro.storage.sharding import ShardedDatabase, ShardingConfig, shard_of
from repro.storage.spec import IndexSpec
from repro.storage.table import Change, Column, Schema, Table
from repro.storage.wal import DurabilityConfig, DurabilityManager

__all__ = [
    "Change",
    "Column",
    "Database",
    "DurabilityConfig",
    "DurabilityManager",
    "HashIndex",
    "IndexSpec",
    "Page",
    "Query",
    "Schema",
    "SecondaryIndex",
    "ShardedDatabase",
    "ShardingConfig",
    "SortedIndex",
    "SpatialIndex",
    "Table",
    "decode_token",
    "encode_token",
    "payload_from_bytes",
    "payload_to_bytes",
    "shard_of",
]
