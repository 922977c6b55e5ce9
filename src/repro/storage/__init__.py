"""An in-memory storage engine: typed tables, declarative indexes, cursors.

The paper's server keeps its metadata, user profiles and feedback logs in
conventional relational databases (plus PostGIS for tracking data).  This
package provides the equivalent building blocks used throughout the
reproduction:

* typed tables with schemas, primary keys and **declarative secondary
  indexes** (:class:`IndexSpec`: hash, sorted and spatial kinds) maintained
  automatically on every mutation and read directly by the stores
  (``find_by_index``, ``find_range``, ``iter_range_keys``,
  ``find_within``), each read equal to its full-scan twin;
* **first-class keyset cursors** (:class:`Page`) for pagination that stays
  stable under concurrent inserts;
* **snapshot/restore** of whole databases as versioned JSON-serializable
  payloads;
* the **write-ahead log** (:class:`DurabilityManager`), whose records are
  the stores' domain operations, replayed through their public methods.
"""

from repro.storage.cursor import Page, decode_token, encode_token
from repro.storage.database import Database, payload_from_bytes, payload_to_bytes
from repro.storage.index import HashIndex, SortedIndex, SpatialIndex
from repro.storage.sharding import ShardedDatabase, ShardingConfig, shard_of
from repro.storage.spec import IndexSpec
from repro.storage.table import Column, Schema, Table
from repro.storage.wal import DurabilityConfig, DurabilityManager

__all__ = [
    "Column",
    "Database",
    "DurabilityConfig",
    "DurabilityManager",
    "HashIndex",
    "IndexSpec",
    "Page",
    "Schema",
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
