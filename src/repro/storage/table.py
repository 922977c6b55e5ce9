"""Schema-validated in-memory tables with declarative secondary indexes.

The storage-engine surface of one table:

* **declarative indexes** — :class:`~repro.storage.spec.IndexSpec` entries
  on the :class:`Schema` are built at construction time and maintained on
  every insert/update/delete (hash, sorted and spatial kinds);
* **direct index reads** — :meth:`Table.find_by_index`,
  :meth:`Table.find_range`, :meth:`Table.iter_range_keys`,
  :meth:`Table.find_within` and :meth:`Table.find_in_bbox` are the access
  paths the stores use, each returning exactly what its :meth:`Table.scan`
  twin (plus a stable sort, for ordered reads) returns;
* **keyset cursors** — :meth:`Table.page_by_index` walks a sorted index in
  either direction and returns a :class:`~repro.storage.cursor.Page` whose
  token resumes strictly after the last row served, stable under
  concurrent inserts;
* **change tracking** — a monotonic :attr:`Table.version` bumps on every
  mutation (the gateway keys weak ETags on it) and per-op counters feed
  :meth:`Table.stats`;
* **snapshot/restore** — :meth:`Table.snapshot` captures the rows,
  :meth:`Table.restore` reloads them through validation and rebuilds every
  index.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import DuplicateError, NotFoundError, SchemaError, ValidationError
from repro.geo import BoundingBox, GeoPoint
from repro.storage.cursor import Page, decode_token, encode_token
from repro.storage.index import HashIndex, SortedIndex, SpatialIndex
from repro.storage.spec import IndexSpec

Row = Dict[str, Any]


@dataclass(frozen=True)
class Column:
    """A column definition.

    ``dtype`` is a Python type (or tuple of types); ``nullable`` controls
    whether ``None`` is accepted; ``default`` is used when the value is
    missing on insert.
    """

    name: str
    dtype: Any = object
    nullable: bool = False
    default: Any = None
    has_default: bool = False

    def validate(self, value: Any) -> Any:
        """Check one value against the column definition and return it."""
        if value is None:
            if self.nullable:
                return None
            raise SchemaError(f"column {self.name!r} is not nullable")
        if self.dtype is object:
            return value
        expected = self.dtype if isinstance(self.dtype, tuple) else (self.dtype,)
        # Accept ints where floats are expected, as SQL numeric widening would.
        if float in expected and isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        if not isinstance(value, expected):
            raise SchemaError(
                f"column {self.name!r} expects {expected!r}, got {type(value).__name__}"
            )
        return value


@dataclass
class Schema:
    """An ordered collection of columns plus primary key and index specs."""

    columns: List[Column]
    primary_key: str
    name: str = "table"
    indexes: List[IndexSpec] = field(default_factory=list)
    _by_name: Dict[str, Column] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._by_name = {column.name: column for column in self.columns}
        if len(self._by_name) != len(self.columns):
            raise SchemaError(f"schema {self.name!r} has duplicate column names")
        if self.primary_key not in self._by_name:
            raise SchemaError(
                f"primary key {self.primary_key!r} is not a column of schema {self.name!r}"
            )
        seen = set()
        for spec in self.indexes:
            if spec.name in seen:
                raise SchemaError(f"schema {self.name!r} has duplicate index {spec.name!r}")
            seen.add(spec.name)
            if spec.key is None:
                for column in spec.effective_columns:
                    self.column(column)  # raises for unknown columns

    def column(self, name: str) -> Column:
        """Look up a column by name."""
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise SchemaError(f"schema {self.name!r} has no column {name!r}") from exc

    def validate_row(self, row: Row) -> Row:
        """Validate and normalize a full row, applying defaults."""
        unknown = set(row) - set(self._by_name)
        if unknown:
            raise SchemaError(
                f"row has columns not in schema {self.name!r}: {sorted(unknown)}"
            )
        validated: Row = {}
        for column in self.columns:
            if column.name in row:
                validated[column.name] = column.validate(row[column.name])
            elif column.has_default:
                validated[column.name] = copy.copy(column.default)
            elif column.nullable:
                validated[column.name] = None
            else:
                raise SchemaError(
                    f"row missing required column {column.name!r} of schema {self.name!r}"
                )
        return validated


def _columns_key_func(columns: Tuple[str, ...]) -> Callable[[Row], Any]:
    if len(columns) == 1:
        column = columns[0]
        return lambda row: row[column]
    return lambda row: tuple(row[column] for column in columns)


def _spatial_key_func(spec: IndexSpec) -> Callable[[Row], Optional[GeoPoint]]:
    if spec.key is not None:
        return spec.key  # computed: must return Optional[GeoPoint]
    lat_column, lon_column = spec.effective_columns

    def key_func(row: Row) -> Optional[GeoPoint]:
        lat = row[lat_column]
        lon = row[lon_column]
        if lat is None or lon is None:
            return None
        return GeoPoint(lat, lon)

    return key_func


def build_index(spec: IndexSpec):
    """Construct the index structure a spec describes."""
    if spec.kind == "hash":
        key_func = spec.key if spec.key is not None else _columns_key_func(spec.effective_columns)
        return HashIndex(spec.name, key_func)
    if spec.kind == "sorted":
        key_func = spec.key if spec.key is not None else _columns_key_func(spec.effective_columns)
        return SortedIndex(spec.name, key_func)
    return SpatialIndex(spec.name, _spatial_key_func(spec), cell_size_m=spec.cell_size_m)


class Table:
    """A single in-memory table.

    Rows are stored as dictionaries keyed by the primary key.  Secondary
    indexes are declared on the schema and maintained on every mutation.
    Returned rows are copies so callers cannot corrupt table state by
    mutating them.
    """

    def __init__(self, schema: Schema) -> None:
        self._schema = schema
        self._rows: Dict[Any, Row] = {}
        self._indexes: Dict[str, Any] = {
            spec.name: build_index(spec) for spec in schema.indexes
        }
        #: Monotonic per-row sequence: assigned on insert (and re-assigned on
        #: update), it is the insertion-order tiebreak sorted indexes and
        #: cursor tokens use.
        self._seqs: Dict[Any, int] = {}
        self._next_seq = 0
        self._version = 0
        self._stats = {
            "inserts": 0,
            "updates": 0,
            "deletes": 0,
            "index_hits": 0,
            "scans": 0,
        }
        #: Telemetry hook: ``(plan, elapsed_s, rows) -> None`` called by
        #: the timed read path (keyset page walks).  ``None`` keeps that
        #: path on a single attribute check — the disabled telemetry budget.
        self._query_observer: Optional[Callable[[Dict[str, Any], float, int], None]] = None

    @property
    def schema(self) -> Schema:
        """The table schema."""
        return self._schema

    @property
    def name(self) -> str:
        """The table name (from its schema)."""
        return self._schema.name

    @property
    def version(self) -> int:
        """Monotonic change counter: bumps on every committed mutation.

        The cheap "did anything change?" validator — the gateway folds it
        into weak ETags so revalidation is an integer compare.
        """
        return self._version

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: Any) -> bool:
        return key in self._rows

    def set_query_observer(
        self, observer: Optional[Callable[[Dict[str, Any], float, int], None]]
    ) -> None:
        """Install (or clear) the telemetry query observer.

        The observer receives ``(plan, elapsed_s, rows)`` for every timed
        read: each :meth:`page_by_index` walk, with strategy ``index_page``.
        """
        self._query_observer = observer

    # Index management -----------------------------------------------------

    def _index(self, name: str):
        index = self._indexes.get(name)
        if index is None:
            raise NotFoundError(f"table {self.name!r} has no index {name!r}")
        return index

    def _typed_index(self, name: str, kind: str):
        index = self._index(name)
        if index.kind != kind:
            raise ValidationError(
                f"index {name!r} on table {self.name!r} is {index.kind!r}, not {kind!r}"
            )
        return index

    def sorted_index(self, name: str) -> SortedIndex:
        """A sorted index by name (validated kind)."""
        return self._typed_index(name, "sorted")

    def spatial_index(self, name: str) -> SpatialIndex:
        """A spatial index by name (validated kind)."""
        return self._typed_index(name, "spatial")

    # Mutation -------------------------------------------------------------

    def insert(self, row: Row) -> Any:
        """Insert a new row; returns its primary key."""
        validated = self._schema.validate_row(row)
        key = validated[self._schema.primary_key]
        if key in self._rows:
            raise DuplicateError(
                f"table {self.name!r} already has a row with key {key!r}"
            )
        seq = self._next_seq
        self._next_seq += 1
        self._rows[key] = validated
        self._seqs[key] = seq
        for index in self._indexes.values():
            index.add(key, validated, seq)
        self._stats["inserts"] += 1
        self._version += 1
        return key

    def upsert(self, row: Row) -> Any:
        """Insert the row, replacing any existing row with the same key."""
        validated = self._schema.validate_row(row)
        key = validated[self._schema.primary_key]
        if key in self._rows:
            self.update(key, validated)
            return key
        return self.insert(validated)

    def get(self, key: Any) -> Row:
        """Fetch a row by primary key (copy)."""
        row = self._rows.get(key)
        if row is None:
            raise NotFoundError(f"table {self.name!r} has no row with key {key!r}")
        return dict(row)

    def get_or_none(self, key: Any) -> Optional[Row]:
        """Fetch a row by primary key, or ``None`` if absent."""
        row = self._rows.get(key)
        return dict(row) if row is not None else None

    def update(self, key: Any, changes: Row) -> Row:
        """Apply a partial update to the row with the given key."""
        current = self._rows.get(key)
        if current is None:
            raise NotFoundError(f"table {self.name!r} has no row with key {key!r}")
        merged = dict(current)
        merged.update(changes)
        validated = self._schema.validate_row(merged)
        new_key = validated[self._schema.primary_key]
        if new_key != key and new_key in self._rows:
            raise DuplicateError(
                f"update would collide with existing key {new_key!r} in table {self.name!r}"
            )
        old_seq = self._seqs[key]
        for index in self._indexes.values():
            index.remove(key, current, old_seq)
        del self._rows[key]
        del self._seqs[key]
        seq = self._next_seq
        self._next_seq += 1
        self._rows[new_key] = validated
        self._seqs[new_key] = seq
        for index in self._indexes.values():
            index.add(new_key, validated, seq)
        self._stats["updates"] += 1
        self._version += 1
        return dict(validated)

    def delete(self, key: Any) -> None:
        """Delete the row with the given key."""
        row = self._rows.pop(key, None)
        if row is None:
            raise NotFoundError(f"table {self.name!r} has no row with key {key!r}")
        seq = self._seqs.pop(key)
        for index in self._indexes.values():
            index.remove(key, row, seq)
        self._stats["deletes"] += 1
        self._version += 1

    def clear(self) -> None:
        """Remove all rows: one version bump, and none on an empty table."""
        if self._rows:
            self._version += 1
        self._rows.clear()
        self._seqs.clear()
        for index in self._indexes.values():
            index.clear()

    # Reads ----------------------------------------------------------------

    def rows(self) -> Iterator[Row]:
        """Iterate over copies of all rows (insertion order)."""
        for row in self._rows.values():
            yield dict(row)

    def keys(self) -> List[Any]:
        """All primary keys."""
        return list(self._rows.keys())

    def find_by_index(self, index_name: str, value: Any) -> List[Row]:
        """All rows whose index key equals ``value`` (row order).

        Works for hash indexes (bucket lookup) and sorted indexes (an
        equal-bounds range); spatial indexes have their own query methods.
        """
        index = self._index(index_name)
        self._stats["index_hits"] += 1
        if index.kind == "hash":
            return [dict(self._rows[key]) for key in index.lookup(value)]
        if index.kind == "sorted":
            pks = index.pks_between(value, value, low_inclusive=True, high_inclusive=True)
            return [dict(self._rows[key]) for key in pks]
        raise ValidationError(
            f"index {index_name!r} on table {self.name!r} is spatial; "
            "use find_within/find_in_bbox"
        )

    def find_range(
        self,
        index_name: str,
        low: Any = None,
        high: Any = None,
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = False,
        descending: bool = False,
    ) -> List[Row]:
        """Rows whose sorted-index key lies in the bound range, in walk order."""
        index = self.sorted_index(index_name)
        self._stats["index_hits"] += 1
        pks = index.pks_between(
            low,
            high,
            low_inclusive=low_inclusive,
            high_inclusive=high_inclusive,
            descending=descending,
        )
        return [dict(self._rows[key]) for key in pks]

    def iter_range_keys(
        self,
        index_name: str,
        low: Any = None,
        high: Any = None,
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = False,
        descending: bool = False,
    ) -> Iterator[Any]:
        """Lazily walk the primary keys of a sorted-index range, in walk order.

        No row is copied: callers that keep their own objects by primary
        key pay only for the keys they consume and may stop early.
        """
        index = self.sorted_index(index_name)
        self._stats["index_hits"] += 1
        return index.iter_pks(
            low,
            high,
            low_inclusive=low_inclusive,
            high_inclusive=high_inclusive,
            descending=descending,
        )

    def rows_in_index_order(self, index_name: str, *, descending: bool = False) -> Iterator[Row]:
        """Walk all rows in sorted-index order."""
        index = self.sorted_index(index_name)
        self._stats["index_hits"] += 1
        for pk in index.iter_pks(descending=descending):
            yield dict(self._rows[pk])

    def find_within(
        self, index_name: str, center: GeoPoint, radius_m: float
    ) -> List[Tuple[Row, float]]:
        """``(row, distance_m)`` pairs within the radius, nearest first."""
        index = self.spatial_index(index_name)
        self._stats["index_hits"] += 1
        return [(dict(self._rows[pk]), distance) for pk, distance in index.within(center, radius_m)]

    def find_in_bbox(self, index_name: str, box: BoundingBox) -> List[Row]:
        """Rows whose indexed position falls inside the box."""
        index = self.spatial_index(index_name)
        self._stats["index_hits"] += 1
        return [dict(self._rows[pk]) for pk in index.in_bbox(box)]

    def scan(self, predicate: Callable[[Row], bool]) -> List[Row]:
        """Full scan returning copies of matching rows (insertion order).

        The reference path: every index read above returns what this scan
        (plus a stable sort, for ordered reads) returns.
        """
        self._stats["scans"] += 1
        return [dict(row) for row in self._rows.values() if predicate(row)]

    def count(self, predicate: Optional[Callable[[Row], bool]] = None) -> int:
        """Number of rows (optionally matching a predicate)."""
        if predicate is None:
            return len(self._rows)
        self._stats["scans"] += 1
        return sum(1 for row in self._rows.values() if predicate(row))

    # Keyset pagination ----------------------------------------------------

    def page_by_index(
        self,
        index_name: str,
        *,
        limit: int,
        after_token: Optional[str] = None,
        descending: bool = False,
        low: Any = None,
        high: Any = None,
        high_inclusive: bool = False,
    ) -> Page[Row]:
        """One keyset page of rows in sorted-index order.

        The token encodes the index key + row sequence of the last row
        served; the next page resumes strictly past it, so walks are
        stable under concurrent inserts (a new row lands on the page its
        key belongs to and never shifts or duplicates later pages).
        ``low``/``high`` optionally restrict the walk to a key range —
        prefix bounds on multi-column indexes give per-user history pages.
        """
        if limit < 1:
            raise ValidationError(f"limit must be >= 1, got {limit}")
        observer = self._query_observer
        start = time.perf_counter() if observer is not None else 0.0
        index = self.sorted_index(index_name)
        self._stats["index_hits"] += 1
        after = None
        if after_token is not None:
            parts = decode_token(after_token)
            key, raw_seq = tuple(parts[:-1]), parts[-1]
            if not key or not isinstance(raw_seq, int) or isinstance(raw_seq, bool):
                raise ValidationError(f"malformed cursor token {after_token!r}")
            after = (key, raw_seq)
        page_entries, more = index.page_entries(
            limit=limit,
            after=after,
            descending=descending,
            low=low,
            high=high,
            high_inclusive=high_inclusive,
        )
        rows = [dict(self._rows[pk]) for _key, _seq, pk in page_entries]
        next_token = (
            encode_token(index.entry_token_parts(page_entries[-1])) if more and rows else None
        )
        if observer is not None:
            observer(
                {
                    "strategy": "index_page",
                    "index": index_name,
                    "table": self.name,
                    "post_filters": 0,
                    "ordered": True,
                },
                time.perf_counter() - start,
                len(rows),
            )
        return Page(items=rows, next_token=next_token)

    # Snapshot / restore ---------------------------------------------------

    def snapshot(self) -> List[Row]:
        """A copy of every row (insertion order).

        Cell values must be JSON-serializable for the snapshot to be
        persistable — true for schema-typed scalar columns.
        """
        return [dict(row) for row in self._rows.values()]

    def bump_version_to(self, version: int) -> None:
        """Raise the change counter to at least ``version``.

        Snapshot restores call this with the captured table version:
        replaying N rows on a fresh table would otherwise land the
        counter back at N, and ETags minted before the snapshot could
        collide with post-restore state and serve stale 304s.
        """
        if version > self._version:
            self._version = version

    def restore(self, rows: Iterable[Row]) -> int:
        """Replace the table contents with ``rows`` (validated, re-indexed).

        Returns the number of rows loaded.
        """
        self.clear()
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def stats(self) -> Dict[str, int]:
        """Operation counters plus current row count and version."""
        summary = dict(self._stats)
        summary["rows"] = len(self._rows)
        summary["version"] = self._version
        summary["indexes"] = len(self._indexes)
        return summary
