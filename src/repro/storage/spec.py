"""Declarative index specifications for storage tables.

The seed bolted hash indexes onto live tables and left every other
access pattern to hand-rolled sidecars in the stores (sorted publish
lists, grid-index copies of the latest positions, parallel dicts).  An
:class:`IndexSpec` instead declares an index *on the schema*: the table
builds it at construction time and maintains it on every
insert/update/delete, and the stores read it directly.

Three kinds are supported, mirroring what the PPHCR stores actually need:

``hash``
    Equality lookups (``kind = 'news'``).  Buckets keep primary keys in
    row (insertion) order so indexed results match a scan's ordering.
``sorted``
    A bisect-backed ordered index over one or more columns.  Serves range
    queries, ordered iteration in either direction, and keyset cursors
    (:class:`~repro.storage.cursor.Page`).  Entries carry the table's
    monotonic row sequence as a tiebreak, so equal keys keep insertion
    order on ascending walks (a descending walk reverses them; the clip
    listing negates its publish sequence in a computed key to keep
    same-instant clips in insertion order newest-first).
``spatial``
    A :class:`~repro.geo.grid_index.GridIndex` over a pair of lat/lon
    columns (or a computed :class:`~repro.geo.point.GeoPoint` key).  Rows
    whose position is ``None`` are simply not indexed, so nullable geo
    columns work naturally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import SchemaError

#: Valid values of :attr:`IndexSpec.kind`.
INDEX_KINDS = ("hash", "sorted", "spatial")


@dataclass(frozen=True)
class IndexSpec:
    """One declarative secondary index on a :class:`~repro.storage.table.Schema`.

    ``columns`` names the indexed columns (defaults to ``(name,)``); a
    ``key`` callable may replace them for computed keys.
    """

    name: str
    kind: str = "hash"
    columns: Tuple[str, ...] = ()
    key: Optional[Callable[[Dict[str, Any]], Any]] = field(default=None, compare=False)
    #: Spatial indexes: grid cell size in meters.
    cell_size_m: float = 1000.0

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("index name must be non-empty")
        if self.kind not in INDEX_KINDS:
            raise SchemaError(
                f"index {self.name!r} has unknown kind {self.kind!r}; expected one of {INDEX_KINDS}"
            )
        if self.cell_size_m <= 0:
            raise SchemaError(f"index {self.name!r} cell_size_m must be > 0")
        if self.kind == "spatial" and self.key is None and len(self.effective_columns) != 2:
            raise SchemaError(
                f"spatial index {self.name!r} needs (lat, lon) columns or a computed key"
            )

    @property
    def effective_columns(self) -> Tuple[str, ...]:
        """The indexed columns (defaulting to the index name)."""
        if self.key is not None:
            return self.columns
        return self.columns if self.columns else (self.name,)
