"""Secondary index structures for in-memory tables.

Three kinds back the declarative :class:`~repro.storage.spec.IndexSpec`:

* :class:`HashIndex` — equality buckets (the seed's only index kind);
* :class:`SortedIndex` — a bisect-backed ordered index serving range
  queries, ordered walks in either direction and keyset cursors;
* :class:`SpatialIndex` — a :class:`~repro.geo.grid_index.GridIndex` over
  a geographic position derived from the row.

Indexes never store row contents, only primary keys (plus, for sorted
indexes, the key and the table's row sequence), so the owning table stays
the single source of truth.  Rows whose index key is ``None`` (or contains
``None``) are simply not indexed — nullable columns work naturally, and
``IS NULL``-style reads are a :meth:`~repro.storage.table.Table.scan`.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ValidationError
from repro.geo import BoundingBox, GeoPoint, GridIndex

Row = Dict[str, Any]
KeyFunc = Callable[[Row], Any]


class _Top:
    """A sentinel comparing greater than every value (bisect padding)."""

    __slots__ = ()

    def __lt__(self, other: Any) -> bool:
        return False

    def __le__(self, other: Any) -> bool:
        return False

    def __gt__(self, other: Any) -> bool:
        return True

    def __ge__(self, other: Any) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<TOP>"


#: Pads partial key tuples so bisect positions land *after* a prefix run.
TOP = _Top()


def _normalize(value: Any) -> Any:
    """Lists are a common (unhashable) cell value; use tuples as keys."""
    if isinstance(value, list):
        return tuple(value)
    return value


class HashIndex:
    """Equality buckets from a computed key to primary keys.

    Buckets preserve row (insertion) order — the same order a full table
    scan yields — so results served from the index are ordered exactly
    like the scan they replace.
    """

    kind = "hash"

    def __init__(self, name: str, key_func: KeyFunc) -> None:
        self._name = name
        self._key_func = key_func
        self._buckets: Dict[Any, Dict[Any, None]] = {}

    @property
    def name(self) -> str:
        """The index name."""
        return self._name

    def add(self, primary_key: Any, row: Row, seq: int = 0) -> None:
        """Index a newly inserted row."""
        key = self._make_key(row)
        self._buckets.setdefault(key, {})[primary_key] = None

    def remove(self, primary_key: Any, row: Row, seq: int = 0) -> None:
        """Remove a row that is being deleted or replaced."""
        key = self._make_key(row)
        bucket = self._buckets.get(key)
        if bucket is not None:
            bucket.pop(primary_key, None)
            if not bucket:
                del self._buckets[key]

    def lookup(self, value: Any) -> List[Any]:
        """Primary keys whose index key equals ``value``, in row order."""
        return list(self._buckets.get(_normalize(value), ()))

    def clear(self) -> None:
        """Drop all entries."""
        self._buckets.clear()

    def _make_key(self, row: Row) -> Any:
        return _normalize(self._key_func(row))


class SortedIndex:
    """A bisect-backed ordered index over a computed key tuple.

    Entries are ``(key, seq, primary_key)`` kept sorted ascending, where
    ``seq`` is the table's monotonic row sequence, so equal keys walk in
    insertion order ascending and in reverse insertion order descending.
    Everything — range queries, ordered walks, keyset cursor positioning —
    is a bisect plus a slice.

    Rows whose key contains ``None`` are not indexed (``None`` does not
    order against real values); a scan still finds them.
    """

    kind = "sorted"

    def __init__(self, name: str, key_func: KeyFunc) -> None:
        self._name = name
        self._key_func = key_func
        self._entries: List[Tuple[Any, int, Any]] = []

    @property
    def name(self) -> str:
        """The index name."""
        return self._name

    def __len__(self) -> int:
        return len(self._entries)

    def _make_key(self, row: Row) -> Optional[Tuple[Any, ...]]:
        key = self._key_func(row)
        if not isinstance(key, tuple):
            key = (key,)
        if any(part is None for part in key):
            return None
        return tuple(_normalize(part) for part in key)

    def add(self, primary_key: Any, row: Row, seq: int) -> None:
        """Index a newly inserted row (skipped when the key has nulls)."""
        key = self._make_key(row)
        if key is None:
            return
        insort(self._entries, (key, seq, primary_key))

    def remove(self, primary_key: Any, row: Row, seq: int) -> None:
        """Remove a row that is being deleted or replaced."""
        key = self._make_key(row)
        if key is None:
            return
        probe = (key, seq, primary_key)
        position = bisect_left(self._entries, (key, seq))
        if position < len(self._entries) and self._entries[position] == probe:
            del self._entries[position]

    def clear(self) -> None:
        """Drop all entries."""
        self._entries.clear()

    # Positioning ----------------------------------------------------------

    @staticmethod
    def _as_key(value: Any) -> Tuple[Any, ...]:
        return value if isinstance(value, tuple) else (value,)

    def _lower_position(self, low: Any, inclusive: bool) -> int:
        if low is None:
            return 0
        key = self._as_key(low)
        probe = (key,) if inclusive else (key + (TOP,),)
        return bisect_left(self._entries, probe)

    def _upper_position(self, high: Any, inclusive: bool) -> int:
        if high is None:
            return len(self._entries)
        key = self._as_key(high)
        probe = (key + (TOP,),) if inclusive else (key,)
        return bisect_left(self._entries, probe)

    def position_after(self, key: Tuple[Any, ...], seq: int) -> int:
        """First position strictly after the ``(key, seq)`` cursor entry."""
        return bisect_left(self._entries, (key, seq, TOP))

    def position_at(self, key: Tuple[Any, ...], seq: int) -> int:
        """Position of the first entry at or after the ``(key, seq)`` pair."""
        return bisect_left(self._entries, (key, seq))

    def page_entries(
        self,
        *,
        limit: int,
        after: Optional[Tuple[Tuple[Any, ...], int]] = None,
        descending: bool = False,
        low: Any = None,
        high: Any = None,
        high_inclusive: bool = False,
    ) -> Tuple[List[Tuple[Any, int, Any]], bool]:
        """One keyset page of entries plus whether more remain.

        ``after`` is the decoded cursor — (key tuple, raw row sequence) of
        the last entry served; the page resumes strictly past it in walk
        order.  Bounds restrict the walk to a key range (prefix bounds
        allowed).  Raises :class:`ValidationError` when the cursor cannot
        be compared against the index keys (client-controlled tokens must
        surface as a 400, never a TypeError).
        """
        lo = self._lower_position(low, True)
        hi = self._upper_position(high, high_inclusive)
        try:
            if after is not None:
                key, raw_seq = after
                if descending:
                    hi = min(hi, self.position_at(key, raw_seq))
                else:
                    lo = max(lo, self.position_after(key, raw_seq))
        except TypeError as exc:
            raise ValidationError(f"cursor token does not match index {self._name!r}") from exc
        if hi <= lo:
            return [], False
        # Slice only the limit-sized window, never the whole remaining
        # range: a page over a million-row walk stays O(log n + limit).
        if descending:
            page = self._entries[max(lo, hi - limit) : hi][::-1]
        else:
            page = self._entries[lo : min(hi, lo + limit)]
        return page, (hi - lo) > limit

    # Queries --------------------------------------------------------------

    def entries_between(
        self,
        low: Any = None,
        high: Any = None,
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = False,
    ) -> List[Tuple[Any, int, Any]]:
        """Entries whose key lies in the bound range (ascending order).

        Bounds may be scalars or partial key tuples: a one-column prefix
        bound on a two-column index covers the whole prefix run, which is
        what per-user time ranges on a ``(user_id, timestamp_s)`` index use.
        """
        lo = self._lower_position(low, low_inclusive)
        hi = self._upper_position(high, high_inclusive)
        return self._entries[lo:hi]

    def pks_between(
        self,
        low: Any = None,
        high: Any = None,
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = False,
        descending: bool = False,
    ) -> List[Any]:
        """Primary keys in the bound range, in walk order."""
        entries = self.entries_between(
            low, high, low_inclusive=low_inclusive, high_inclusive=high_inclusive
        )
        pks = [pk for _key, _seq, pk in entries]
        if descending:
            pks.reverse()
        return pks

    def iter_pks(
        self,
        low: Any = None,
        high: Any = None,
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = False,
        descending: bool = False,
    ) -> Iterator[Any]:
        """Lazily walk the primary keys in the bound range (all by default).

        The bounds are bisected once and entries are then visited one at a
        time in walk order, so a caller that stops after ``k`` keys pays
        O(log n + k) however wide the range is.
        """
        lo = self._lower_position(low, low_inclusive)
        hi = self._upper_position(high, high_inclusive)
        entries = self._entries
        positions = range(hi - 1, lo - 1, -1) if descending else range(lo, hi)
        for position in positions:
            yield entries[position][2]

    def entry_token_parts(self, entry: Tuple[Any, int, Any]) -> List[Any]:
        """The cursor-token payload for an entry: key components + raw seq."""
        key, seq, _pk = entry
        return list(key) + [seq]


class SpatialIndex:
    """A grid index over a geographic position derived from each row.

    The key function returns a :class:`~repro.geo.point.GeoPoint` or
    ``None`` (row not indexed) — for column-declared specs it is built
    from a nullable ``(lat, lon)`` column pair.  The underlying
    :class:`~repro.geo.grid_index.GridIndex` is exposed as :attr:`grid`
    for callers that already speak its query API (the context scorer's
    route pruning).
    """

    kind = "spatial"

    def __init__(
        self,
        name: str,
        key_func: Callable[[Row], Optional[GeoPoint]],
        *,
        cell_size_m: float = 1000.0,
    ) -> None:
        self._name = name
        self._key_func = key_func
        self._cell_size_m = cell_size_m
        self._grid: GridIndex[Any] = GridIndex(cell_size_m)

    @property
    def name(self) -> str:
        """The index name."""
        return self._name

    @property
    def grid(self) -> GridIndex[Any]:
        """The underlying grid index (primary keys as items)."""
        return self._grid

    def __len__(self) -> int:
        return len(self._grid)

    def __contains__(self, primary_key: Any) -> bool:
        return primary_key in self._grid

    def add(self, primary_key: Any, row: Row, seq: int = 0) -> None:
        """Index a newly inserted row (skipped when the position is null)."""
        position = self._key_func(row)
        if position is not None:
            self._grid.insert(primary_key, position)

    def remove(self, primary_key: Any, row: Row, seq: int = 0) -> None:
        """Remove a row that is being deleted or replaced."""
        position = self._key_func(row)
        if position is not None and primary_key in self._grid:
            self._grid.remove(primary_key)

    def clear(self) -> None:
        """Drop all entries (in place — callers may hold the grid)."""
        self._grid.clear()

    def within(self, center: GeoPoint, radius_m: float) -> List[Tuple[Any, float]]:
        """``(primary_key, distance_m)`` pairs within the radius, nearest first."""
        return self._grid.query_radius(center, radius_m)

    def in_bbox(self, box: BoundingBox) -> List[Any]:
        """Primary keys whose position falls inside the box."""
        return self._grid.query_bbox(box)

    def nearest(
        self, center: GeoPoint, *, max_radius_m: float = 50000.0
    ) -> Optional[Tuple[Any, float]]:
        """The closest indexed primary key within ``max_radius_m``."""
        return self._grid.nearest(center, max_radius_m=max_radius_m)
