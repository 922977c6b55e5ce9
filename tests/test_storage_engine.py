"""Tests for the storage engine: declarative indexes, direct reads, cursors.

The load-bearing properties:

* **index/scan parity** — on a table churned by seeded inserts, updates
  and deletes, every read shape a store makes returns exactly what its
  scan twin (``Table.scan`` plus a stable sort) returns: same rows, same
  order;
* **cursor stability** — keyset pages never duplicate or skip rows while
  rows are inserted between pages;
* **change counter** — every mutation bumps ``Table.version`` by one;
* **snapshot/restore** — a database round-trips through its versioned
  JSON payload with indexes rebuilt and index reads intact.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import DuplicateError, SchemaError, ValidationError
from repro.geo import BoundingBox, GeoPoint, haversine_m
from repro.storage import Column, Database, IndexSpec, Page, Schema, Table


def events_schema(indexes=None):
    return Schema(
        name="events",
        primary_key="event_id",
        columns=[
            Column("event_id", str),
            Column("user_id", str),
            Column("kind", str),
            Column("timestamp_s", float),
            Column("value", float, has_default=True, default=0.0),
            Column("lat", float, nullable=True),
            Column("lon", float, nullable=True),
            Column("seq", int, has_default=True, default=0),
        ],
        indexes=list(indexes) if indexes is not None else [],
    )


INDEXED = [
    IndexSpec("kind"),
    IndexSpec("user_id"),
    IndexSpec("timestamp_s", kind="sorted", columns=("timestamp_s",)),
    IndexSpec("user_time", kind="sorted", columns=("user_id", "timestamp_s")),
    IndexSpec("geo", kind="spatial", columns=("lat", "lon"), cell_size_m=500.0),
]


def fill(table, rng, n=400):
    """Populate a table from a seeded_rng (or a labeled fork of it)."""
    for i in range(n):
        table.insert(
            {
                "event_id": f"e{i:04d}",
                "user_id": f"u{rng.randint(0, 11):02d}",
                "kind": rng.choice(["ping", "skip", "like"]),
                "timestamp_s": float(rng.randint(0, 49)),
                "value": rng.random(),
                "lat": None if rng.random() < 0.4 else 45.0 + rng.random() * 0.05,
                "lon": 7.6 + rng.random() * 0.05,
            }
        )
    return table


class TestIndexSpecs:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError):
            IndexSpec("x", kind="btree")

    def test_spatial_needs_two_columns(self):
        with pytest.raises(SchemaError):
            IndexSpec("geo", kind="spatial", columns=("lat",))

    def test_schema_validates_index_columns(self):
        with pytest.raises(SchemaError):
            events_schema([IndexSpec("missing_column")])
            Table(events_schema([IndexSpec("missing_column")]))

    def test_duplicate_index_names_rejected(self):
        with pytest.raises(SchemaError):
            Table(events_schema([IndexSpec("kind"), IndexSpec("kind")]))


#: The clip listing's computed newest-first key: publish time, then the
#: negated first-insert sequence, so a descending walk keeps same-instant
#: rows in insertion order (``ContentRepository.iter_newest_first``).
NEWEST = IndexSpec(
    "newest",
    kind="sorted",
    columns=("timestamp_s", "seq"),
    key=lambda row: (row["timestamp_s"], -row["seq"]),
)

KINDS = ("ping", "skip", "like")
USERS = tuple(f"u{i:02d}" for i in range(12))


def random_cells(rng):
    """Every non-key column, drawn from few values so equal keys recur."""
    return {
        "user_id": rng.choice(USERS),
        "kind": rng.choice(KINDS),
        "timestamp_s": float(rng.randint(0, 49)),
        "value": rng.random(),
        "lat": None if rng.random() < 0.3 else 45.0 + rng.random() * 0.05,
        "lon": 7.6 + rng.random() * 0.05,
    }


def churn(table, rng, steps, first_seq=0):
    """Seeded inserts, updates and deletes; returns the next free ``seq``.

    ``seq`` is set once per row on insert and kept by updates, like the
    content repository's publish-tie column.
    """
    next_seq = first_seq
    for _ in range(steps):
        keys = table.keys()
        roll = rng.random()
        if keys and roll < 0.15:
            table.delete(rng.choice(keys))
        elif keys and roll < 0.4:
            table.update(rng.choice(keys), random_cells(rng))
        else:
            row = random_cells(rng)
            row.update(event_id=f"e{next_seq:04d}", seq=next_seq)
            table.insert(row)
            next_seq += 1
    return next_seq


def ids(rows):
    return [row["event_id"] for row in rows]


def scan_sorted(table, predicate, key):
    """The scan twin: matching rows in row order, then one stable sort."""
    return sorted(table.scan(predicate), key=key)


def walk(table, index_name, *, limit, descending=False, **bounds):
    """Every row of a keyset walk, page after page."""
    rows, token = [], None
    while True:
        page = table.page_by_index(
            index_name, limit=limit, after_token=token, descending=descending, **bounds
        )
        rows.extend(page.items)
        token = page.next_token
        if token is None:
            return rows


def check_equality_reads(table):
    for kind in KINDS:
        assert table.find_by_index("kind", kind) == table.scan(lambda r: r["kind"] == kind)
    for user in USERS:
        assert table.find_by_index("user_id", user) == table.scan(lambda r: r["user_id"] == user)
    for t in range(50):
        expected = table.scan(lambda r: r["timestamp_s"] == t)
        assert table.find_by_index("timestamp_s", float(t)) == expected


def check_user_prefix_ranges(table):
    for user in USERS:
        expected = scan_sorted(table, lambda r: r["user_id"] == user, lambda r: r["timestamp_s"])
        rows = table.find_range("user_time", low=(user,), high=(user,), high_inclusive=True)
        assert rows == expected


def newest_first_twin(table, cutoff_s=None):
    rows = table.scan(lambda r: cutoff_s is None or r["timestamp_s"] >= cutoff_s)
    rows.sort(key=lambda r: r["seq"])  # insertion order, kept across updates
    rows.sort(key=lambda r: r["timestamp_s"], reverse=True)
    return ids(rows)


def check_newest_first_walks(table, rng):
    for cutoff_s in [None] + [float(rng.randint(0, 52)) for _ in range(8)]:
        keys = list(table.iter_range_keys("newest", low=cutoff_s, descending=True))
        assert keys == newest_first_twin(table, cutoff_s)


def check_page_walks(table, rng):
    by_time = ids(scan_sorted(table, lambda r: True, lambda r: r["timestamp_s"]))
    for limit in (1, rng.randint(2, 9), 200):
        assert ids(walk(table, "timestamp_s", limit=limit)) == by_time
        # A descending walk reverses the ascending one, ties included.
        assert ids(walk(table, "timestamp_s", limit=limit, descending=True)) == by_time[::-1]
        assert ids(walk(table, "newest", limit=limit, descending=True)) == newest_first_twin(table)
    for user in rng.sample(USERS, 3):
        history = ids(
            scan_sorted(table, lambda r: r["user_id"] == user, lambda r: r["timestamp_s"])
        )
        bounds = dict(low=(user,), high=(user,), high_inclusive=True)
        assert ids(walk(table, "user_time", limit=4, **bounds)) == history
        assert ids(walk(table, "user_time", limit=4, descending=True, **bounds)) == history[::-1]


def check_spatial_reads(table, rng):
    for _ in range(12):
        center = GeoPoint(45.0 + rng.random() * 0.05, 7.6 + rng.random() * 0.05)
        radius_m = rng.choice([0.0, 150.0, 900.0, 5000.0])

        def near(row):
            return row["lat"] is not None and haversine_m(center, position(row)) <= radius_m

        expected = [
            (row["event_id"], haversine_m(center, position(row)))
            for row in sorted(table.scan(near), key=lambda r: haversine_m(center, position(r)))
        ]
        hits = table.find_within("geo", center, radius_m)
        assert [(row["event_id"], distance) for row, distance in hits] == expected

        low_lat, low_lon = 45.0 + rng.random() * 0.04, 7.6 + rng.random() * 0.04
        box = BoundingBox(
            min_lat=low_lat, min_lon=low_lon, max_lat=low_lat + 0.01, max_lon=low_lon + 0.02
        )
        inside = table.scan(lambda r: r["lat"] is not None and box.contains(position(r)))
        # A box read comes back in grid-cell order, which no caller relies on.
        assert sorted(ids(table.find_in_bbox("geo", box))) == sorted(ids(inside))


def position(row):
    return GeoPoint(row["lat"], row["lon"])


class TestDirectReadScanParity:
    """Every read shape a store makes equals its scan twin: same rows, same order.

    The twin is :meth:`Table.scan` plus a stable sort.  The table is
    churned by seeded inserts, updates and deletes first, so index
    maintenance under mutation is checked along with the reads.
    """

    @pytest.fixture
    def table(self, seeded_rng):
        table = Table(events_schema(INDEXED + [NEWEST]))
        churn(table, seeded_rng.fork("churn"), 700)
        return table

    def test_hash_and_sorted_equality_reads(self, table):
        check_equality_reads(table)

    def test_user_prefix_range_is_the_history(self, table):
        check_user_prefix_ranges(table)

    def test_newest_first_walk_from_a_cutoff(self, table, seeded_rng):
        check_newest_first_walks(table, seeded_rng.fork("cutoffs"))

    def test_whole_page_walks_in_both_directions(self, table, seeded_rng):
        check_page_walks(table, seeded_rng.fork("walks"))

    def test_spatial_reads_match_distance_and_box_scans(self, table, seeded_rng):
        check_spatial_reads(table, seeded_rng.fork("spatial"))

    def test_every_read_holds_through_interleaved_churn(self, seeded_rng):
        rng = seeded_rng.fork("rounds")
        table = Table(events_schema(INDEXED + [NEWEST]))
        next_seq = 0
        for _ in range(6):
            next_seq = churn(table, rng, 120, next_seq)
            check_equality_reads(table)
            check_user_prefix_ranges(table)
            check_newest_first_walks(table, rng)
            check_page_walks(table, rng)
            check_spatial_reads(table, rng)

    def test_stats_count_index_reads_and_scans(self, table):
        before = table.stats()
        table.find_by_index("kind", "ping")
        table.find_range("user_time", low=("u01",), high=("u01",), high_inclusive=True)
        table.scan(lambda r: r["kind"] == "ping")
        table.count(lambda r: r["kind"] == "ping")
        after = table.stats()
        assert after["index_hits"] == before["index_hits"] + 2
        assert after["scans"] == before["scans"] + 2


class TestSortedIndexMaintenance:
    def test_update_moves_row_in_index(self, seeded_rng):
        table = fill(Table(events_schema(INDEXED)), seeded_rng.fork("fill"), 30)
        table.update("e0000", {"timestamp_s": 999.0})
        ordered = list(table.rows_in_index_order("timestamp_s"))
        assert ordered[-1]["event_id"] == "e0000"

    def test_delete_removes_from_index(self, seeded_rng):
        table = fill(Table(events_schema(INDEXED)), seeded_rng.fork("fill"), 30)
        table.delete("e0001")
        assert all(row["event_id"] != "e0001" for row in table.rows_in_index_order("timestamp_s"))

    def test_null_keys_not_indexed_but_scannable(self):
        table = Table(events_schema(INDEXED))
        table.insert(
            {"event_id": "a", "user_id": "u", "kind": "ping", "timestamp_s": 1.0, "lat": None, "lon": None}
        )
        assert table.find_within("geo", GeoPoint(45.0, 7.6), 1e6) == []
        assert len(table.scan(lambda row: row["lat"] is None)) == 1

    def test_spatial_index_tracks_moves(self):
        table = Table(events_schema(INDEXED))
        table.insert(
            {"event_id": "a", "user_id": "u", "kind": "ping", "timestamp_s": 1.0, "lat": 45.0, "lon": 7.6}
        )
        table.update("a", {"lat": 46.0})
        hits = table.find_within("geo", GeoPoint(46.0, 7.6), 1000.0)
        assert [row["event_id"] for row, _d in hits] == ["a"]
        assert table.find_within("geo", GeoPoint(45.0, 7.6), 1000.0) == []
        box = BoundingBox(min_lat=45.9, min_lon=7.0, max_lat=46.1, max_lon=8.0)
        assert [row["event_id"] for row in table.find_in_bbox("geo", box)] == ["a"]


class TestKeysetCursors:
    def make_table(self, n=40):
        table = Table(events_schema(INDEXED))
        for i in range(n):
            table.insert(
                {
                    "event_id": f"e{i:04d}",
                    "user_id": "u",
                    "kind": "ping",
                    "timestamp_s": float(i // 3),  # ties exercise the seq tiebreak
                }
            )
        return table

    def test_full_walk_matches_index_order(self):
        table = self.make_table()
        assert ids(walk(table, "timestamp_s", limit=7)) == ids(
            table.rows_in_index_order("timestamp_s")
        )

    def test_descending_walk(self):
        table = self.make_table()
        assert ids(walk(table, "timestamp_s", limit=7, descending=True)) == ids(
            table.rows_in_index_order("timestamp_s", descending=True)
        )

    def test_stable_under_interleaved_inserts(self):
        table = self.make_table(30)
        first = table.page_by_index("timestamp_s", limit=10)
        served = [row["event_id"] for row in first.items]
        last_served_time = table.get(served[-1])["timestamp_s"]
        # Insert rows both before and after the cursor position mid-walk.
        table.insert({"event_id": "early", "user_id": "u", "kind": "ping", "timestamp_s": -1.0})
        table.insert({"event_id": "late", "user_id": "u", "kind": "ping", "timestamp_s": 999.0})
        token = first.next_token
        rest = []
        while token is not None:
            page = table.page_by_index("timestamp_s", limit=10, after_token=token)
            rest.extend(row["event_id"] for row in page.items)
            token = page.next_token
        # No duplicates, nothing skipped, and the late insert appears.
        assert not (set(served) & set(rest))
        assert "late" in rest and "early" not in rest
        assert all(table.get(eid)["timestamp_s"] >= last_served_time for eid in rest)

    def test_prefix_bounded_pages(self):
        table = Table(events_schema(INDEXED))
        for i in range(12):
            table.insert(
                {
                    "event_id": f"e{i}",
                    "user_id": "alice" if i % 2 else "bob",
                    "kind": "ping",
                    "timestamp_s": float(i),
                }
            )
        page = table.page_by_index(
            "user_time", limit=3, low=("alice",), high=("alice",), high_inclusive=True
        )
        users = {row["user_id"] for row in page.items}
        assert users == {"alice"} and page.next_token is not None
        page2 = table.page_by_index(
            "user_time",
            limit=10,
            after_token=page.next_token,
            low=("alice",),
            high=("alice",),
            high_inclusive=True,
        )
        assert {row["user_id"] for row in page2.items} == {"alice"}
        assert page2.next_token is None
        assert len(page.items) + len(page2.items) == 6

    def test_malformed_tokens_rejected(self):
        table = self.make_table(5)
        for bogus in ("bogus", "[]", '["x"]', '[1,2,"x"]', '{"a":1}'):
            with pytest.raises(ValidationError):
                table.page_by_index("timestamp_s", limit=2, after_token=bogus)

    def test_mistyped_token_key_rejected(self):
        table = self.make_table(5)
        with pytest.raises(ValidationError):
            table.page_by_index("timestamp_s", limit=2, after_token='["zz", 3]')

    def test_limit_validation(self):
        table = self.make_table(5)
        with pytest.raises(ValidationError):
            table.page_by_index("timestamp_s", limit=0)


class TestChangeListenersAndBatch:
    """The change counter the gateway keys weak ETags on."""

    def test_version_bumps_on_every_mutation(self):
        table = Table(events_schema())
        v0 = table.version
        table.insert({"event_id": "a", "user_id": "u", "kind": "p", "timestamp_s": 1.0})
        table.update("a", {"timestamp_s": 2.0})
        table.delete("a")
        assert table.version == v0 + 3
        table.insert({"event_id": "b", "user_id": "u", "kind": "p", "timestamp_s": 3.0})
        table.clear()
        table.clear()  # nothing left to remove: no bump
        assert table.version == v0 + 5


class TestSnapshotRestore:
    def test_database_round_trip_preserves_queries(self, seeded_rng):
        db = Database("d")
        table = db.create_table(events_schema(INDEXED))
        fill(table, seeded_rng.fork("fill"), 120)
        reference_eq = table.find_by_index("kind", "like")
        reference_order = list(table.rows_in_index_order("timestamp_s"))
        payload = json.loads(json.dumps(db.snapshot()))

        db2 = Database("d")
        table2 = db2.create_table(events_schema(INDEXED))
        db2.restore(payload)
        assert table2.find_by_index("kind", "like") == reference_eq
        assert list(table2.rows_in_index_order("timestamp_s")) == reference_order
        assert len(table2) == 120

    def test_restore_validates_payload(self):
        db = Database("d")
        db.create_table(events_schema())
        with pytest.raises(ValidationError):
            db.restore({"version": 99, "tables": {}})
        with pytest.raises(ValidationError):
            db.restore({"version": 1, "tables": {"ghost": []}})

    def test_page_cursor_round_trips_json(self):
        page = Page(items=[1, 2, 3], next_token='["x",3]')
        assert list(page) == [1, 2, 3] and len(page) == 3

    def test_restore_preserves_version_counter(self):
        """Replaying N rows must not rewind the change counter: ETags
        minted before the snapshot would collide and serve stale 304s."""
        db = Database("d")
        table = db.create_table(events_schema())
        for i in range(5):
            table.insert({"event_id": f"e{i}", "user_id": "u", "kind": "p", "timestamp_s": 1.0})
        table.update("e3", {"timestamp_s": 2.0})  # version ahead of row count
        version = table.version
        payload = json.loads(json.dumps(db.snapshot()))
        db2 = Database("d")
        table2 = db2.create_table(events_schema())
        db2.restore(payload)
        assert table2.version >= version

