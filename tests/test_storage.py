"""Tests for the in-memory relational storage substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DuplicateError, NotFoundError, SchemaError
from repro.storage import Column, Database, IndexSpec, Schema, Table


def make_schema(name="people", indexes=()):
    return Schema(
        name=name,
        primary_key="person_id",
        columns=[
            Column("person_id", str),
            Column("age", int),
            Column("city", str, nullable=True),
            Column("score", float, has_default=True, default=0.0),
        ],
        indexes=list(indexes),
    )


def city_table():
    return Table(make_schema(indexes=[IndexSpec("city")]))


class TestSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Schema(name="x", primary_key="a", columns=[Column("a"), Column("a")])

    def test_missing_primary_key_rejected(self):
        with pytest.raises(SchemaError):
            Schema(name="x", primary_key="missing", columns=[Column("a")])

    def test_validate_row_applies_defaults(self):
        schema = make_schema()
        row = schema.validate_row({"person_id": "p1", "age": 30})
        assert row["score"] == 0.0
        assert row["city"] is None

    def test_validate_row_unknown_column(self):
        with pytest.raises(SchemaError):
            make_schema().validate_row({"person_id": "p1", "age": 3, "oops": 1})

    def test_validate_row_missing_required(self):
        with pytest.raises(SchemaError):
            make_schema().validate_row({"person_id": "p1"})

    def test_type_checking(self):
        with pytest.raises(SchemaError):
            make_schema().validate_row({"person_id": "p1", "age": "thirty"})

    def test_int_widened_to_float(self):
        row = make_schema().validate_row({"person_id": "p1", "age": 30, "score": 5})
        assert row["score"] == 5.0
        assert isinstance(row["score"], float)

    def test_non_nullable_rejects_none(self):
        with pytest.raises(SchemaError):
            make_schema().validate_row({"person_id": None, "age": 3})


class TestTable:
    def test_insert_and_get(self):
        table = Table(make_schema())
        key = table.insert({"person_id": "p1", "age": 30})
        assert key == "p1"
        assert table.get("p1")["age"] == 30

    def test_duplicate_insert_rejected(self):
        table = Table(make_schema())
        table.insert({"person_id": "p1", "age": 30})
        with pytest.raises(DuplicateError):
            table.insert({"person_id": "p1", "age": 31})

    def test_get_returns_copy(self):
        table = Table(make_schema())
        table.insert({"person_id": "p1", "age": 30})
        row = table.get("p1")
        row["age"] = 99
        assert table.get("p1")["age"] == 30

    def test_get_missing(self):
        with pytest.raises(NotFoundError):
            Table(make_schema()).get("missing")

    def test_get_or_none(self):
        assert Table(make_schema()).get_or_none("missing") is None

    def test_upsert_replaces(self):
        table = Table(make_schema())
        table.insert({"person_id": "p1", "age": 30})
        table.upsert({"person_id": "p1", "age": 41})
        assert table.get("p1")["age"] == 41
        assert len(table) == 1

    def test_update_partial(self):
        table = Table(make_schema())
        table.insert({"person_id": "p1", "age": 30, "city": "torino"})
        updated = table.update("p1", {"age": 31})
        assert updated["age"] == 31
        assert updated["city"] == "torino"

    def test_update_missing(self):
        with pytest.raises(NotFoundError):
            Table(make_schema()).update("nope", {"age": 1})

    def test_update_key_collision(self):
        table = Table(make_schema())
        table.insert({"person_id": "p1", "age": 30})
        table.insert({"person_id": "p2", "age": 31})
        with pytest.raises(DuplicateError):
            table.update("p1", {"person_id": "p2"})

    def test_delete(self):
        table = Table(make_schema())
        table.insert({"person_id": "p1", "age": 30})
        table.delete("p1")
        assert len(table) == 0
        with pytest.raises(NotFoundError):
            table.delete("p1")

    def test_secondary_index_lookup(self):
        table = city_table()
        table.insert({"person_id": "p1", "age": 30, "city": "torino"})
        table.insert({"person_id": "p2", "age": 40, "city": "milano"})
        table.insert({"person_id": "p3", "age": 50, "city": "torino"})
        rows = table.find_by_index("city", "torino")
        assert {row["person_id"] for row in rows} == {"p1", "p3"}

    def test_index_maintained_on_update_and_delete(self):
        table = city_table()
        table.insert({"person_id": "p1", "age": 30, "city": "torino"})
        table.update("p1", {"city": "milano"})
        assert table.find_by_index("city", "torino") == []
        assert len(table.find_by_index("city", "milano")) == 1
        table.delete("p1")
        assert table.find_by_index("city", "milano") == []

    def test_index_on_existing_rows(self):
        # Rows loaded by a restore (the snapshot path) are indexed too.
        rows = Table(make_schema())
        rows.insert({"person_id": "p1", "age": 30, "city": "torino"})
        table = city_table()
        table.restore(rows.snapshot())
        assert len(table.find_by_index("city", "torino")) == 1

    def test_duplicate_index_rejected(self):
        with pytest.raises(SchemaError):
            make_schema(indexes=[IndexSpec("city"), IndexSpec("city")])

    def test_unknown_index_lookup(self):
        with pytest.raises(NotFoundError):
            Table(make_schema()).find_by_index("city", "x")

    def test_computed_index(self):
        table = Table(
            make_schema(indexes=[IndexSpec("age_bucket", key=lambda row: row["age"] // 10)])
        )
        table.insert({"person_id": "p1", "age": 34})
        table.insert({"person_id": "p2", "age": 37})
        assert len(table.find_by_index("age_bucket", 3)) == 2

    def test_scan_and_count(self):
        table = Table(make_schema())
        for i in range(5):
            table.insert({"person_id": f"p{i}", "age": 20 + i})
        assert table.count() == 5
        assert table.count(lambda row: row["age"] >= 23) == 2
        assert len(table.scan(lambda row: row["age"] < 22)) == 2

    def test_clear(self):
        table = city_table()
        table.insert({"person_id": "p1", "age": 30, "city": "torino"})
        table.clear()
        assert len(table) == 0
        assert table.find_by_index("city", "torino") == []


class TestDatabase:
    def test_create_and_lookup(self):
        db = Database("test")
        db.create_table(make_schema())
        assert "people" in db
        assert db.table("people").name == "people"

    def test_duplicate_table(self):
        db = Database("test")
        db.create_table(make_schema())
        with pytest.raises(DuplicateError):
            db.create_table(make_schema())

    def test_missing_table(self):
        with pytest.raises(NotFoundError):
            Database("test").table("ghost")

    def test_drop_table(self):
        db = Database("test")
        db.create_table(make_schema())
        db.drop_table("people")
        assert "people" not in db
        with pytest.raises(NotFoundError):
            db.drop_table("people")

    def test_query_and_total_rows(self):
        db = Database("test")
        db.create_table(make_schema())
        db.table("people").insert({"person_id": "p1", "age": 20})
        assert db.total_rows() == 1
        assert db.table("people").count() == 1
        assert db.table_names() == ["people"]


class TestPropertyBased:
    @given(
        st.lists(
            st.tuples(st.text(min_size=1, max_size=6), st.integers(min_value=0, max_value=99)),
            min_size=1,
            max_size=30,
            unique_by=lambda pair: pair[0],
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_insert_then_get_roundtrip(self, rows):
        table = Table(make_schema())
        for person_id, age in rows:
            table.insert({"person_id": person_id, "age": age})
        assert len(table) == len(rows)
        for person_id, age in rows:
            assert table.get(person_id)["age"] == age
