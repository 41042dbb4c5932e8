"""Direct tests for transition-table construction (section 6.3)."""

import pytest

from repro.core.transition import (
    TRANSITION_NAMES,
    TransitionShape,
    transition_schema,
    transition_static_map,
)
from repro.database import Database
from repro.storage.schema import ColumnType, Schema


@pytest.fixture
def db():
    database = Database()
    database.execute("create table t (k text, v real)")
    return database


def build(db, mutate):
    txn = db.begin()
    mutate(txn)
    table = db.catalog.table("t")
    transitions = TransitionShape(table).build(db, txn.log.for_table("t"), TRANSITION_NAMES)
    txn.commit()
    return transitions


class TestSchema:
    def test_adds_execute_order(self):
        schema = transition_schema(Schema.of(("a", ColumnType.INT)))
        assert schema.names() == ("a", "execute_order")
        assert schema.column("execute_order").type is ColumnType.INT

    def test_static_map_shape(self):
        base = Schema.of(("a", ColumnType.INT), ("b", ColumnType.TEXT))
        static_map = transition_static_map(base, "t.new")
        assert static_map.ptr_slots == 1
        assert static_map.mat_slots == 1  # execute_order


class TestConstruction:
    def test_all_four_tables_exist(self, db):
        transitions = build(db, lambda txn: txn.insert("t", {"k": "a", "v": 1.0}))
        for name in TRANSITION_NAMES:
            assert transitions[name].name == name

    def test_insert_rows(self, db):
        transitions = build(db, lambda txn: txn.insert("t", {"k": "a", "v": 1.0}))
        assert transitions["inserted"].to_dicts() == [
            {"k": "a", "v": 1.0, "execute_order": 1}
        ]
        assert len(transitions["deleted"]) == 0
        assert len(transitions["new"]) == 0

    def test_update_rows_pair(self, db):
        db.execute("insert into t values ('a', 1.0)")

        def mutate(txn):
            table = db.catalog.table("t")
            txn.update_columns(table, table.get_one("k", "a"), {"v": 2.0})

        transitions = build(db, mutate)
        assert transitions["old"].to_dicts() == [{"k": "a", "v": 1.0, "execute_order": 1}]
        assert transitions["new"].to_dicts() == [{"k": "a", "v": 2.0, "execute_order": 1}]

    def test_mixed_ops_interleave_orders(self, db):
        db.execute("insert into t values ('x', 0.0)")

        def mutate(txn):
            table = db.catalog.table("t")
            txn.insert("t", {"k": "a", "v": 1.0})  # order 1
            txn.update_columns(table, table.get_one("k", "x"), {"v": 5.0})  # order 2
            txn.delete_record(table, table.get_one("k", "a"))  # order 3

        transitions = build(db, mutate)
        assert transitions["inserted"].to_dicts()[0]["execute_order"] == 1
        assert transitions["new"].to_dicts()[0]["execute_order"] == 2
        assert transitions["deleted"].to_dicts()[0]["execute_order"] == 3

    def test_rows_are_pointer_based(self, db):
        """Transition rows point at the standard records (no value copies)."""
        transitions = build(db, lambda txn: txn.insert("t", {"k": "a", "v": 1.0}))
        inserted = transitions["inserted"]
        (ptrs, mats) = next(inserted.scan_raw())
        assert len(ptrs) == 1
        assert ptrs[0].values == ["a", 1.0]
        assert mats == (1,)

    def test_deleted_record_pinned(self, db):
        db.execute("insert into t values ('a', 1.0)")
        table = db.catalog.table("t")
        record = table.get_one("k", "a")

        def mutate(txn):
            txn.delete_record(table, record)

        transitions = build(db, mutate)
        assert record.pins > 0  # kept alive for the transition table
        transitions["deleted"].retire()
        assert record.pins == 0

    def test_schema_objects_cached_per_table(self, db):
        """Plans are prepared against one transition shape per table object:
        every firing reuses it until DDL moves the catalog version."""
        db.register_function("f", lambda ctx: None)
        db.execute("create rule r on t when inserted then execute f")
        table = db.catalog.table("t")
        first = db.rule_engine.programs()[table].shape
        db.execute("insert into t values ('a', 1.0)")
        assert db.rule_engine.programs()[table].shape is first
        assert first.schema == transition_schema(table.schema)
        db.execute("create index t_k on t (k)")
        assert db.rule_engine.programs()[table].shape is not first

    def test_only_the_named_tables_are_built_all_entries_charged(self, db):
        db.execute("insert into t values ('x', 0.0)")
        table = db.catalog.table("t")
        txn = db.begin()
        txn.insert("t", {"k": "a", "v": 1.0})
        txn.update_columns(table, table.get_one("k", "x"), {"v": 5.0})
        before = db.background_meter.ops["transition_row"]
        transitions = TransitionShape(table).build(db, txn.log.for_table("t"), ["new"])
        assert list(transitions) == ["new"]
        assert db.background_meter.ops["transition_row"] - before == 3
        transitions["new"].retire()
        txn.abort()
