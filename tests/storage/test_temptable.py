"""Tests for pointer-based temporary tables and static maps."""

import pytest

from repro.errors import BindingError, SchemaError
from repro.storage.schema import Column, ColumnType, Schema
from repro.storage.table import Table
from repro.storage.temptable import ColumnSource, StaticMap, TempTable, project_columns


def stock_table():
    table = Table("stocks", Schema.of(("symbol", ColumnType.TEXT), ("price", ColumnType.REAL)))
    r1 = table.insert(["A", 1.0])
    r2 = table.insert(["B", 2.0])
    return table, r1, r2


def pointer_schema():
    return Schema.of(
        ("symbol", ColumnType.TEXT),
        ("price", ColumnType.REAL),
        ("tag", ColumnType.INT),
    )


def pointer_map():
    # symbol/price via pointer slot 0, tag materialized.
    return StaticMap(
        [ColumnSource("ptr", 0, 0), ColumnSource("ptr", 0, 1), ColumnSource("mat", 0)],
        ptr_labels=("stocks",),
    )


class TestStaticMap:
    def test_all_materialized(self):
        static_map = StaticMap.all_materialized(3)
        assert static_map.ptr_slots == 0
        assert static_map.mat_slots == 3

    def test_all_pointer(self):
        schema = Schema.of(("a", ColumnType.INT), ("b", ColumnType.INT))
        static_map = StaticMap.all_pointer(schema, "src")
        assert static_map.ptr_slots == 1
        assert static_map.mat_slots == 0

    def test_bad_kind(self):
        with pytest.raises(SchemaError):
            ColumnSource("weird", 0)

    def test_signature_equality(self):
        assert pointer_map().signature() == pointer_map().signature()

    def test_repr_mentions_labels(self):
        assert "stocks" in repr(pointer_map())


class TestTempTable:
    def test_pointer_rows_read_through(self):
        _table, r1, _r2 = stock_table()
        temp = TempTable("t", pointer_schema(), pointer_map())
        temp.append_row((r1,), (7,))
        assert temp.row_values(0) == ["A", 1.0, 7]
        assert temp.value_at(0, 1) == 1.0
        assert temp.value_at(0, 2) == 7

    def test_append_pins_records(self):
        _table, r1, _r2 = stock_table()
        temp = TempTable("t", pointer_schema(), pointer_map())
        temp.append_row((r1,), (0,))
        assert r1.pins == 1
        temp.append_row((r1,), (1,))
        assert r1.pins == 2

    def test_retire_unpins(self):
        _table, r1, _r2 = stock_table()
        temp = TempTable("t", pointer_schema(), pointer_map())
        temp.append_row((r1,), (0,))
        temp.retire()
        assert r1.pins == 0
        assert temp.retired
        temp.retire()  # idempotent
        assert r1.pins == 0

    def test_retired_table_rejects_appends(self):
        temp = TempTable("t", Schema.of(("a", ColumnType.INT)))
        temp.retire()
        with pytest.raises(SchemaError):
            temp.append_values([1])

    def test_sees_old_version_after_update(self):
        """A bound table must reflect condition-evaluation-time state."""
        table, r1, _r2 = stock_table()
        temp = TempTable("t", pointer_schema(), pointer_map())
        temp.append_row((r1,), (0,))
        table.update(r1, ["A", 99.0])
        assert temp.row_values(0) == ["A", 1.0, 0]  # still the old image

    def test_arity_checks(self):
        _table, r1, _r2 = stock_table()
        temp = TempTable("t", pointer_schema(), pointer_map())
        with pytest.raises(SchemaError):
            temp.append_row((), (0,))
        with pytest.raises(SchemaError):
            temp.append_row((r1,), ())

    def test_schema_map_mismatch(self):
        with pytest.raises(SchemaError):
            TempTable("t", Schema.of(("a", ColumnType.INT)), pointer_map())

    def test_append_values_requires_all_mat(self):
        temp = TempTable("t", pointer_schema(), pointer_map())
        with pytest.raises(SchemaError):
            temp.append_values(["A", 1.0, 0])

    def test_scan_values(self):
        temp = TempTable("t", Schema.of(("a", ColumnType.INT), ("b", ColumnType.INT)))
        temp.append_values([1, 2])
        temp.append_values([3, 4])
        assert list(temp.scan_values()) == [[1, 2], [3, 4]]

    def test_to_dicts(self):
        temp = TempTable("t", Schema.of(("a", ColumnType.INT)))
        temp.append_values([5])
        assert temp.to_dicts() == [{"a": 5}]


class TestAbsorb:
    def test_absorb_appends_and_pins(self):
        """The unique-transaction batching primitive (sections 2, 6.3)."""
        _table, r1, r2 = stock_table()
        schema, static_map = pointer_schema(), pointer_map()
        first = TempTable("matches", schema, static_map)
        first.append_row((r1,), (0,))
        second = TempTable("matches", schema, static_map)
        second.append_row((r2,), (1,))
        added = first.absorb(second)
        assert added == 1
        assert len(first) == 2
        assert r2.pins == 2  # pinned by both tables
        second.retire()
        assert r2.pins == 1  # still pinned by the absorbing table
        assert first.row_values(1) == ["B", 2.0, 1]

    def test_move_from_moves_rows_and_their_pins(self):
        """The absorb for a table nobody else reads: no second pin, and the
        source is left retired with nothing to unpin."""
        _table, r1, r2 = stock_table()
        schema, static_map = pointer_schema(), pointer_map()
        first = TempTable("matches", schema, static_map)
        first.append_row((r1,), (0,))
        second = TempTable("matches", schema, static_map)
        second.append_row((r2,), (1,))
        mark = first.savepoint()
        assert first.move_from(second) == 1
        assert len(first) == 2 and len(second) == 0
        assert second.retired
        assert r2.pins == 1  # the pin second took, now first's
        second.retire()  # idempotent: the moved pin is not dropped
        assert r2.pins == 1
        assert first.row_values(1) == ["B", 2.0, 1]
        with pytest.raises(SchemaError):
            first.move_from(second)  # a retired source has nothing to give
        first.rollback(mark)  # the undo journal's truncate releases moved pins
        assert len(first) == 1 and r2.pins == 0 and r1.pins == 1
        first.retire()
        assert r1.pins == 0

    def test_move_from_checks_definitions(self):
        schema = pointer_schema()
        first = TempTable("m", schema, pointer_map())
        with pytest.raises(BindingError):
            first.move_from(TempTable("m", schema))  # all materialized
        with pytest.raises(BindingError):
            first.move_from(TempTable("m", Schema.of(("a", ColumnType.INT))))

    def test_row_sink_checks_arity_once(self):
        _table, r1, _r2 = stock_table()
        table = TempTable("m", pointer_schema(), pointer_map())
        with pytest.raises(SchemaError):
            table.row_sink(2, 1)
        with pytest.raises(SchemaError):
            table.row_sink(1, 0)
        append = table.row_sink(1, 1)
        r1.pin()  # the sink's contract: pinned by the caller, before the append
        append(((r1,), (7,)))
        assert table.row_values(0) == ["A", 1.0, 7]
        table.retire()
        assert r1.pins == 0
        with pytest.raises(SchemaError):
            table.row_sink(1, 1)  # retired

    def test_absorb_schema_mismatch(self):
        first = TempTable("m", Schema.of(("a", ColumnType.INT)))
        second = TempTable("m", Schema.of(("b", ColumnType.INT)))
        with pytest.raises(BindingError):
            first.absorb(second)

    def test_absorb_map_mismatch(self):
        schema = pointer_schema()
        first = TempTable("m", schema, pointer_map())
        second = TempTable("m", schema)  # all materialized
        with pytest.raises(BindingError):
            first.absorb(second)


class TestProjectColumns:
    def test_projection(self):
        _table, r1, r2 = stock_table()
        temp = TempTable("t", pointer_schema(), pointer_map())
        temp.append_row((r1,), (0,))
        temp.append_row((r2,), (1,))
        projected = project_columns(temp, "p", ["price", "tag"])
        assert list(projected.scan_values()) == [[1.0, 0], [2.0, 1]]
        assert projected.schema.names() == ("price", "tag")
