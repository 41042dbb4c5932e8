"""Tests for pointer-based temporary tables and static maps."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.net_effect import FoldedTable, compact_spec
from repro.core.unique import _group_rows
from repro.database import Database
from repro.errors import BindingError, SchemaError
from repro.storage import temptable
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
        first.rollback(mark)  # the failed commit's rollback releases moved pins
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


class TestRetiredReads:
    """A retired table holds no rows; reading it must fail as loudly as
    writing it does, not answer "empty" (derived data would go stale)."""

    def retired(self):
        temp = TempTable("m", Schema.of(("a", ColumnType.INT), ("b", ColumnType.INT)))
        temp.append_values([1, 2])
        assert list(temp.scan_values()) == [[1, 2]] and temp.to_dicts() == [{"a": 1, "b": 2}]
        temp.retire()
        return temp

    @pytest.mark.parametrize(
        "read",
        [
            lambda t: t.scan_values(),
            lambda t: t.scan_raw(),
            lambda t: t.scan_columns([0]),
            lambda t: t.row_values(0),
            lambda t: t.value_at(0, 0),
            lambda t: t.to_dicts(),
            lambda t: project_columns(t, "p", ["a"]),
            lambda t: t.subset([]),
            lambda t: TempTable("m", t.schema).absorb(t),
            lambda t: _group_rows(t, [0]),
        ],
        ids=[
            "scan_values", "scan_raw", "scan_columns", "row_values", "value_at",
            "to_dicts", "project_columns", "subset", "absorb", "group_rows",
        ],
    )
    def test_every_read_entry_point_refuses(self, read):
        with pytest.raises(SchemaError, match="temp table 'm' is retired"):
            read(self.retired())

    def test_folded_absorb_refuses_a_retired_source(self):
        source = self.retired()
        folded = FoldedTable("m", source.schema, compact_spec(("a", "b"), ("a",)))
        with pytest.raises(SchemaError, match="is retired"):
            folded.absorb(source)

    def test_length_and_state_stay_readable(self):
        temp = self.retired()
        assert len(temp) == 0 and temp.retired and "retired" in repr(temp)


# ---------------------------------------------------------------------------
# The compiled reader against the interpretation it replaced
# ---------------------------------------------------------------------------


def reference_row(static_map, ptrs, mats):
    """The static map, interpreted per row and per column — the spelling the
    library deleted, kept here as the oracle."""
    return [
        ptrs[source.slot].values[source.offset] if source.kind == "ptr" else mats[source.slot]
        for source in static_map.sources
    ]


WIDTH = 3  # columns of every base table a pointer slot refers to


@st.composite
def bound_tables(draw):
    """A pointer-backed table over one to three base tables, some of whose
    records were superseded after the rows were bound."""
    ptr_slots = draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(("ptr", "mat")), min_size=1, max_size=6))
    sources, mat_slots = [], 0
    for kind in kinds:
        if kind == "ptr":
            slot, offset = draw(st.integers(0, ptr_slots - 1)), draw(st.integers(0, WIDTH - 1))
            sources.append(ColumnSource("ptr", slot, offset))
        else:
            sources.append(ColumnSource("mat", mat_slots))
            mat_slots += 1
    static_map = StaticMap(sources)
    schema = Schema([Column(f"c{i}", ColumnType.INT) for i in range(len(sources))])
    bases = [
        Table(f"base{slot}", Schema([Column(f"b{i}", ColumnType.INT) for i in range(WIDTH)]))
        for slot in range(static_map.ptr_slots)
    ]
    table = TempTable("m", schema, static_map)
    values = st.integers(0, 3)  # few values: groups and folds collide
    pointed = []
    for _ in range(draw(st.integers(0, 6))):
        records = [
            base.insert(draw(st.lists(values, min_size=WIDTH, max_size=WIDTH))) for base in bases
        ]
        table.append_row(records, draw(st.lists(values, min_size=mat_slots, max_size=mat_slots)))
        pointed.extend(zip(bases, records))
    # Supersede some pointed-to records after binding: the pinned old
    # version is what a bound row reads.
    for base, record in pointed:
        if record.in_table and draw(st.booleans()):
            base.update(record, [value + 10 for value in record.values])
    return table


def check_reads(table, offsets):
    expected = [reference_row(table.static_map, ptrs, mats) for ptrs, mats in table.scan_raw()]
    names = table.schema.names()
    assert list(table.scan_values()) == expected
    assert all(type(row) is list for row in table.scan_values())
    assert [table.row_values(i) for i in range(len(table))] == expected
    assert [
        [table.value_at(i, j) for j in range(len(names))] for i in range(len(table))
    ] == expected
    assert table.to_dicts() == [dict(zip(names, row)) for row in expected]
    picked = [tuple(row[at] for at in offsets) for row in expected]
    assert list(table.scan_columns(offsets)) == picked
    if len(set(offsets)) == len(offsets):
        projected = project_columns(table, "p", [names[at] for at in offsets])
        assert list(projected.scan_values()) == [list(row) for row in picked]
        assert projected.static_map.ptr_slots == 0
    groups = _group_rows(table, offsets)
    assert list(groups) == list(dict.fromkeys(picked))
    raws = list(table.scan_raw())
    for key, group in groups.items():
        assert [id(raw) for raw in group] == [
            id(raw) for raw, got in zip(raws, picked) if got == key
        ]


class TestCompiledReaderAgainstTheInterpretation:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_pointer_backed(self, data):
        table = data.draw(bound_tables())
        width = len(table.schema)
        check_reads(table, data.draw(st.lists(st.integers(0, width - 1), max_size=width)))
        table.retire()

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_all_materialized_and_folded(self, data):
        """A resurrected task's table (the default map) and a ``compact on``
        task's table read the same values as the pointer-backed table they
        were filled from, through a different map."""
        source = data.draw(bound_tables())
        width = len(source.schema)
        offsets = data.draw(st.lists(st.integers(0, width - 1), max_size=width))
        expected = list(source.scan_values())
        plain = TempTable("m", source.schema)
        for values in source.scan_values():
            plain.append_values(values)
        assert list(plain.scan_values()) == expected
        check_reads(plain, offsets)
        key = data.draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=2, unique=True))
        names = source.schema.names()
        folded = FoldedTable("m", source.schema, compact_spec(names, [names[at] for at in key]))
        assert folded.absorb(source) == len(source) == folded.rows_in
        # No old_/new_ image columns: per key the last row wins, whole.
        last = {tuple(row[at] for at in key): row for row in expected}
        assert list(folded.scan_values()) == list(last.values())
        check_reads(folded, offsets)
        folded.seal()
        check_reads(folded, offsets)
        source.retire()

    def test_pinned_old_version_is_what_is_read(self):
        table, r1, _r2 = stock_table()
        temp = TempTable("t", pointer_schema(), pointer_map())
        temp.append_row((r1,), (0,))
        table.update(r1, ["A", 99.0])
        assert list(temp.scan_columns([1, 0])) == [(1.0, "A")]
        assert temp.value_at(0, 1) == 1.0 and temp.to_dicts()[0]["price"] == 1.0
        assert list(_group_rows(temp, [1])) == [(1.0,)]


@pytest.fixture
def compiled(monkeypatch):
    """The source of every row reader compiled during the test."""
    sources = []
    real = temptable.generate

    def recording(lines, name, filename, names):
        sources.append("\n".join(lines))
        return real(lines, name, filename, names)

    monkeypatch.setattr(temptable, "generate", recording)
    temptable._reader.cache_clear()
    return sources


class TestReaderCache:
    def test_a_thousand_default_maps_build_one_reader(self, compiled):
        schema = Schema.of(("a", ColumnType.INT), ("b", ColumnType.INT), ("c", ColumnType.INT))
        for i in range(1000):
            temp = TempTable(f"t{i}", Schema(list(schema.columns)))
            temp.append_values([i, 1, 2])
            assert list(temp.scan_values()) == [[i, 1, 2]]
        assert compiled == ["def read(ptrs, mats): return [mats[0], mats[1], mats[2], ]"]

    def test_a_second_database_reuses_the_first_one_s_readers(self, compiled):
        def run():
            seen = []
            db = Database()
            db.execute("create table t (k text, v real)")
            db.register_function("f", lambda ctx: seen.extend(ctx.columns("m", "v", "k")))
            db.execute(
                "create rule r on t when inserted "
                "if select k, v from inserted bind as m then execute f unique on k"
            )
            db.execute("insert into t values ('a', 1.0), ('b', 2.0)")
            db.drain()
            return seen

        assert run() == [(1.0, "a"), (2.0, "b")]
        first = list(compiled)
        assert first  # the partition key and the function's columns, at least
        assert run() == [(1.0, "a"), (2.0, "b")]
        assert compiled == first

    def test_generated_source_holds_integers_only(self, compiled):
        """No name reaches generated code, whatever a schema calls its
        columns — and a source that is not made of integers is refused."""
        hostile = ["a'\"\n", "b\\", "import os\n"]

        def column(name):
            # Column refuses such a name; go round it, as a schema built by
            # other means (a checkpoint, a peer) one day might.
            made = Column("c", ColumnType.INT)
            object.__setattr__(made, "name", name)
            return made

        schema = Schema([column(name) for name in hostile])
        base = Table("base\"'", Schema([column(name) for name in hostile]))
        record = base.insert([1, 2, 3])
        temp = TempTable(
            "t'\n",
            schema,
            StaticMap(
                [ColumnSource("ptr", 0, 2), ColumnSource("mat", 0), ColumnSource("ptr", 0, 0)],
                ptr_labels=("x'\n",),
            ),
        )
        temp.append_row((record,), (7,))
        assert list(temp.scan_values()) == [[3, 7, 1]]
        assert list(temp.scan_columns([1, 2])) == [(7, 1)]
        assert temp.to_dicts() == [{hostile[0]: 3, hostile[1]: 7, hostile[2]: 1}]
        assert list(project_columns(temp, "p", [hostile[2]]).scan_values()) == [[1]]
        item = r"(ptrs\[\d+\]\.values\[\d+\]|mats\[\d+\]), "
        shape = re.compile(rf"def read\(ptrs, mats\): return (\(({item})*\)|\[({item})*\])")
        assert compiled and all(shape.fullmatch(source) for source in compiled), compiled
        with pytest.raises(ValueError):
            ColumnSource("mat", "0); import os; (").text("ptrs", "mats")
        with pytest.raises(ValueError):
            ColumnSource("ptr", 0, "1").text("ptrs", "mats")
