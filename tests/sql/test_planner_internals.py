"""White-box tests of planning decisions: join strategies, ordering, each
statement's plan memo, and provenance through binding."""

import pytest

from repro.database import Database
from repro.errors import PlanError
from repro.sql.executor import select_plan
from repro.sql.planner import (
    _HashJoinStep,
    _IndexJoinStep,
    _NestedJoinStep,
    _ScanStep,
    plan_select,
)
from repro.storage.temptable import TempTable
from repro.storage.schema import ColumnType, Schema
from tests.sql.test_compiled_pipeline import plan_builds


@pytest.fixture
def db():
    database = Database()
    database.execute_script(
        """
        create table big (k text, payload real);
        create index big_k on big (k);
        create table small (k text, tag text);
        """
    )
    return database


def plan_for(db, sql, namespace=None):
    return plan_select(db, db.parse(sql), namespace)


def bound_table(rows):
    schema = Schema.of(("k", ColumnType.TEXT), ("x", ColumnType.REAL))
    table = TempTable("m", schema)
    for row in rows:
        table.append_values(row)
    return table


class TestJoinStrategy:
    def test_indexed_join_uses_index(self, db):
        plan = plan_for(db, "select payload from big, small where big.k = small.k")
        kinds = [type(step) for step in plan.steps]
        assert kinds[0] is _ScanStep
        assert _IndexJoinStep in kinds

    def test_unindexed_join_uses_hash(self, db):
        plan = plan_for(
            db, "select tag from big, small where small.k = big.k and payload > 0"
        )
        # small has no index on k; joining small INTO big's pipeline hashes.
        assert any(isinstance(step, (_HashJoinStep, _IndexJoinStep)) for step in plan.steps)

    def test_cartesian_uses_nested(self, db):
        plan = plan_for(db, "select payload from big, small")
        assert any(isinstance(step, _NestedJoinStep) for step in plan.steps)

    def test_temp_table_drives_the_pipeline(self, db):
        """Bound/transition tables (small) are scanned first; the standard
        table is probed via its index — the shape that makes rule-condition
        evaluation cheap (section 6.3)."""
        namespace = {"m": bound_table([["a", 1.0]])}
        plan = plan_for(
            db, "select payload from m, big where big.k = m.k", namespace
        )
        assert isinstance(plan.steps[0], _ScanStep)
        assert plan.steps[0].desc.name == "m"
        assert isinstance(plan.steps[1], _IndexJoinStep)
        assert plan.steps[1].desc.name == "big"

    def test_single_table_eq_probe(self, db):
        plan = plan_for(db, "select payload from big where k = 'x'")
        scan = plan.steps[0]
        assert isinstance(scan, _ScanStep)
        assert scan.eq_columns == ("k",)

    def test_duplicate_alias_rejected(self, db):
        with pytest.raises(PlanError):
            plan_for(db, "select 1 as one from big b, small b")


class TestPlanCache:
    def test_same_sql_same_plan(self, db):
        first = select_plan(db, db.parse("select payload from big"))
        second = select_plan(db, db.parse("select payload from big"))
        assert first is second

    def test_index_ddl_invalidates(self, db):
        first = select_plan(db, db.parse("select tag from small where k = 'x'"))
        db.execute("create index small_k on small (k)")
        second = select_plan(db, db.parse("select tag from small where k = 'x'"))
        assert first is not second

    def test_bound_tables_share_plan_across_firings(self, db):
        """Different TempTable instances with the same schema/static-map
        objects (as successive rule firings produce) reuse the plan."""
        schema = Schema.of(("k", ColumnType.TEXT), ("x", ColumnType.REAL))
        first_table = TempTable("m", schema)
        second_table = TempTable("m", schema, first_table.static_map)
        sql = "select x from m"
        first = select_plan(db, db.parse(sql), {"m": first_table})
        second = select_plan(db, db.parse(sql), {"m": second_table})
        assert first is second

    def test_equal_but_distinct_schemas_share_one_plan(self, db):
        """The key is the shape by value: a collected schema whose ``id()``
        a different shape later reuses can never be handed the wrong plan,
        and equal shapes need not be the same objects to share one."""
        first = select_plan(db, db.parse("select k from m"), {"m": bound_table([])})
        second = select_plan(db, db.parse("select k from m"), {"m": bound_table([])})
        assert first is second

    def test_different_schema_different_plan(self, db):
        """Two shapes under one name never share: the plan bakes offsets."""
        sql = db.parse("select k from m")
        first = select_plan(db, sql, {"m": bound_table([])})
        wider = TempTable("m", Schema.of(("x", ColumnType.REAL), ("k", ColumnType.TEXT)))
        second = select_plan(db, sql, {"m": wider})
        assert first is not second
        wider.append_values([1.0, "a"])
        assert second.execute(db, None, namespace={"m": wider}).rows() == [["a"]]
        # Same schema, different static map (pointer-backed vs materialized).
        db.execute("insert into small values ('a', 't')")
        pointer = db.query("select k, tag from small").bind("m", db)
        inline = TempTable("m", pointer.schema)
        by_pointer = select_plan(db, sql, {"m": pointer})
        assert by_pointer is not select_plan(db, sql, {"m": inline})
        assert by_pointer.execute(db, None, namespace={"m": pointer}).rows() == [["a"]]
        pointer.retire()


    def test_view_maintenance_run_keeps_the_plan_count(self, monkeypatch):
        """A run shaped like the e2e ``sql_views_mixed`` workload — two
        maintained views, price updates, position opens and closes, three
        kinds of read — plans each statement shape once however many
        firings bind fresh tables: every build happens by the end of the
        first round.  The value-keyed plan cache built 32; one more here is
        ``materialize``'s populate, planned again after its own DDL moved
        ``Catalog.version``."""
        from repro.views.maintain import materialize

        builds = plan_builds(monkeypatch)
        after_first_round = None
        db = Database()
        db.execute_script(
            """
            create table stocks (symbol text, price real);
            create index stocks_symbol on stocks (symbol);
            create table positions (pos_id text, symbol text, shares real);
            create index positions_pos on positions (pos_id);
            create index positions_symbol on positions (symbol);
            """
        )
        for i in range(6):
            db.execute(f"insert into stocks values ('S{i}', {10.0 + i})")
        for i in range(18):
            db.execute(f"insert into positions values ('P{i}', 'S{i % 6}', {1.0 + i})")
        db.execute(
            "create view position_values as "
            "select pos_id, positions.symbol as symbol, shares * price as value "
            "from positions, stocks where positions.symbol = stocks.symbol"
        )
        db.execute(
            "create view symbol_exposure as "
            "select positions.symbol as symbol, sum(shares * price) as exposure "
            "from positions, stocks where positions.symbol = stocks.symbol "
            "group by positions.symbol"
        )
        materialize(db, "position_values", unique=True, delay=0.5, key=("pos_id",))
        materialize(db, "symbol_exposure", unique=True, unique_on=("symbol",), delay=0.5)
        for i in range(40):
            symbol = {"symbol": f"S{i % 6}"}
            db.execute(
                "update stocks set price = :price where symbol = :symbol",
                {**symbol, "price": 20.0 + i},
            )
            db.execute(
                "insert into positions values (:pos_id, :symbol, :shares)",
                {**symbol, "pos_id": f"X{i}", "shares": 2.0},
            )
            if i % 3 == 0:
                db.execute("delete from positions where pos_id = :pos_id", {"pos_id": f"P{i // 3}"})
            db.query("select exposure from symbol_exposure where symbol = :symbol", symbol)
            db.query("select pos_id, value from position_values where symbol = :symbol", symbol)
            db.query("select symbol, exposure from symbol_exposure order by exposure desc limit 10")
            db.advance(0.3)
            db.drain()
            if after_first_round is None:
                after_first_round = len(builds)
        assert len(builds) == after_first_round <= 33


def test_join_order_does_not_depend_on_emptiness():
    """A join is scored by whether an index *exists*, never by whether the
    table or the index holds rows: a plan made while ``c`` is empty keeps
    the order and step kinds of one made after it filled (the plan is kept
    until ``Catalog.version`` moves, so an empty-time order would stick)."""

    def plan_of(filled: bool):
        db = Database()
        db.execute_script(
            """
            create table a (k int);
            create table b (k int);
            create table c (k int);
            create index c_k on c (k);
            insert into a values (1);
            insert into b values (1);
            """
        )
        if filled:
            db.execute("insert into c values (1)")
        plan = plan_for(db, "select a.k from a, b, c where b.k = a.k and c.k = a.k")
        return [desc.binding for desc in plan.sources], [type(step) for step in plan.steps]

    expected = (["a", "c", "b"], [_ScanStep, _IndexJoinStep, _HashJoinStep])
    assert plan_of(False) == plan_of(True) == expected


@pytest.mark.parametrize("index, expected", [
    ("c (k)", (["a", "b", "c"], [_ScanStep, _HashJoinStep, _HashJoinStep])),
    ("c (k, w)", (["a", "c", "b"], [_ScanStep, _IndexJoinStep, _HashJoinStep])),
], ids=["first-key-column", "full-key"])
def test_a_join_scores_as_indexed_exactly_when_it_probes_an_index(index, expected):
    """``c`` joins on ``(k, w)``.  An index on ``k`` alone cannot serve that
    probe, so ``c`` is scored like the unindexed ``b`` and joins after it, by
    hash; an index on ``(k, w)`` puts ``c`` first, as an index join."""
    db = Database()
    db.execute_script(
        f"""
        create table a (k int, w int);
        create table b (k int);
        create table c (k int, w int);
        create index c_k on {index};
        """
    )
    plan = plan_for(
        db, "select a.k from a, b, c where b.k = a.k and c.k = a.k and c.w = a.w"
    )
    order = [desc.binding for desc in plan.sources]
    assert (order, [type(step) for step in plan.steps]) == expected


class TestBindingProvenance:
    def test_rule_binding_reuses_schema_across_firings(self, db):
        """BindSpec sharing: two firings of one rule produce bound tables
        with identical Schema objects, keeping downstream plans cached."""
        db.register_function("f", lambda ctx: None)
        db.execute(
            "create rule r on big when inserted "
            "if select k, payload from inserted bind as m "
            "then execute f unique after 50.0 seconds"
        )
        db.execute("insert into big values ('a', 1.0)")
        task = db.unique_manager.pending_tasks("f")[0]
        first_schema = task.bound_tables["m"].schema
        db.drain()
        db.execute("insert into big values ('b', 2.0)")
        second = db.unique_manager.pending_tasks("f")[0]
        assert second.bound_tables["m"].schema is first_schema

    def test_transitive_pointers_reach_base_records(self, db):
        """Binding from a transition table points straight at the standard
        record — no copies at any hop (section 6.1)."""
        db.register_function("f", lambda ctx: None)
        db.execute(
            "create rule r on big when inserted "
            "if select k, payload from inserted bind as m "
            "then execute f unique after 50.0 seconds"
        )
        db.execute("insert into big values ('a', 1.0)")
        task = db.unique_manager.pending_tasks("f")[0]
        bound = task.bound_tables["m"]
        (ptrs, _mats) = next(bound.scan_raw())
        base_record = db.catalog.table("big").get_one("k", "a")
        assert ptrs[0] is base_record
        db.drain()


class TestOrderingEdges:
    def test_order_by_nulls_last(self, db):
        db.execute("insert into big values ('a', 2.0), ('b', null), ('c', 1.0)")
        rows = db.query("select k from big order by payload").rows()
        assert rows == [["c"], ["a"], ["b"]]

    def test_order_by_mixed_directions(self, db):
        db.execute("insert into big values ('a', 1.0), ('b', 1.0), ('c', 2.0)")
        rows = db.query("select k, payload from big order by payload desc, k").rows()
        assert rows == [["c", 2.0], ["a", 1.0], ["b", 1.0]]

    def test_limit_zero(self, db):
        db.execute("insert into big values ('a', 1.0)")
        assert db.query("select k from big limit 0").rows() == []


class TestRangeScans:
    @pytest.fixture
    def rdb(self):
        database = Database()
        database.execute("create table series (k int, v text)")
        database.execute("create index series_k on series (k) using rbtree")
        for i in range(50):
            database.execute(f"insert into series values ({i}, 'v{i}')")
        return database

    def _scan_rows(self, database, sql):
        before = database.background_meter.ops.get("row_scan", 0)
        rows = database.query(sql).rows()
        after = database.background_meter.ops.get("row_scan", 0)
        return rows, after - before

    def test_between_style_range_uses_index(self, rdb):
        rows, scanned = self._scan_rows(
            rdb, "select k from series where k >= 10 and k <= 12 order by k"
        )
        assert rows == [[10], [11], [12]]
        assert scanned == 0  # no full scan

    def test_exclusive_bounds(self, rdb):
        rows, _ = self._scan_rows(
            rdb, "select k from series where k > 10 and k < 13 order by k"
        )
        assert rows == [[11], [12]]

    def test_one_sided_range(self, rdb):
        rows, scanned = self._scan_rows(rdb, "select k from series where k >= 48 order by k")
        assert rows == [[48], [49]]
        assert scanned == 0

    def test_flipped_literal_side(self, rdb):
        rows, scanned = self._scan_rows(rdb, "select k from series where 47 < k order by k")
        assert rows == [[48], [49]]
        assert scanned == 0

    def test_hash_index_cannot_range(self, rdb):
        rdb.execute("create table h (k int)")
        rdb.execute("create index h_k on h (k)")  # hash
        rdb.execute("insert into h values (1), (2), (3)")
        rows, scanned = self._scan_rows(rdb, "select k from h where k > 1 order by k")
        assert rows == [[2], [3]]
        assert scanned >= 3  # fell back to a full scan

    def test_range_with_extra_residual(self, rdb):
        rows, _ = self._scan_rows(
            rdb,
            "select k from series where k >= 10 and k <= 14 and v != 'v12' order by k",
        )
        assert rows == [[10], [11], [13], [14]]
