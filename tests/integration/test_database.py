"""Database facade tests: DDL dispatch, scripts, stats, scalar functions."""

import pytest

from repro.database import Database
from repro.errors import CatalogError, ExecutionError, SimulationError, SqlSyntaxError, StripError


@pytest.fixture
def db():
    return Database()


class TestDdl:
    def test_create_table_types(self, db):
        table = db.execute("create table t (a int, b float, c varchar, d boolean)")
        assert table.schema.names() == ("a", "b", "c", "d")

    def test_create_index_sql(self, db):
        db.execute("create table t (a int)")
        db.execute("create index i on t (a) using rbtree")
        assert db.catalog.table("t").index_on(("a",)).kind == "rbtree"

    def test_drop_table(self, db):
        db.execute("create table t (a int)")
        db.execute("drop table t")
        assert not db.catalog.has_table("t")

    def test_drop_index_without_table_clause(self, db):
        db.execute("create table t (a int)")
        db.execute("create index i on t (a)")
        db.execute("drop index i")
        assert db.catalog.table("t").index_on(("a",)) is None

    def test_drop_unknown_index(self, db):
        with pytest.raises(CatalogError):
            db.execute("drop index nope")

    def test_drop_rule(self, db):
        db.execute("create table t (a int)")
        db.register_function("f", lambda ctx: None)
        db.execute("create rule r on t when inserted then execute f")
        db.execute("drop rule r")
        assert not db.catalog.has_rule("r")

    def test_create_rule_programmatic(self, db):
        from repro.core.rules import Rule
        from repro.sql import ast

        db.execute("create table t (a int)")
        rule = Rule(name="r", table="t", events=(ast.Event("inserted"),), function="f")
        db.create_rule(rule)
        assert db.catalog.has_rule("r")


class TestExecution:
    def test_execute_select_returns_result(self, db):
        db.execute("create table t (a int)")
        db.execute("insert into t values (1)")
        result = db.execute("select a from t")
        assert result.rows() == [[1]]

    def test_query_rejects_dml(self, db):
        db.execute("create table t (a int)")
        with pytest.raises(ExecutionError):
            db.query("insert into t values (1)")

    def test_execute_script(self, db):
        results = db.execute_script(
            "create table t (a int); insert into t values (1), (2); select count(*) as n from t"
        )
        assert results[1] == 2
        assert results[2].scalar() == 2

    def test_syntax_error_propagates(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("selekt 1")

    def test_dml_failure_rolls_back(self, db):
        db.execute("create table t (a int)")
        db.execute("insert into t values (1)")
        with pytest.raises(StripError):
            # division by zero mid-update aborts the auto-commit txn
            db.execute("update t set a = a / 0")
        assert db.query("select a from t").rows() == [[1]]

    def test_parse_cache(self, db):
        db.execute("create table t (a int)")
        db.query("select a from t")
        db.query("select a from t")
        assert "select a from t" in db._parse_cache

    def test_register_scalar(self, db):
        db.execute("create table t (a real)")
        db.execute("insert into t values (2.0)")
        db.register_scalar("twice", lambda x: x * 2)
        assert db.query("select twice(a) as b from t").scalar() == 4.0

    def test_replacing_a_scalar_reaches_prepared_statements(self, db):
        """A compiled plan holds the function it resolved: replacing it must
        reach a SELECT and an INSERT ... SELECT already run once."""
        db.execute_script(
            "create table t (a real); create table u (b real); insert into t values (2.0)"
        )
        db.register_scalar("f", lambda x: x * 2)
        assert db.query("select f(a) as b from t").scalar() == 4.0
        db.execute("insert into u select f(a) from t")
        db.register_scalar("f", lambda x: x * 3)
        assert db.query("select f(a) as b from t").scalar() == 6.0
        db.execute("insert into u select f(a) from t")
        assert sorted(db.query("select b from u").rows()) == [[4.0], [6.0]]

    def test_scalar_with_cost_op(self, db):
        db.execute("create table t (a real)")
        db.execute("insert into t values (2.0)")
        db.register_scalar("pricey", lambda x: x, cost_op="f_bs")
        assert db.query("select pricey(a) as b from t").scalar() == 2.0
        assert db.background_meter.ops["f_bs"] >= 1

    def test_stats_shape(self, db):
        stats = db.stats()
        assert {"now", "committed_txns", "rule_firings", "tasks_pending"} <= set(stats)

    def test_clock_advance(self, db):
        db.advance(3.0)
        assert db.now == 3.0

    def test_drain_empty(self, db):
        assert db.drain() == 0


class TestChargeRouting:
    def test_background_when_idle(self, db):
        before = db.background_meter.total
        db.charge("row_scan", 10)
        assert db.background_meter.total > before

    def test_task_meter_when_running(self, db):
        from repro.sim.simulator import execute_task
        from repro.txn.tasks import Task

        def body(task):
            db.charge("row_scan", 100)

        task = Task(body=body)
        record = execute_task(db, task)
        assert task.meter.ops["row_scan"] == 100
        assert record.cpu_time > 100 * db.cost_model.seconds("row_scan") * 0.99

    def test_unknown_op_raises(self, db):
        with pytest.raises(SimulationError, match="unknown cost-model operation 'not_an_op'"):
            db.charge("not_an_op")
