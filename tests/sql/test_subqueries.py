"""Tests for uncorrelated subqueries: EXISTS, IN (SELECT), scalar."""

import pytest

from repro.database import Database
from repro.errors import SqlSyntaxError


@pytest.fixture
def db():
    database = Database()
    database.execute_script(
        """
        create table emp (name text, dept text, salary real);
        create index emp_dept on emp (dept);
        create table dept (dept text, open boolean);
        insert into emp values
            ('ann', 'eng', 100.0), ('bob', 'ops', 50.0), ('cid', 'hr', 70.0);
        insert into dept values ('eng', true), ('ops', false), ('hr', true);
        """
    )
    return database


class TestInSubquery:
    def test_in(self, db):
        rows = db.query(
            "select name from emp where dept in "
            "(select dept from dept where open = true) order by name"
        ).rows()
        assert rows == [["ann"], ["cid"]]

    def test_not_in(self, db):
        rows = db.query(
            "select name from emp where dept not in "
            "(select dept from dept where open = true)"
        ).rows()
        assert rows == [["bob"]]

    def test_in_empty_subquery(self, db):
        rows = db.query(
            "select name from emp where dept in (select dept from dept where open is null)"
        ).rows()
        assert rows == []

    def test_not_in_with_null_in_set_filters_all(self, db):
        """Three-valued IN: NOT IN over a set containing NULL is never true."""
        db.execute("insert into dept values (null, true)")
        rows = db.query(
            "select name from emp where dept not in "
            "(select dept from dept where open = true)"
        ).rows()
        assert rows == []

    def test_in_literal_list_still_works(self, db):
        rows = db.query("select name from emp where dept in ('hr')").rows()
        assert rows == [["cid"]]

    def test_not_without_in_rejected(self, db):
        with pytest.raises(SqlSyntaxError):
            db.query("select name from emp where dept not 'x'")


class TestScalarSubquery:
    def test_comparison_to_aggregate(self, db):
        rows = db.query(
            "select name from emp where salary > (select avg(salary) as a from emp)"
        ).rows()
        assert rows == [["ann"]]

    def test_in_select_list(self, db):
        value = db.query(
            "select (select max(salary) as m from emp) as top from dept limit 1"
        ).scalar()
        assert value == 100.0

    def test_empty_is_null(self, db):
        value = db.query(
            "select (select salary from emp where name = 'zzz') as s from dept limit 1"
        ).scalar()
        assert value is None

    def test_cached_once_per_statement(self, db):
        """The subquery runs once per execution, not once per outer row."""
        calls = []
        db.register_scalar("spy", lambda x: calls.append(1) or x)
        db.query(
            "select name from emp where salary > (select spy(0.0) as z from dept limit 1)"
        ).rows()
        assert len(calls) == 1


class TestExists:
    def test_exists_true(self, db):
        rows = db.query(
            "select name from emp where exists (select * from dept where open = false)"
        ).rows()
        assert len(rows) == 3

    def test_exists_false(self, db):
        rows = db.query(
            "select name from emp where exists (select * from dept where dept = 'zz')"
        ).rows()
        assert rows == []

    def test_not_exists(self, db):
        rows = db.query(
            "select name from emp where not exists (select * from dept where dept = 'zz')"
        ).rows()
        assert len(rows) == 3


class TestSubqueriesInRules:
    def test_condition_with_exists_guard(self, db):
        """A rule condition can gate on global state via EXISTS."""
        seen = []
        db.register_function("f", lambda ctx: seen.append(1))
        db.execute(
            "create rule r on emp when inserted "
            "if select name from inserted "
            "where exists (select * from dept where open = false) bind as m "
            "then execute f"
        )
        db.execute("insert into emp values ('new', 'eng', 10.0)")
        db.drain()
        assert seen == [1]

    def test_update_where_subquery(self, db):
        count = db.execute(
            "update emp set salary += 5 where dept in "
            "(select dept from dept where open = true)"
        )
        assert count == 2
        assert db.query("select salary from emp where name = 'ann'").scalar() == 105.0

    def test_delete_where_subquery(self, db):
        count = db.execute(
            "delete from emp where salary < (select avg(salary) as a from emp)"
        )
        assert count == 2

    def test_bound_table_shapes_inside_a_subquery_are_not_mixed_up(self):
        """Two rules bind ``m`` from tables that store ``x`` at different
        offsets, so the two bound tables read ``x`` through different static
        maps.  One function's query names ``m`` only inside its subquery: a
        plan made for the first firing must not serve the second (it read
        ``y`` there, 200 instead of 2)."""

        def run(tables):
            db = Database()
            db.execute_script(
                """
                create table p (x int, y int);
                create table q (y int, x int);
                create table t (a int);
                insert into t values (2), (200);
                """
            )
            seen = []
            db.register_function("f", lambda ctx: seen.append(
                ctx.query("select a from t where a in (select x from m)").rows()))
            for table in tables:
                db.execute(f"create rule r{table} on {table} when inserted "
                           "if select x, y from inserted bind as m then execute f")
            for table in tables:
                db.execute(f"insert into {table} (x, y) values (2, 200)")
                db.drain()
            return seen

        assert run(["p", "q"]) == [[[2]], [[2]]]
        assert run(["q"]) == [[[2]]]
