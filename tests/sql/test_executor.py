"""End-to-end SQL execution tests: joins, aggregates, DML, views, params."""

import pytest

from repro.database import Database
from repro.errors import ExecutionError, PlanError, SqlError


@pytest.fixture
def db():
    database = Database()
    database.execute_script(
        """
        create table emp (name text, dept text, salary real);
        create index emp_dept on emp (dept);
        create table dept (dept text, city text);
        create index dept_d on dept (dept);
        insert into emp values
            ('ann', 'eng', 100.0), ('bob', 'eng', 90.0),
            ('cid', 'ops', 80.0), ('dee', 'ops', 70.0), ('eve', 'hr', 60.0);
        insert into dept values ('eng', 'SF'), ('ops', 'NY'), ('hr', 'LA');
        """
    )
    return database


class TestSelect:
    def test_projection_and_filter(self, db):
        rows = db.query("select name from emp where salary > 85").rows()
        assert sorted(r[0] for r in rows) == ["ann", "bob"]

    def test_expression_columns(self, db):
        row = db.query("select salary * 2 as double from emp where name = 'eve'").rows()
        assert row == [[120.0]]

    def test_order_by(self, db):
        rows = db.query("select name from emp order by salary desc limit 2").rows()
        assert rows == [["ann"], ["bob"]]

    def test_distinct(self, db):
        rows = db.query("select distinct dept from emp").rows()
        assert sorted(r[0] for r in rows) == ["eng", "hr", "ops"]

    def test_join_via_index(self, db):
        rows = db.query(
            "select name, city from emp, dept where emp.dept = dept.dept and city = 'SF'"
        ).rows()
        assert sorted(r[0] for r in rows) == ["ann", "bob"]

    def test_join_unqualified_ambiguity(self, db):
        with pytest.raises(PlanError):
            db.query("select dept from emp, dept where emp.dept = dept.dept")

    def test_cross_product(self, db):
        rows = db.query("select name, city from emp, dept").rows()
        assert len(rows) == 15

    def test_aggregates(self, db):
        row = db.query(
            "select count(*) as n, sum(salary) as s, avg(salary) as a, "
            "min(salary) as lo, max(salary) as hi from emp"
        ).first()
        assert row == {"n": 5, "s": 400.0, "a": 80.0, "lo": 60.0, "hi": 100.0}

    def test_group_by(self, db):
        rows = db.query(
            "select dept, sum(salary) as total from emp group by dept order by dept"
        ).rows()
        assert rows == [["eng", 190.0], ["hr", 60.0], ["ops", 150.0]]

    def test_group_by_having(self, db):
        rows = db.query(
            "select dept, count(*) as n from emp group by dept having n > 1 order by dept"
        ).rows()
        assert rows == [["eng", 2], ["ops", 2]]

    def test_aggregate_expression(self, db):
        row = db.query("select sum(salary) / count(*) as mean from emp").scalar()
        assert row == 80.0

    def test_aggregate_of_expression(self, db):
        row = db.query("select sum(salary * 2) as s from emp").scalar()
        assert row == 800.0

    def test_count_distinct(self, db):
        assert db.query("select count(distinct dept) as n from emp").scalar() == 3

    def test_empty_aggregate_returns_row(self, db):
        row = db.query("select count(*) as n from emp where salary > 1000").first()
        assert row == {"n": 0}

    def test_scalar_functions(self, db):
        assert db.query("select abs(-3) as a from dept limit 1").scalar() == 3
        assert db.query("select sqrt(4.0) as s from dept limit 1").scalar() == 2.0

    def test_unknown_scalar_function(self, db):
        with pytest.raises(PlanError):
            db.query("select frobnicate(1) from emp")

    def test_params(self, db):
        rows = db.query(
            "select name from emp where dept = :d and salary >= :s",
            {"d": "eng", "s": 95},
        ).rows()
        assert rows == [["ann"]]

    def test_missing_param(self, db):
        with pytest.raises(ExecutionError):
            db.query("select name from emp where dept = :d").rows()

    def test_unknown_table(self, db):
        with pytest.raises(PlanError):
            db.query("select * from nothing")

    def test_unknown_column(self, db):
        with pytest.raises(PlanError):
            db.query("select bogus from emp")

    def test_null_comparisons_filter_out(self, db):
        db.execute("insert into emp values ('nul', 'eng', null)")
        rows = db.query("select name from emp where salary > 0").rows()
        assert "nul" not in [r[0] for r in rows]
        rows = db.query("select name from emp where salary is null").rows()
        assert [r[0] for r in rows] == ["nul"]

    def test_in_list(self, db):
        rows = db.query("select name from emp where dept in ('hr', 'ops') order by name").rows()
        assert [r[0] for r in rows] == ["cid", "dee", "eve"]

    def test_result_helpers(self, db):
        result = db.query("select name from emp where dept = 'hr'")
        assert len(result) == 1
        assert result.first() == {"name": "eve"}
        assert result.scalar() == "eve"
        assert list(result) == [{"name": "eve"}]


class TestDml:
    def test_insert_partial_columns_fills_null(self, db):
        db.execute("insert into emp (name, dept) values ('zed', 'eng')")
        assert db.query("select salary from emp where name = 'zed'").scalar() is None

    def test_insert_select(self, db):
        db.execute("create table names (name text)")
        count = db.execute("insert into names select name from emp where dept = 'eng'")
        assert count == 2

    def test_insert_arity_error(self, db):
        with pytest.raises(ExecutionError):
            db.execute("insert into emp (name) values ('a', 'b')")

    def test_update_via_index(self, db):
        count = db.execute("update emp set salary = salary + 10 where dept = 'eng'")
        assert count == 2
        assert db.query("select salary from emp where name = 'ann'").scalar() == 110.0

    def test_update_increment_syntax(self, db):
        db.execute("update emp set salary += 5 where name = 'eve'")
        assert db.query("select salary from emp where name = 'eve'").scalar() == 65.0

    def test_update_increment_over_text_raises_the_typed_error(self, db):
        """``col += e`` is ``col = col + e``: the arithmetic of every other
        expression, whose error names the operator and the operand types."""
        with pytest.raises(ExecutionError, match=r"^cannot apply \+ to str and int$"):
            db.execute("update emp set name += 1 where name = 'eve'")
        with pytest.raises(ExecutionError, match=r"^cannot apply - to str and int$"):
            db.execute("update emp set dept -= 1")
        assert db.query("select name from emp where dept = 'hr'").scalar() == "eve"

    def test_a_column_assigned_twice_reads_the_old_row(self, db):
        """Every right-hand side reads the row as it was before the
        statement, and the last assignment of a column wins — as in sqlite3
        (``set a = 5, a = a + 1`` over ``a = 1`` leaves 2)."""
        db.execute("update emp set salary = 5, salary += 1 where name = 'eve'")
        assert db.query("select salary from emp where name = 'eve'").scalar() == 61.0
        db.execute("update emp set salary += 1, salary += 1 where name = 'eve'")
        assert db.query("select salary from emp where name = 'eve'").scalar() == 62.0

    def test_update_all_rows(self, db):
        assert db.execute("update emp set salary = 0") == 5

    def test_delete(self, db):
        assert db.execute("delete from emp where dept = 'ops'") == 2
        assert db.query("select count(*) as n from emp").scalar() == 3

    def test_delete_all(self, db):
        assert db.execute("delete from emp") == 5


class TestNullKeysAndMismatchedTypes:
    """Hash and rbtree indexes accept the same rows; a comparison across
    types is a typed error whichever access path meets it."""

    @staticmethod
    def make(index):
        db = Database()
        db.execute("create table t (k text, v real)")
        if index:
            db.execute(f"create index t_v on t (v) using {index}")
        db.execute("insert into t values ('a', 1.5), ('b', 2.5)")
        return db

    @pytest.mark.parametrize("index", [None, "hash", "rbtree"])
    def test_null_in_an_indexed_column(self, index):
        db = self.make(index)
        db.execute("insert into t values ('n', null)")
        db.execute("update t set v = null where k = 'a'")
        assert db.query("select k from t where v is null order by k").rows() == [["a"], ["n"]]
        assert db.query("select k from t where v > 0").rows() == [["b"]]
        assert db.query("select k from t where v < 9").rows() == [["b"]]
        db.execute("delete from t where v is null")
        assert db.query("select k, v from t").rows() == [["b", 2.5]]
        table = db.catalog.table("t")
        for held in table.indexes.values():
            assert len(held) == 1 and list(held.lookup(2.5)) == list(table.scan())

    @pytest.mark.parametrize("index", [None, "hash", "rbtree"])
    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_ordering_a_real_against_text_is_an_execution_error(self, index, op):
        db = self.make(index)
        for query in (f"select k from t where v {op} 'a'", f"select k from t where 'a' {op} v"):
            with pytest.raises(ExecutionError, match="float.*str|str.*float"):
                db.query(query)
        assert db.query("select k from t where v = 'a'").rows() == []


class TestViews:
    def test_view_expansion(self, db):
        db.execute("create view rich as select name, salary from emp where salary >= 90")
        rows = db.query("select name from rich order by name").rows()
        assert rows == [["ann"], ["bob"]]

    def test_view_join(self, db):
        db.execute("create view rich as select name, dept from emp where salary >= 90")
        rows = db.query(
            "select name, city from rich, dept where rich.dept = dept.dept order by name"
        ).rows()
        assert rows == [["ann", "SF"], ["bob", "SF"]]

    def test_view_sees_fresh_data(self, db):
        db.execute("create view rich as select name from emp where salary >= 90")
        db.execute("insert into emp values ('fay', 'eng', 150.0)")
        assert ["fay"] in db.query("select name from rich").rows()

    def test_drop_view(self, db):
        db.execute("create view v as select name from emp")
        db.execute("drop view v")
        with pytest.raises(SqlError):
            db.query("select * from v")


class TestBindingFromQueries:
    def test_bind_preserves_pointers(self, db):
        """Direct column outputs are stored as record pointers (section 6.1)."""
        from repro.sql.executor import execute_select

        stmt = db.parse("select name, salary * 2 as double from emp where dept = 'hr'")
        result = execute_select(db, stmt, None)
        bound = result.bind("b", db)
        assert bound.static_map.ptr_slots == 1  # name via pointer
        assert bound.static_map.mat_slots == 1  # computed column materialized
        assert bound.to_dicts() == [{"name": "eve", "double": 120.0}]

    def test_bind_shares_one_slot_per_source(self, db):
        from repro.sql.executor import execute_select

        stmt = db.parse("select name, dept, salary from emp where name = 'ann'")
        result = execute_select(db, stmt, None)
        bound = result.bind("b", db)
        assert bound.static_map.ptr_slots == 1  # all three from one record

    def test_bind_aggregate_all_materialized(self, db):
        from repro.sql.executor import execute_select

        stmt = db.parse("select dept, sum(salary) as s from emp group by dept")
        result = execute_select(db, stmt, None)
        bound = result.bind("b", db)
        assert bound.static_map.ptr_slots == 0
        assert len(bound) == 3
