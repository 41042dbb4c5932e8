"""Tests for automatic materialized-view maintenance (the [CW91] layer)."""

import pytest

from repro.database import Database
from repro.views.maintain import UnsupportedViewError, materialize


@pytest.fixture
def db():
    database = Database()
    database.execute_script(
        """
        create table x (a text, b real);
        create index x_a on x (a);
        insert into x values ('g1', 1.0), ('g1', 2.0), ('g2', 5.0);
        """
    )
    return database


def view_rows(db, name="v"):
    return sorted(db.query(f"select * from {name}").rows())


class TestAggregateViews:
    def make(self, db, **kwargs):
        db.execute("create view v as select a, sum(b) as total from x group by a")
        return materialize(db, "v", **kwargs)

    def test_initial_population(self, db):
        self.make(db)
        rows = sorted(db.query("select a, total from v").rows())
        assert rows == [["g1", 3.0], ["g2", 5.0]]

    def test_insert_maintains(self, db):
        self.make(db)
        db.execute("insert into x values ('g1', 10.0)")
        db.drain()
        assert db.query("select total from v where a = 'g1'").scalar() == 13.0

    def test_insert_new_group(self, db):
        self.make(db)
        db.execute("insert into x values ('g3', 7.0)")
        db.drain()
        assert db.query("select total from v where a = 'g3'").scalar() == 7.0

    def test_delete_maintains(self, db):
        self.make(db)
        db.execute("delete from x where b = 2.0")
        db.drain()
        assert db.query("select total from v where a = 'g1'").scalar() == 1.0

    def test_group_disappears_when_empty(self, db):
        self.make(db)
        db.execute("delete from x where a = 'g2'")
        db.drain()
        assert db.query("select count(*) as n from v where a = 'g2'").scalar() == 0

    def test_update_maintains(self, db):
        self.make(db)
        db.execute("update x set b = 100.0 where b = 5.0")
        db.drain()
        assert db.query("select total from v where a = 'g2'").scalar() == 100.0

    def test_update_moves_group(self, db):
        """An update changing the group column moves the contribution."""
        self.make(db)
        db.execute("update x set a = 'g2' where b = 2.0")
        db.drain()
        assert db.query("select total from v where a = 'g1'").scalar() == 1.0
        assert db.query("select total from v where a = 'g2'").scalar() == 7.0

    def test_matches_recomputed_view_randomized(self, db):
        """Property: after any DML mix, the maintained table equals a fresh
        evaluation of the view query."""
        import random

        self.make(db)
        rng = random.Random(3)
        groups = ["g1", "g2", "g3", "g4"]
        for _ in range(60):
            roll = rng.random()
            if roll < 0.5:
                db.execute(
                    "insert into x values (:a, :b)",
                    {"a": rng.choice(groups), "b": float(rng.randint(1, 9))},
                )
            elif roll < 0.75:
                db.execute(
                    "update x set b = :b where a = :a",
                    {"a": rng.choice(groups), "b": float(rng.randint(1, 9))},
                )
            else:
                db.execute("delete from x where a = :a and b = :b",
                           {"a": rng.choice(groups), "b": float(rng.randint(1, 9))})
            db.drain()
        expected = sorted(
            db.query("select a, sum(b) as total from x group by a").rows()
        )
        actual = sorted(db.query("select a, total from v").rows())
        assert actual == expected

    def test_batched_maintenance(self, db):
        """Maintenance rules accept the unique/delay knobs."""
        self.make(db, unique=True, delay=1.0)
        db.execute("insert into x values ('g1', 10.0)")
        db.execute("insert into x values ('g1', 20.0)")
        assert db.unique_manager.pending_count() == 1  # batched
        db.drain()
        assert db.query("select total from v where a = 'g1'").scalar() == 33.0

    def test_count_aggregate(self, db):
        db.execute("create view v as select a, count(*) as n from x group by a")
        materialize(db, "v")
        db.execute("insert into x values ('g2', 1.0)")
        db.execute("delete from x where a = 'g1' and b = 1.0")
        db.drain()
        rows = sorted(db.query("select a, n from v").rows())
        assert rows == [["g1", 1], ["g2", 2]]

    def test_avg_aggregate(self, db):
        db.execute("create view v as select a, avg(b) as m from x group by a")
        materialize(db, "v")
        db.execute("insert into x values ('g1', 6.0)")
        db.drain()
        assert db.query("select m from v where a = 'g1'").scalar() == pytest.approx(3.0)

    def test_min_aggregate_recomputes_group(self, db):
        db.execute("create view v as select a, min(b) as lo from x group by a")
        materialize(db, "v")
        db.execute("delete from x where b = 1.0")  # removes the g1 minimum
        db.drain()
        assert db.query("select lo from v where a = 'g1'").scalar() == 2.0
        db.execute("insert into x values ('g1', 0.5)")
        db.drain()
        assert db.query("select lo from v where a = 'g1'").scalar() == 0.5


class TestProjectionViews:
    def setup_join(self, db):
        db.execute_script(
            """
            create table rates (a text, factor real);
            create index rates_a on rates (a);
            insert into rates values ('g1', 2.0), ('g2', 3.0);
            """
        )
        db.execute(
            "create view v as select b, x.a as a, b * factor as scaled "
            "from x, rates where x.a = rates.a"
        )
        return materialize(db, "v", key=("b", "a"))

    def test_population(self, db):
        self.setup_join(db)
        assert view_rows(db) == [
            [1.0, "g1", 2.0],
            [2.0, "g1", 4.0],
            [5.0, "g2", 15.0],
        ]

    def test_update_recomputes_affected_rows(self, db):
        self.setup_join(db)
        db.execute("update x set b = 20.0 where b = 2.0")
        db.drain()
        assert [20.0, "g1", 40.0] in view_rows(db)
        assert [2.0, "g1", 4.0] not in view_rows(db)

    def test_insert_adds_rows(self, db):
        self.setup_join(db)
        db.execute("insert into x values ('g2', 6.0)")
        db.drain()
        assert [6.0, "g2", 18.0] in view_rows(db)

    def test_delete_removes_rows(self, db):
        self.setup_join(db)
        db.execute("delete from x where b = 5.0")
        db.drain()
        assert all(row[0] != 5.0 for row in view_rows(db))

    def test_change_in_second_base_table(self, db):
        self.setup_join(db)
        db.execute("update rates set factor = 10.0 where a = 'g1'")
        db.drain()
        assert [1.0, "g1", 10.0] in view_rows(db)


class TestRejections:
    def test_distinct_rejected(self, db):
        db.execute("create view v as select distinct a from x")
        with pytest.raises(UnsupportedViewError):
            materialize(db, "v")

    def test_star_rejected(self, db):
        db.execute("create view v as select * from x")
        with pytest.raises(UnsupportedViewError):
            materialize(db, "v")

    def test_non_grouped_column_rejected(self, db):
        from repro.errors import SqlError

        with pytest.raises((UnsupportedViewError, SqlError)):
            db.execute("create view v as select a, b, sum(b) as s from x group by a")
            materialize(db, "v")

    def test_bad_key_rejected(self, db):
        db.execute("create view v as select a, b from x")
        with pytest.raises(UnsupportedViewError):
            materialize(db, "v", key=("nope",))


class TestSqlSurface:
    def test_create_materialized_view_statement(self, db):
        db.execute(
            "create materialized view v as select a, sum(b) as total from x group by a"
        )
        db.execute("insert into x values ('g1', 4.0)")
        db.drain()
        assert db.query("select total from v where a = 'g1'").scalar() == 7.0
        assert "v" in db.materialized_views


class TestBoundColumns:
    def test_optional_columns_are_resolved_from_the_schema_once_per_call(self, db):
        """The generated rules always project their ordering / sequence /
        flag columns; in each generated fold a bound table without one reads
        it as None (what ``row.get`` answered), and a table the strategy left
        unbound reads as no rows.  Each row read is one ``user_row``, and a
        mark row one ``dred_mark`` after it, as before."""
        from repro.views.maintain import _run_fold

        seen = {}

        def fn(ctx):
            marked, changes, latest = set(), {}, {}
            seen["marks"] = _run_fold(
                ctx, "m", "marks", ("a", "maint_wild"), ("maint_wild",), (0,), marked
            ), marked
            seen["aggregate"] = _run_fold(
                ctx, "m", "aggregate", ("a", "b", "maint_seq"), ("maint_seq",), (0,),
                changes, -1, 0, {}, (), marked,
            ), changes
            seen["projection"] = _run_fold(
                ctx, "m", "projection", ("b", "a", "maint_seq", "maint_ord"),
                ("maint_seq", "maint_ord"), (1,), latest, 1, 7,
            ), latest
            seen["unbound"] = _run_fold(ctx, "marks_del", "marks", ("a",), (), (0,), marked)
            seen["ops"] = {op: ctx.task.meter.ops[op] for op in ("user_row", "dred_mark")}

        db.register_function("f", fn)
        db.execute(
            "create rule r on x when inserted "
            "if select a, b from inserted bind as m then execute f"
        )
        db.execute("insert into x values ('g9', 4.0)")
        db.drain()
        assert seen == {
            "marks": ((1, False), {("g9",)}),
            "aggregate": ((1, None), {("g9",): [-1, -4.0]}),
            "projection": ((1, None), {("g9",): ((0, 0, 1, 7), 1, [4.0, "g9"])}),
            "unbound": (0, None),
            "ops": {"user_row": 3, "dred_mark": 1},
        }
