"""Tests for commit-time rule processing: transition tables, conditions,
binding, action execution, cascades."""

import pytest

from repro.database import Database
from repro.errors import BindingError, CreateRuleError, FunctionError


@pytest.fixture
def db():
    database = Database()
    database.execute("create table t (k text, v real)")
    database.execute("create index t_k on t (k)")
    return database


def collect_function(db, name, store):
    def fn(ctx):
        store.append(
            {
                bound: ctx.bound(bound).to_dicts()
                for bound in ctx.task.bound_tables
            }
        )

    db.register_function(name, fn)


class TestTransitionTables:
    def test_inserted(self, db):
        seen = []
        collect_function(db, "f", seen)
        db.execute(
            "create rule r on t when inserted "
            "if select k, v, execute_order from inserted bind as m then execute f"
        )
        db.execute("insert into t values ('a', 1.0), ('b', 2.0)")
        db.drain()
        assert seen == [
            {"m": [
                {"k": "a", "v": 1.0, "execute_order": 1},
                {"k": "b", "v": 2.0, "execute_order": 2},
            ]}
        ]

    def test_deleted(self, db):
        db.execute("insert into t values ('a', 1.0)")
        seen = []
        collect_function(db, "f", seen)
        db.execute(
            "create rule r on t when deleted "
            "if select k from deleted bind as m then execute f"
        )
        db.execute("delete from t where k = 'a'")
        db.drain()
        assert seen == [{"m": [{"k": "a"}]}]

    def test_new_and_old_pair_by_execute_order(self, db):
        """Figure 3's join: new.execute_order = old.execute_order pairs the
        images of the same update even when one row changes twice."""
        db.execute("insert into t values ('a', 1.0)")
        seen = []
        collect_function(db, "f", seen)
        db.execute(
            "create rule r on t when updated v "
            "if select old.v as before, new.v as after from new, old "
            "where new.execute_order = old.execute_order bind as m "
            "then execute f"
        )
        txn = db.begin()
        txn.execute("update t set v = 2.0 where k = 'a'")
        txn.execute("update t set v = 3.0 where k = 'a'")
        txn.commit()
        db.drain()
        assert seen == [
            {"m": [{"before": 1.0, "after": 2.0}, {"before": 2.0, "after": 3.0}]}
        ]

    def test_no_net_effect(self, db):
        """A row inserted and deleted in one transaction appears in both
        transition tables (section 2's audit trail)."""
        seen = []
        collect_function(db, "f", seen)
        db.execute(
            "create rule r on t when inserted deleted "
            "if select k from inserted bind as ins, select k from deleted bind as del "
            "then execute f"
        )
        txn = db.begin()
        record = txn.insert("t", {"k": "ghost", "v": 0.0})
        txn.delete_record(db.catalog.table("t"), record)
        txn.commit()
        db.drain()
        assert seen == [{"ins": [{"k": "ghost"}], "del": [{"k": "ghost"}]}]


class TestConditions:
    def test_condition_false_means_no_task(self, db):
        seen = []
        collect_function(db, "f", seen)
        db.execute(
            "create rule r on t when inserted "
            "if select k from inserted where v > 100 bind as m then execute f"
        )
        db.execute("insert into t values ('small', 1.0)")
        db.drain()
        assert seen == []
        assert db.rule_engine.check_count == 1
        assert db.rule_engine.firing_count == 0

    def test_all_queries_must_return_rows(self, db):
        db.execute("create table watch (k text)")
        seen = []
        collect_function(db, "f", seen)
        db.execute(
            "create rule r on t when inserted "
            "if select k from inserted bind as m, select k from watch "
            "then execute f"
        )
        db.execute("insert into t values ('a', 1.0)")
        db.drain()
        assert seen == []  # watch is empty -> condition false
        db.execute("insert into watch values ('on')")
        db.execute("insert into t values ('b', 2.0)")
        db.drain()
        assert len(seen) == 1

    def test_empty_condition_always_fires(self, db):
        seen = []
        collect_function(db, "f", seen)
        db.execute("create rule r on t when inserted then execute f")
        db.execute("insert into t values ('a', 1.0)")
        db.drain()
        assert len(seen) == 1

    def test_evaluate_binds_even_empty(self, db):
        """Evaluate queries only pass data; empty results still bind."""
        seen = []
        collect_function(db, "f", seen)
        db.execute(
            "create rule r on t when inserted "
            "then evaluate select k from inserted where v > 100 bind as big "
            "execute f"
        )
        db.execute("insert into t values ('a', 1.0)")
        db.drain()
        assert seen == [{"big": []}]

    def test_condition_over_database_state(self, db):
        db.execute("insert into t values ('limit', 10.0)")
        seen = []
        collect_function(db, "f", seen)
        db.execute(
            "create rule r on t when inserted "
            "if select inserted.k as k from inserted, t "
            "where t.k = 'limit' and inserted.v > t.v bind as m "
            "then execute f"
        )
        db.execute("insert into t values ('big', 50.0)")
        db.drain()
        assert seen == [{"m": [{"k": "big"}]}]


class TestActions:
    def test_action_runs_in_new_transaction(self, db):
        txn_ids = []

        def fn(ctx):
            txn_ids.append(ctx.txn.txn_id)

        db.register_function("f", fn)
        db.execute("create rule r on t when inserted then execute f")
        txn = db.begin()
        txn.insert("t", {"k": "a", "v": 1.0})
        txn.commit()
        db.drain()
        assert txn_ids and txn_ids[0] != txn.txn_id

    def test_action_failure_aborts_its_txn(self, db):
        def fn(ctx):
            ctx.execute("insert into t values ('partial', 0.0)")
            raise RuntimeError("boom")

        db.register_function("f", fn)
        db.execute("create rule bad on t when updated then execute f")
        db.execute("insert into t values ('a', 1.0)")
        with pytest.raises(FunctionError):
            db.execute("update t set v = 2.0 where k = 'a'")
            db.drain()
        assert db.query("select count(*) as n from t where k = 'partial'").scalar() == 0

    def test_cascading_rules(self, db):
        """A rule action's transaction can itself trigger rules."""
        db.execute("create table audit (k text)")
        seen = []

        def first(ctx):
            for row in ctx.rows("m"):
                ctx.execute("insert into audit values (:k)", {"k": row["k"]})

        def second(ctx):
            seen.extend(r["k"] for r in ctx.rows("a"))

        db.register_function("first", first)
        db.register_function("second", second)
        db.execute(
            "create rule r1 on t when inserted "
            "if select k from inserted bind as m then execute first"
        )
        db.execute(
            "create rule r2 on audit when inserted "
            "if select k from inserted bind as a then execute second"
        )
        db.execute("insert into t values ('x', 1.0)")
        db.drain()
        assert seen == ["x"]

    def test_delayed_release(self, db):
        seen = []
        collect_function(db, "f", seen)
        db.execute(
            "create rule r on t when inserted "
            "if select k from inserted bind as m "
            "then execute f after 2.0 seconds"
        )
        db.execute("insert into t values ('a', 1.0)")
        assert db.task_manager.pending == 1
        db.drain()
        assert seen and db.clock.base >= 2.0

    def test_commit_time_visible_in_binding(self, db):
        seen = []
        collect_function(db, "f", seen)
        db.execute(
            "create rule r on t when inserted "
            "if select k, commit_time from inserted bind as m then execute f"
        )
        db.advance(4.5)
        db.execute("insert into t values ('a', 1.0)")
        db.drain()
        assert seen[0]["m"][0]["commit_time"] == 4.5

    def test_disabled_rule_does_not_fire(self, db):
        seen = []
        collect_function(db, "f", seen)
        db.execute("create rule r on t when inserted then execute f")
        db.catalog.rule("r").enabled = False
        db.execute("insert into t values ('a', 1.0)")
        db.drain()
        assert seen == []

    def test_bound_table_sees_condition_time_state(self, db):
        """Bound tables reflect the database at condition-evaluation time
        even if base data changes before the action runs (section 6.1)."""
        seen = []
        collect_function(db, "f", seen)
        db.execute(
            "create rule r on t when updated "
            "if select new.v as v from new bind as m "
            "then execute f after 1.0 seconds"
        )
        db.execute("insert into t values ('a', 1.0)")
        db.execute("update t set v = 2.0 where k = 'a'")
        # Before the action runs, overwrite again; the pending bound table
        # must still show 2.0 for the first firing (plus a row for this one).
        db.execute("update t set v = 3.0 where k = 'a'")
        db.drain()
        assert seen[0]["m"] == [{"v": 2.0}]
        assert seen[1]["m"] == [{"v": 3.0}]


class TestBoundNameConsistency:
    def test_same_function_same_binds_ok(self, db):
        db.register_function("f", lambda ctx: None)
        db.execute(
            "create rule r1 on t when inserted "
            "if select k from inserted bind as m then execute f"
        )
        db.execute(
            "create rule r2 on t when deleted "
            "if select k from deleted bind as m then execute f"
        )

    def test_same_function_different_binds_rejected(self, db):
        db.register_function("f", lambda ctx: None)
        db.execute(
            "create rule r1 on t when inserted "
            "if select k from inserted bind as m then execute f"
        )
        with pytest.raises(BindingError):
            db.execute(
                "create rule r2 on t when deleted "
                "if select k from deleted bind as other then execute f"
            )


class TestRecreatedTable:
    """A table dropped and re-created under its name is a new table: its
    rules fire against the new schema, not a transition shape remembered
    under the name."""

    @pytest.mark.parametrize(
        "columns, row",
        [("x int, y int", "1, 2"), ("x int, y int, z int", "1, 2, 3")],
        ids=["same width", "wider"],
    )
    def test_rule_on_recreated_table_fires(self, columns, row):
        db = Database()
        seen = []
        db.register_function("f", lambda ctx: seen.append(ctx.bound("m").to_dicts()))
        db.execute("create table t (a int, b int)")
        db.execute("create rule r on t when updated if select a, b from new bind as m then execute f")
        db.execute("insert into t values (1, 2)")
        db.execute("update t set b = 3 where a = 1")
        db.execute("drop rule r")
        db.execute("drop table t")
        db.execute(f"create table t ({columns})")
        db.execute("create rule r on t when updated if select x, y from new bind as m then execute f")
        db.execute(f"insert into t values ({row})")
        db.execute("update t set y = 5 where x = 1")
        db.drain()
        assert seen == [[{"a": 1, "b": 3}], [{"x": 1, "y": 5}]]


class TestEventColumns:
    def test_unknown_event_column_is_refused_at_create_rule(self, db):
        """It used to be accepted, and every later UPDATE of the table then
        failed at commit (``SchemaError: no column 'nosuch'``)."""
        db.register_function("f", lambda ctx: None)
        db.execute("insert into t values ('a', 1.0)")
        with pytest.raises(CreateRuleError, match="no column 'nosuch'"):
            db.execute("create rule r on t when updated nosuch then execute f")
        assert list(db.catalog.rules()) == []
        assert db.execute("update t set v = 2.0 where k = 'a'") == 1


class TestUniqueAndCompactColumns:
    """A ``unique on`` / ``compact on`` column the bound tables cannot carry
    used to be accepted, and from then on every write to the table failed at
    commit.  The bound tables' columns are known at CREATE RULE (the
    planner's output naming over the trigger table's transition shape and
    the catalog), so the rule is refused there and the table stays
    writable."""

    @pytest.mark.parametrize(
        "tables, rule, error",
        [
            (
                "create table t (a int, b int)",
                "create rule r on t when inserted if select a, b from inserted "
                "bind as m then execute f unique on nosuch",
                "unique column 'nosuch' is in no bound table",
            ),
            (
                "create table t (k int, x int)",
                "create rule r on t when inserted if select k, x from inserted "
                "bind as m1, select k from inserted bind as m2 then execute f unique on k, x",
                r"unique column 'k' is ambiguous \(m1, m2\)",
            ),
            (
                "create table t (a int, b int)",
                "create rule r on t when inserted if select a, b from inserted "
                "bind as m then execute f unique compact on nosuch",
                r"no bound table contains all compaction key columns \['nosuch'\]",
            ),
        ],
        ids=["unknown unique column", "ambiguous unique column", "unknown compaction column"],
    )
    def test_refused_at_create_rule(self, tables, rule, error):
        db = Database()
        db.execute(tables)
        db.register_function("f", lambda ctx: None)
        with pytest.raises(CreateRuleError, match=f"rule 'r': {error}"):
            db.execute(rule)
        assert list(db.catalog.rules()) == []
        assert db.execute("insert into t values (1, 2)") == 1
        assert db.query("select count(*) as n from t").scalar() == 1

    def test_columns_come_from_the_output_naming(self):
        """Aliases, ``*`` over a transition table, catalog tables and views
        name the columns a firing's bound tables carry."""
        db = Database()
        db.execute("create table t (k text, v real)")
        db.execute("create table u (k text, n real)")
        db.execute("create view w as select k as key, n from u")
        db.register_function("f", lambda ctx: None)
        db.execute(
            "create rule r1 on t when inserted if select * from inserted bind as m "
            "then execute f unique on execute_order"
        )
        db.execute(
            "create rule r2 on t when inserted if select v as price from inserted "
            "bind as m then execute f unique on price"
        )
        db.register_function("g", lambda ctx: None)
        db.execute(
            "create rule r3 on t when inserted then evaluate select key, n from w "
            "bind as m execute g unique on key"
        )
        with pytest.raises(CreateRuleError, match="'v' is in no bound table"):
            db.execute(
                "create rule r4 on t when inserted if select v as price from inserted "
                "bind as m then execute f unique on v"
            )
        assert [rule.name for rule in db.catalog.rules()] == ["r1", "r2", "r3"]
