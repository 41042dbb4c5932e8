"""Tests for unique transactions: coarse batching, unique on columns,
Appendix A partitioning, fixed-once-running semantics."""

import pytest

from repro.database import Database
from repro.txn.tasks import TaskState


@pytest.fixture
def db():
    database = Database()
    database.execute("create table t (k text, grp text, v real)")
    database.execute("create index t_k on t (k)")
    return database


def install(db, clause, store, function="f", delay=1.0):
    def fn(ctx):
        store.append(ctx.bound("m").to_dicts())

    db.register_function(function, fn)
    db.execute(
        f"create rule watch_{function} on t when inserted "
        f"if select k, grp, v from inserted bind as m "
        f"then execute {function} {clause} after {delay} seconds"
    )


class TestCoarseUnique:
    def test_single_pending_task(self, db):
        seen = []
        install(db, "unique", seen)
        db.execute("insert into t values ('a', 'g1', 1.0)")
        db.execute("insert into t values ('b', 'g2', 2.0)")
        assert db.unique_manager.pending_count("f") == 1
        assert db.task_manager.pending == 1
        db.drain()
        # One task saw both firings' rows, in commit order.
        assert seen == [
            [
                {"k": "a", "grp": "g1", "v": 1.0},
                {"k": "b", "grp": "g2", "v": 2.0},
            ]
        ]

    def test_batch_counter(self, db):
        seen = []
        install(db, "unique", seen)
        for i in range(5):
            db.execute(f"insert into t values ('x{i}', 'g', 0.0)")
        assert db.unique_manager.batch_count == 4
        assert db.unique_manager.task_count == 1

    def test_release_time_set_by_first_firing(self, db):
        seen = []
        install(db, "unique", seen, delay=2.0)
        db.advance(10.0)
        db.execute("insert into t values ('a', 'g', 1.0)")
        task = db.unique_manager.pending_tasks("f")[0]
        assert task.release_time == 12.0
        db.advance(1.0)
        db.execute("insert into t values ('b', 'g', 2.0)")
        # Later firings append rows but do not move the release time.
        assert db.unique_manager.pending_tasks("f")[0].release_time == 12.0

    def test_new_task_after_execution(self, db):
        seen = []
        install(db, "unique", seen)
        db.execute("insert into t values ('a', 'g', 1.0)")
        db.drain()
        db.execute("insert into t values ('b', 'g', 2.0)")
        assert db.unique_manager.pending_count("f") == 1
        db.drain()
        assert len(seen) == 2

    def test_non_unique_rule_stacks_tasks(self, db):
        seen = []
        install(db, "", seen)
        db.execute("insert into t values ('a', 'g', 1.0)")
        db.execute("insert into t values ('b', 'g', 2.0)")
        assert db.task_manager.pending == 2
        db.drain()
        assert len(seen) == 2


class TestUniqueOnColumns:
    def test_partition_by_column(self, db):
        seen = []
        install(db, "unique on grp", seen)
        txn = db.begin()
        txn.insert("t", {"k": "a", "grp": "g1", "v": 1.0})
        txn.insert("t", {"k": "b", "grp": "g2", "v": 2.0})
        txn.insert("t", {"k": "c", "grp": "g1", "v": 3.0})
        txn.commit()
        tasks = db.unique_manager.pending_tasks("f")
        assert sorted(task.unique_key for task in tasks) == [("g1",), ("g2",)]
        by_key = {task.unique_key: task.bound_rows for task in tasks}
        assert by_key == {("g1",): 2, ("g2",): 1}
        db.drain()
        assert len(seen) == 2

    def test_cross_transaction_batching_per_key(self, db):
        seen = []
        install(db, "unique on grp", seen)
        db.execute("insert into t values ('a', 'g1', 1.0)")
        db.execute("insert into t values ('b', 'g1', 2.0)")
        db.execute("insert into t values ('c', 'g2', 3.0)")
        assert db.unique_manager.pending_count("f") == 2
        db.drain()
        rows_by_first_key = {rows[0]["grp"]: rows for rows in seen}
        assert [r["k"] for r in rows_by_first_key["g1"]] == ["a", "b"]
        assert [r["k"] for r in rows_by_first_key["g2"]] == ["c"]

    def test_multi_column_key(self, db):
        seen = []
        install(db, "unique on grp, k", seen)
        db.execute("insert into t values ('a', 'g1', 1.0)")
        db.execute("insert into t values ('a', 'g1', 2.0)")
        db.execute("insert into t values ('b', 'g1', 3.0)")
        keys = sorted(task.unique_key for task in db.unique_manager.pending_tasks("f"))
        assert keys == [("g1", "a"), ("g1", "b")]
        db.drain()

    def test_once_running_new_firings_open_fresh_task(self, db):
        """Once a unique transaction begins to execute its bound tables are
        fixed; later firings start a new transaction (sections 2/6.3)."""
        from repro.sim.simulator import execute_task

        seen = []
        install(db, "unique on grp", seen)
        db.execute("insert into t values ('a', 'g1', 1.0)")
        task = db.unique_manager.pending_tasks("f")[0]
        db.clock.set_base(task.release_time)
        execute_task(db, task)
        assert task.state is TaskState.DONE
        db.execute("insert into t values ('b', 'g1', 2.0)")
        fresh = db.unique_manager.pending_tasks("f")
        assert len(fresh) == 1 and fresh[0] is not task
        db.drain()
        assert len(seen) == 2

    def test_rows_filtered_per_partition(self, db):
        """Appendix A: each task sees only its key's rows of the T^u table."""
        seen = []
        install(db, "unique on grp", seen)
        txn = db.begin()
        for i in range(6):
            txn.insert("t", {"k": f"x{i}", "grp": f"g{i % 3}", "v": float(i)})
        txn.commit()
        db.drain()
        for rows in seen:
            groups = {row["grp"] for row in rows}
            assert len(groups) == 1  # single partition per task


class TestAppendixAMultiTable:
    """unique columns spread over two bound tables: the key space is the
    product of the tables' distinct values, filtered tables per key."""

    def test_product_partitioning(self, db):
        db.execute("create table u (a text, n int)")
        seen = []

        def fn(ctx):
            seen.append(
                (
                    ctx.bound("left_rows").to_dicts(),
                    ctx.bound("right_rows").to_dicts(),
                )
            )

        db.register_function("f2", fn)
        db.execute(
            "create rule r2 on u when inserted "
            "if select a, n from inserted bind as left_rows, "
            "select grp, v from t bind as right_rows "
            "then execute f2 unique on a, grp after 1.0 seconds"
        )
        db.execute("insert into t values ('k1', 'gX', 1.0)")
        db.execute("insert into t values ('k2', 'gY', 2.0)")
        txn = db.begin()
        txn.insert("u", {"a": "A", "n": 1})
        txn.insert("u", {"a": "B", "n": 2})
        txn.commit()
        tasks = db.unique_manager.pending_tasks("f2")
        keys = sorted(task.unique_key for task in tasks)
        assert keys == [("A", "gX"), ("A", "gY"), ("B", "gX"), ("B", "gY")]
        db.drain()
        for left_rows, right_rows in seen:
            assert len(left_rows) == 1
            assert len(right_rows) == 1

    def test_unique_column_missing_everywhere(self, db):
        from repro.errors import RuleError

        db.register_function("f3", lambda ctx: None)
        db.execute(
            "create rule r3 on t when inserted "
            "if select k from inserted bind as m "
            "then execute f3 unique on nonexistent"
        )
        with pytest.raises(Exception):
            db.execute("insert into t values ('a', 'g', 1.0)")


class TestPinning:
    def test_absorbed_rows_keep_old_versions_alive(self, db):
        seen = []

        def fn(ctx):
            seen.append(ctx.bound("m").to_dicts())

        db.register_function("f", fn)
        db.execute(
            "create rule r on t when updated "
            "if select k, old.v as before from old bind as m "
            "then execute f unique after 1.0 seconds"
        )
        db.execute("insert into t values ('a', 'g', 1.0)")
        db.execute("update t set v = 2.0 where k = 'a'")
        db.execute("update t set v = 3.0 where k = 'a'")
        db.drain()
        # The batched bound table shows both superseded versions.
        assert seen == [[{"k": "a", "before": 1.0}, {"k": "a", "before": 2.0}]]

    def test_failed_commit_after_move_absorb_rolls_back_with_pins_balanced(self, db):
        """An absorbed firing's rows move into the pending task with the pins
        they hold; when a later rule fails the commit, the walk over its
        effects truncates the target and those pins drop — on the plain path
        as on the compacted one (tests/core/test_compaction.py)."""
        seen = []

        def fn(ctx):
            seen.append(ctx.bound("m").to_dicts())

        def check(value):
            if value == 666.0:
                raise ValueError("refused")
            return value

        db.register_function("f", fn)
        db.register_scalar("check_v", check)
        db.execute(
            "create rule a_batch on t when updated "
            "if select old.k as k, old.v as before, new.v as after from old, new "
            "where old.execute_order = new.execute_order bind as m "
            "then execute f unique after 1.0 seconds"
        )
        db.execute(
            "create rule b_guard on t when updated "
            "if select check_v(v) as ok from new bind as g "
            "then execute f_guard"
        )
        db.register_function("f_guard", lambda ctx: None)
        db.execute("insert into t values ('a', 'g', 1.0)")
        db.execute("update t set v = 2.0 where k = 'a'")
        [task] = db.unique_manager.pending_tasks("f")
        target = task.bound_tables["m"]
        records = {record for ptrs, _mats in target.scan_raw() for record in ptrs}
        held = {record: record.pins for record in records}
        rolled_back, rollback = [], target.rollback
        target.rollback = lambda mark: (rolled_back.append(mark), rollback(mark))
        with pytest.raises(Exception, match="refused"):
            db.execute("update t set v = 666.0 where k = 'a'")
        # The failed firing had been moved in (a_batch fired first) and is
        # gone again, uncounted.
        assert rolled_back == [1]
        assert db.unique_manager.batch_count == 0
        assert len(target) == 1
        assert {record: record.pins for record in records} == held
        db.execute("update t set v = 3.0 where k = 'a'")
        records |= {record for ptrs, _mats in target.scan_raw() for record in ptrs}
        db.drain()
        assert seen == [
            [{"k": "a", "before": 1.0, "after": 2.0}, {"k": "a", "before": 2.0, "after": 3.0}]
        ]
        records |= set(db.catalog.table("t").scan())
        assert all(record.pins == 0 for record in records)

    def test_bound_tables_retired_after_task(self, db):
        install(db, "unique", [])
        db.execute("insert into t values ('a', 'g', 1.0)")
        task = db.unique_manager.pending_tasks("f")[0]
        table = task.bound_tables["m"]
        db.drain()
        assert table.retired


class TestUnionPartitioning:
    """A unique column present in *several* bound tables: each owner is
    partitioned by the full key and the key space is the union of the
    owners' keys (a delisting batch and the live rows it dooms must land
    on one task per key, not a cross product)."""

    def setup_rule(self, db, seen):
        db.execute("create table u (k text, n real)")

        def fn(ctx):
            seen.append(
                (
                    ctx.task.unique_key,
                    [r["k"] for r in ctx.bound("ma").to_dicts()],
                    [r["k"] for r in ctx.bound("mb").to_dicts()],
                )
            )

        db.register_function("fu", fn)
        # evaluate (not condition) queries: the rule must fire even when
        # one of the bound tables comes up empty.
        db.execute(
            "create rule ru on t when inserted "
            "then evaluate select k, v from inserted bind as ma, "
            "select k, n from u bind as mb "
            "execute fu unique on k after 1.0 seconds"
        )

    def test_key_space_is_union_of_owner_keys(self, db):
        seen = []
        self.setup_rule(db, seen)
        txn = db.begin()
        txn.insert("u", {"k": "b", "n": 1.0})
        txn.insert("u", {"k": "c", "n": 2.0})
        txn.commit()
        db.execute("insert into t values ('a', 'g', 1.0)")
        keys = sorted(t.unique_key for t in db.unique_manager.pending_tasks("fu"))
        assert keys == [("a",), ("b",), ("c",)]

    def test_owner_partitions_filtered_per_key(self, db):
        seen = []
        self.setup_rule(db, seen)
        txn = db.begin()
        txn.insert("u", {"k": "a", "n": 1.0})
        txn.insert("u", {"k": "b", "n": 2.0})
        txn.commit()
        db.execute("insert into t values ('a', 'g', 1.0)")
        db.drain()
        by_key = {key: (ma, mb) for key, ma, mb in seen}
        # Key "a" appears in both owners; key "b" only in the second —
        # its partition of the first owner is empty, not absent.
        assert by_key[("a",)] == (["a"], ["a"])
        assert by_key[("b",)] == ([], ["b"])

    def test_partial_key_overlap_is_ambiguous(self, db):
        db.execute("create table u (k text, n real)")
        db.register_function("fa", lambda ctx: None)
        db.execute(
            "create rule ra on t when inserted "
            "then evaluate select k, grp, v from inserted bind as ma, "
            "select k, n from u bind as mb "
            "execute fa unique on k, grp after 1.0 seconds"
        )
        # mb owns k but not grp: the historical "ambiguous" rejection.
        with pytest.raises(Exception, match="ambiguous"):
            db.execute("insert into t values ('a', 'g', 1.0)")

    def test_absorbs_into_pending_union_task(self, db):
        seen = []
        self.setup_rule(db, seen)
        db.execute("insert into t values ('a', 'g', 1.0)")
        db.execute("insert into t values ('a', 'g', 2.0)")
        assert len(db.unique_manager.pending_tasks("fu")) == 1
        db.drain()
        assert [key for key, _ma, _mb in seen] == [("a",)]
        assert seen[0][1] == ["a", "a"]


class TestSupersede:
    def test_supersede_aborts_pending_task(self, db):
        seen = []
        install(db, "unique on k", seen)
        db.execute("insert into t values ('a', 'g', 1.0)")
        task = db.unique_manager.supersede("f", ("a",), db.clock.now())
        assert task is not None
        assert task.state is TaskState.ABORTED
        assert db.unique_manager.pending_tasks("f") == []
        db.drain()
        assert seen == []  # the aborted task never ran

    def test_supersede_unknown_key_is_noop(self, db):
        seen = []
        install(db, "unique on k", seen)
        db.execute("insert into t values ('a', 'g', 1.0)")
        assert db.unique_manager.supersede("f", ("zz",), db.clock.now()) is None
        assert db.unique_manager.supersede("nofn", ("a",), db.clock.now()) is None
        db.drain()
        assert len(seen) == 1

    def test_new_firing_after_supersede_opens_fresh_task(self, db):
        seen = []
        install(db, "unique on k", seen)
        db.execute("insert into t values ('a', 'g', 1.0)")
        db.unique_manager.supersede("f", ("a",), db.clock.now())
        db.execute("insert into t values ('a', 'g', 2.0)")
        db.drain()
        # Only the post-supersede firing's row reaches the function.
        assert seen == [[{"k": "a", "grp": "g", "v": 2.0}]]

    def test_superseded_task_released_its_bound_tables(self, db):
        seen = []
        install(db, "unique on k", seen)
        db.execute("insert into t values ('a', 'g', 1.0)")
        task = db.unique_manager.pending_tasks("f")[0]
        table = task.bound_tables["m"]
        db.unique_manager.supersede("f", ("a",), db.clock.now())
        assert table.retired
