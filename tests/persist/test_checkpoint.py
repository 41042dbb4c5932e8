"""Checkpoint round-trip tests: catalog, rules, and the pending-task set.

The property at stake is the tentpole's acceptance criterion: a snapshot
restored into a fresh database preserves every table row, every rule, and
every pending unique task's partition key, bound rows, and release
deadline — exactly, not approximately.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.errors import PersistenceError
from repro.persist.checkpoint import (
    build_snapshot,
    load_snapshot,
    pending_persistable_tasks,
    record_to_task,
    restore_snapshot,
    task_to_record,
    write_snapshot,
)


def noop(ctx):
    pass


def make_db(rows=(), delay=5.0, compact=False, unique_on="grp"):
    """A small database with one unique rule and pending tasks from ``rows``."""
    db = Database()
    db.execute("create table t (k text, grp text, v real)")
    db.execute("create index t_k on t (k)")
    db.execute("create table side (a int)")
    db.register_function("f", noop)
    compact_sql = "compact on grp" if compact else ""
    db.execute(
        f"""
        create rule r on t when inserted
        if select k, grp, v from inserted bind as m
        then execute f unique on {unique_on} {compact_sql}
        after {delay} seconds
        """
    )
    for k, grp, v in rows:
        db.execute(
            "insert into t values (:k, :g, :v)", {"k": k, "g": grp, "v": v}
        )
    return db


def restored_copy(db):
    snapshot = json.loads(json.dumps(build_snapshot(db, last_lsn=0)))
    fresh = Database()
    fresh.register_function("f", noop)
    pending = restore_snapshot(fresh, snapshot)
    return fresh, pending, snapshot


def table_rows(db, name):
    return sorted(tuple(r.values) for r in db.catalog.table(name).scan())


def strip_id(record):
    return {key: value for key, value in record.items() if key != "task_id"}


class TestRoundTrip:
    def test_tables_and_indexes(self):
        db = make_db([("a", "g1", 1.5), ("b", "g2", -2.0)])
        fresh, _pending, _snapshot = restored_copy(db)
        for name in ("t", "side"):
            assert table_rows(fresh, name) == table_rows(db, name)
        t = fresh.catalog.table("t")
        assert tuple(t.schema.names()) == ("k", "grp", "v")
        assert "t_k" in t.indexes
        assert t.indexes["t_k"].kind == db.catalog.table("t").indexes["t_k"].kind
        # The restored index actually works.
        assert t.get_one("k", "a") is not None

    def test_rules_and_enabled_flag(self):
        db = make_db([("a", "g1", 1.0)])
        rule = next(iter(db.catalog.rules()))
        rule.enabled = False
        fresh, _pending, _snapshot = restored_copy(db)
        restored = {r.name: r for r in fresh.catalog.rules()}
        assert set(restored) == {"r"}
        assert restored["r"].enabled is False
        assert restored["r"].unique_on == rule.unique_on
        assert restored["r"].after == rule.after

    def test_pending_tasks_preserved_exactly(self):
        db = make_db(
            [("a", "g1", 1.0), ("b", "g2", 2.0), ("c", "g1", 3.0)], delay=7.5
        )
        originals = pending_persistable_tasks(db)
        assert len(originals) == 2  # one unique task per partition key
        fresh, pending, _snapshot = restored_copy(db)
        assert set(pending) == {task.task_id for task in originals}
        for original in originals:
            resurrected = pending[original.task_id]
            assert strip_id(task_to_record(resurrected)) == strip_id(
                task_to_record(original)
            )
            assert resurrected.unique_key == original.unique_key
            assert resurrected.release_time == original.release_time
            assert resurrected.retries == original.retries

    def test_compacted_task_keeps_fold_index(self):
        db = make_db(
            [("a", "g1", 1.0), ("a", "g1", 2.0), ("b", "g1", 3.0)],
            compact=True,
        )
        (original,) = pending_persistable_tasks(db)
        fresh, pending, _snapshot = restored_copy(db)
        resurrected = pending[original.task_id]
        folding = {
            name: table
            for name, table in original.bound_tables.items()
            if table.folding
        }
        assert folding
        assert folding.keys() == {
            name for name, table in resurrected.bound_tables.items() if table.folding
        }
        for name, table in folding.items():
            assert resurrected.bound_tables[name].spec == table.spec
            assert resurrected.bound_tables[name].index == table.index
        assert sum(
            table.rows_in for table in resurrected.bound_tables.values() if table.folding
        ) == sum(table.rows_in for table in folding.values())
        assert strip_id(task_to_record(resurrected)) == strip_id(
            task_to_record(original)
        )

    def test_clock_restored(self):
        db = make_db([("a", "g1", 1.0)])
        db.clock.set_base(123.456)
        fresh, _pending, _snapshot = restored_copy(db)
        assert fresh.clock.now() == 123.456


class TestSnapshotIO:
    def test_write_load_round_trip(self, tmp_path):
        db = make_db([("a", "g1", 1.0)])
        snapshot = build_snapshot(db, last_lsn=42)
        path = str(tmp_path / "checkpoint.json")
        nbytes = write_snapshot(snapshot, path)
        assert nbytes > 0
        assert load_snapshot(path) == json.loads(json.dumps(snapshot))

    def test_load_missing_is_none(self, tmp_path):
        assert load_snapshot(str(tmp_path / "nope.json")) is None

    def test_load_corrupt_raises(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_bytes(b"{not json")
        with pytest.raises(PersistenceError):
            load_snapshot(str(path))

    def test_load_bad_version_raises(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps({"version": 999}))
        with pytest.raises(PersistenceError):
            load_snapshot(str(path))

    def test_restore_requires_empty_database(self):
        db = make_db([("a", "g1", 1.0)])
        snapshot = build_snapshot(db, last_lsn=0)
        with pytest.raises(PersistenceError):
            restore_snapshot(db, snapshot)


_keys = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=8
)
_groups = st.sampled_from(["g0", "g1", "g2", "g3"])
_values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(st.tuples(_keys, _groups, _values), max_size=12),
        delay=st.floats(min_value=0.1, max_value=60.0),
        compact=st.booleans(),
    )
    def test_checkpoint_recover_is_identity(self, rows, delay, compact):
        """checkpoint -> restore yields identical tables and, for every
        pending unique task, an identical partition key, bound-table
        contents, and release deadline."""
        db = make_db(rows, delay=delay, compact=compact)
        originals = pending_persistable_tasks(db)
        fresh, pending, snapshot = restored_copy(db)
        assert table_rows(fresh, "t") == table_rows(db, "t")
        assert len(pending) == len(originals) == len(snapshot["tasks"])
        for original in originals:
            resurrected = pending[original.task_id]
            assert strip_id(task_to_record(resurrected)) == strip_id(
                task_to_record(original)
            )

    def test_record_to_task_round_trips_serialized_form(self):
        """task_to_record(record_to_task(r)) == r (modulo the fresh id)."""
        db = make_db([("a", "g1", 1.0), ("b", "g2", 2.0)])
        fresh = Database()
        fresh.execute("create table t (k text, grp text, v real)")
        fresh.register_function("f", noop)
        for task in pending_persistable_tasks(db):
            serialized = task_to_record(task)
            rebuilt = record_to_task(fresh, serialized)
            assert strip_id(task_to_record(rebuilt)) == strip_id(serialized)
