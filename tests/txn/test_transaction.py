"""Tests for transactions: logging, locking, commit, abort/undo."""

import pytest

from repro.database import Database
from repro.errors import TransactionError
from repro.txn.log import DELETE, INSERT, UPDATE


@pytest.fixture
def db():
    database = Database()
    database.execute("create table t (k text, v real)")
    database.execute("create index t_k on t (k)")
    return database


def rows(db):
    return sorted(db.query("select k, v from t").rows())


class TestBasics:
    def test_insert_logs(self, db):
        txn = db.begin()
        txn.insert("t", {"k": "a", "v": 1.0})
        assert len(txn.log) == 1
        assert txn.log.entries[0].kind == INSERT
        txn.commit()
        assert rows(db) == [["a", 1.0]]

    def test_update_logs_old_and_new(self, db):
        db.execute("insert into t values ('a', 1.0)")
        txn = db.begin()
        table = db.catalog.table("t")
        record = table.get_one("k", "a")
        txn.update_columns(table, record, {"v": 2.0})
        entry = txn.log.entries[0]
        assert entry.kind == UPDATE
        assert entry.old_record.values == ["a", 1.0]
        assert entry.new_record.values == ["a", 2.0]
        txn.commit()

    def test_delete_logs(self, db):
        db.execute("insert into t values ('a', 1.0)")
        txn = db.begin()
        table = db.catalog.table("t")
        txn.delete_record(table, table.get_one("k", "a"))
        assert txn.log.entries[0].kind == DELETE
        txn.commit()
        assert rows(db) == []

    def test_commit_time_stamped(self, db):
        db.advance(7.5)
        txn = db.begin()
        txn.insert("t", {"k": "a", "v": 1.0})
        txn.commit()
        assert txn.commit_time == 7.5

    def test_use_after_commit_rejected(self, db):
        txn = db.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.insert("t", {"k": "a", "v": 1.0})
        with pytest.raises(TransactionError):
            txn.commit()

    def test_locks_released_at_commit(self, db):
        txn = db.begin()
        txn.insert("t", {"k": "a", "v": 1.0})
        assert db.lock_manager.held_resources(txn.txn_id)
        txn.commit()
        assert not db.lock_manager.held_resources(txn.txn_id)

    def test_context_manager_commits(self, db):
        with db.begin() as txn:
            txn.insert("t", {"k": "a", "v": 1.0})
        assert rows(db) == [["a", 1.0]]

    def test_context_manager_aborts_on_error(self, db):
        with pytest.raises(ValueError):
            with db.begin() as txn:
                txn.insert("t", {"k": "a", "v": 1.0})
                raise ValueError("boom")
        assert rows(db) == []


class TestAbortUndo:
    def test_abort_insert(self, db):
        txn = db.begin()
        txn.insert("t", {"k": "a", "v": 1.0})
        txn.abort()
        assert rows(db) == []

    def test_abort_delete_restores(self, db):
        db.execute("insert into t values ('a', 1.0)")
        txn = db.begin()
        table = db.catalog.table("t")
        txn.delete_record(table, table.get_one("k", "a"))
        txn.abort()
        assert rows(db) == [["a", 1.0]]

    def test_abort_update_restores(self, db):
        db.execute("insert into t values ('a', 1.0)")
        txn = db.begin()
        table = db.catalog.table("t")
        txn.update_columns(table, table.get_one("k", "a"), {"v": 9.0})
        txn.abort()
        assert rows(db) == [["a", 1.0]]

    def test_abort_chained_updates(self, db):
        db.execute("insert into t values ('a', 1.0)")
        txn = db.begin()
        table = db.catalog.table("t")
        record = table.get_one("k", "a")
        record = txn.update_columns(table, record, {"v": 2.0})
        record = txn.update_columns(table, record, {"v": 3.0})
        txn.abort()
        assert rows(db) == [["a", 1.0]]

    def test_abort_insert_then_update(self, db):
        txn = db.begin()
        record = txn.insert("t", {"k": "a", "v": 1.0})
        table = db.catalog.table("t")
        txn.update_columns(table, record, {"v": 2.0})
        txn.abort()
        assert rows(db) == []

    def test_abort_mixed_multi_row(self, db):
        db.execute("insert into t values ('keep', 0.0), ('mod', 1.0), ('gone', 2.0)")
        txn = db.begin()
        table = db.catalog.table("t")
        txn.insert("t", {"k": "new", "v": 9.0})
        txn.update_columns(table, table.get_one("k", "mod"), {"v": 99.0})
        txn.delete_record(table, table.get_one("k", "gone"))
        txn.abort()
        assert rows(db) == [["gone", 2.0], ["keep", 0.0], ["mod", 1.0]]

    def test_abort_restores_index_consistency(self, db):
        db.execute("insert into t values ('a', 1.0)")
        txn = db.begin()
        table = db.catalog.table("t")
        txn.update_columns(table, table.get_one("k", "a"), {"k": "b"})
        txn.abort()
        assert table.get_one("k", "a") is not None
        assert table.get_one("k", "b") is None

    def test_abort_counts(self, db):
        txn = db.begin()
        txn.abort()
        assert db.aborted_txns == 1


class TestSqlInTxn:
    def test_txn_execute_and_query(self, db):
        txn = db.begin()
        txn.execute("insert into t values ('a', 1.0)")
        assert txn.query("select v from t where k = 'a'").scalar() == 1.0
        txn.commit()

    def test_uncommitted_visible_to_self(self, db):
        """Our engine runs transactions serially; a transaction reads its
        own writes immediately."""
        txn = db.begin()
        txn.execute("insert into t values ('a', 1.0)")
        txn.execute("update t set v = v + 1 where k = 'a'")
        assert txn.query("select v from t where k = 'a'").scalar() == 2.0
        txn.abort()
        assert rows(db) == []


class TestStaleRecord:
    """A write must name the current version of its row.  An image this
    transaction already replaced used to fail untyped, after touching the
    indexes: ``ValueError: list.remove(x)`` on an indexed table,
    ``RuntimeError: record N is not linked`` on an unindexed one."""

    @pytest.fixture(params=["indexed", "unindexed"])
    def table(self, db, request):
        if request.param == "unindexed":
            db.execute("drop index t_k")
        db.execute("insert into t values ('a', 1.0), ('b', 5.0)")
        return db.catalog.table("t")

    @pytest.mark.parametrize("write", ["update", "delete"])
    def test_write_to_a_replaced_version_fails_typed(self, db, table, write):
        txn = db.begin()
        stale = table.get_one("k", "a")
        live = txn.update_record(table, stale, ["a", 2.0])
        updates, deletes = table.update_count, table.delete_count
        with pytest.raises(TransactionError, match=rf"record {stale.rid} .* table 't'"):
            if write == "update":
                txn.update_record(table, stale, ["a", 3.0])
            else:
                txn.delete_record(table, stale)
        assert (table.update_count, table.delete_count) == (updates, deletes)
        assert live.in_table and live.values == ["a", 2.0]
        assert [r.values for r in table.lookup(("k",), "a")] == [["a", 2.0]]
        assert len(txn.log) == 1  # the refused write logged nothing
        txn.commit()
        assert rows(db) == [["a", 2.0], ["b", 5.0]]

    @pytest.mark.parametrize("write", ["update", "delete"])
    def test_write_to_a_deleted_row_fails_typed(self, db, table, write):
        txn = db.begin()
        gone = table.get_one("k", "a")
        txn.delete_record(table, gone)
        with pytest.raises(TransactionError, match="no longer the current version"):
            if write == "update":
                txn.update_record(table, gone, ["a", 3.0])
            else:
                txn.delete_record(table, gone)
        txn.abort()
        assert rows(db) == [["a", 1.0], ["b", 5.0]]
