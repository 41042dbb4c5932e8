"""Interleaved transactions through the engine (single-threaded engine:
conflicts surface as immediate LockError rather than blocking)."""

import pytest

from repro.database import Database
from repro.errors import LockError


@pytest.fixture
def db():
    database = Database()
    database.execute("create table t (k text, v real)")
    database.execute("create index t_k on t (k)")
    database.execute("insert into t values ('a', 1.0), ('b', 2.0)")
    return database


def holds_any(txn) -> bool:
    return bool(txn.read_locked_tables or txn.ix_locked_tables or txn.row_locks)


class TestInterleaving:
    def test_disjoint_rows_interleave_fine(self, db):
        table = db.catalog.table("t")
        txn1 = db.begin()
        txn2 = db.begin()
        txn1.update_columns(table, table.get_one("k", "a"), {"v": 10.0})
        txn2.update_columns(table, table.get_one("k", "b"), {"v": 20.0})
        txn1.commit()
        txn2.commit()
        assert sorted(db.query("select v from t").rows()) == [[10.0], [20.0]]

    def test_write_write_conflict_raises(self, db):
        table = db.catalog.table("t")
        txn1 = db.begin()
        record = table.get_one("k", "a")
        txn1.update_columns(table, record, {"v": 10.0})
        txn2 = db.begin()
        fresh = table.get_one("k", "a")
        with pytest.raises(LockError):
            txn2.update_columns(table, fresh, {"v": 99.0})
        txn2.abort()
        txn1.commit()
        assert db.query("select v from t where k = 'a'").scalar() == 10.0

    def test_read_lock_blocks_writer(self, db):
        txn1 = db.begin()
        txn1.query("select v from t")  # takes the shared table lock
        txn2 = db.begin()
        table = db.catalog.table("t")
        with pytest.raises(LockError):
            txn2.update_columns(table, table.get_one("k", "a"), {"v": 9.0})
        txn2.abort()
        txn1.commit()

    def test_readers_share(self, db):
        txn1 = db.begin()
        txn2 = db.begin()
        assert txn1.query("select count(*) as n from t").scalar() == 2
        assert txn2.query("select count(*) as n from t").scalar() == 2
        txn1.commit()
        txn2.commit()

    def test_conflict_clears_after_commit(self, db):
        table = db.catalog.table("t")
        txn1 = db.begin()
        txn1.update_columns(table, table.get_one("k", "a"), {"v": 10.0})
        txn1.commit()
        txn2 = db.begin()
        txn2.update_columns(table, table.get_one("k", "a"), {"v": 11.0})
        txn2.commit()
        assert db.query("select v from t where k = 'a'").scalar() == 11.0

    def test_aborted_txn_releases_locks(self, db):
        table = db.catalog.table("t")
        txn1 = db.begin()
        txn1.update_columns(table, table.get_one("k", "a"), {"v": 10.0})
        txn1.abort()
        txn2 = db.begin()
        txn2.update_columns(table, table.get_one("k", "a"), {"v": 12.0})
        txn2.commit()
        assert db.query("select v from t where k = 'a'").scalar() == 12.0


class TestRefusedRequestIsWithdrawn:
    """A refused lock request used to stay queued in the lock manager after
    LockError; if the refused transaction then *committed* (the caller caught
    the error), the holder's release granted the lock to the finished
    transaction and nothing ever released it."""

    def test_refused_table_lock_then_commit_leaves_nothing_held(self, db):
        txn1 = db.begin()
        txn1.query("select v from t")  # shared table lock
        txn2 = db.begin()
        with pytest.raises(LockError):
            txn2.insert("t", {"k": "c", "v": 3.0})  # IX refused by the reader
        txn2.commit()  # the caller swallowed the error and carries on
        txn1.commit()
        assert not any(holds_any(txn) for txn in (txn1, txn2))
        with db.begin() as txn3:  # every later reader used to be blocked
            assert txn3.query("select count(*) as n from t").scalar() == 2

    def test_refused_row_lock_then_commit_leaves_nothing_held(self, db):
        table = db.catalog.table("t")
        txn1 = db.begin()
        txn1.update_columns(table, table.get_one("k", "a"), {"v": 10.0})
        txn2 = db.begin()
        with pytest.raises(LockError):
            txn2.update_columns(table, table.get_one("k", "a"), {"v": 99.0})
        txn2.commit()
        txn1.commit()
        assert not any(holds_any(txn) for txn in (txn1, txn2))
        with db.begin() as txn3:
            txn3.update_columns(table, table.get_one("k", "a"), {"v": 11.0})
        assert db.query("select v from t where k = 'a'").scalar() == 11.0

    def test_refusal_leaves_no_wait_queued(self, db):
        txn1 = db.begin()
        txn1.query("select v from t")
        txn2 = db.begin()
        with pytest.raises(LockError, match="blocked on table 't' \\(held by a reader\\)"):
            txn2.insert("t", {"k": "c", "v": 3.0})
        assert not holds_any(txn2)
        txn2.abort()
        txn1.commit()
