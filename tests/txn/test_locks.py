"""No-wait locking, driven through transactions: modes, grants, refusals.

Row locks are X; a read takes S on its table and a row write IX (a table
both read and written is X).  A request that conflicts with another active
transaction is refused with ``LockError`` at once and leaves nothing held.
"""

import pytest

from repro.database import Database
from repro.errors import LockError, SchemaError
from repro.txn import locks
from repro.txn.locks import LockMode

S = LockMode.SHARED
X = LockMode.EXCLUSIVE
IX = LockMode.INTENTION_EXCLUSIVE
TABLE = ("t", None)


@pytest.fixture
def db():
    database = Database()
    for name in ("t", "u"):
        database.execute(f"create table {name} (k text, v real)")
        database.execute(f"create index {name}_k on {name} (k)")
        database.execute(f"insert into {name} values ('a', 1.0), ('b', 2.0)")
    return database


def row(db, key, table="t"):
    return db.catalog.table(table).get_one("k", key)


def write(db, txn, key, table="t"):
    """Update one row; returns the lock resource of the fresh version."""
    fresh = txn.update_columns(db.catalog.table(table), row(db, key, table), {"v": 9.0})
    return (table, fresh.rid)


def holds(db, txn, resource, mode):
    return db.lock_manager.holds(txn.txn_id, resource, mode)


class TestModes:
    def test_compatibility(self):
        assert S.compatible_with(S)
        assert IX.compatible_with(IX)
        assert not S.compatible_with(IX) and not IX.compatible_with(S)
        for mode in (S, IX, X):
            assert not X.compatible_with(mode) and not mode.compatible_with(X)


class TestGrants:
    def test_exclusive_grant(self, db):
        txn = db.begin()
        resource = write(db, txn, "a")
        assert holds(db, txn, resource, X)

    def test_shared_sharing(self, db):
        txn1, txn2 = db.begin(), db.begin()
        txn1.query("select k from t")
        txn2.query("select k from t")
        assert holds(db, txn1, TABLE, S) and holds(db, txn2, TABLE, S)

    def test_exclusive_blocks_shared(self, db):
        txn1, txn2 = db.begin(), db.begin()
        txn1.query("select k from t")
        write(db, txn1, "a")  # S + IX: X on the table
        with pytest.raises(LockError, match="blocked on table 't'; the serial engine cannot wait"):
            txn2.query("select k from t")
        assert not holds(db, txn2, TABLE, S)
        assert not db.lock_manager.held_resources(txn2.txn_id)

    def test_shared_blocks_exclusive(self, db):
        txn1, txn2 = db.begin(), db.begin()
        txn1.query("select k from t")
        with pytest.raises(LockError, match="blocked on table 't' \\(held by a reader\\)"):
            write(db, txn2, "a")
        assert not db.lock_manager.held_resources(txn2.txn_id)

    def test_row_writers_conflict(self, db):
        txn1 = db.begin()
        resource = write(db, txn1, "a")
        txn2 = db.begin()
        fresh = db.catalog.table("t").get_one("k", "a")
        with pytest.raises(LockError, match=f"blocked on row t:{resource[1]}$"):
            txn2.delete_record(db.catalog.table("t"), fresh)
        assert holds(db, txn2, TABLE, IX) and not holds(db, txn2, resource, X)

    def test_reentrant(self, db, monkeypatch):
        calls = []
        acquire = locks.LockManager.acquire
        monkeypatch.setattr(locks.LockManager, "acquire",
                            lambda self, *args: calls.append(args[1:]) or acquire(self, *args))
        txn, _peer = db.begin(), db.begin()
        txn.query("select k from t")
        txn.query("select v from t")  # held: no second request
        write(db, txn, "a")
        write(db, txn, "b")  # IX held: only the row locks are requested
        assert calls.count((TABLE, S)) == calls.count((TABLE, IX)) == 1
        assert holds(db, txn, TABLE, S)  # weaker request is satisfied by X

    def test_upgrade_sole_holder(self, db):
        txn, peer = db.begin(), db.begin()
        peer.query("select k from u")  # a peer, but not on t
        txn.query("select k from t")
        write(db, txn, "a")  # S -> X
        assert holds(db, txn, TABLE, X)

    def test_upgrade_blocked_by_other_sharer(self, db):
        txn1, txn2 = db.begin(), db.begin()
        txn1.query("select k from t")
        txn2.query("select k from t")
        with pytest.raises(LockError):
            write(db, txn1, "a")
        assert holds(db, txn1, TABLE, S) and not holds(db, txn1, TABLE, IX)
        assert db.lock_manager.held_resources(txn1.txn_id) == {TABLE}

    def test_independent_resources(self, db):
        txn1, txn2 = db.begin(), db.begin()
        first, second = write(db, txn1, "a"), write(db, txn2, "b")
        assert holds(db, txn1, first, X) and holds(db, txn2, second, X)
        txn1.commit()
        txn2.commit()
        assert not db.lock_manager.held_resources(txn1.txn_id)


class TestIntentionMode:
    def test_holds_reports_held_ix(self, db):
        txn = db.begin()
        write(db, txn, "a")
        assert holds(db, txn, TABLE, IX)

    def test_held_ix_does_not_satisfy_shared(self, db):
        txn = db.begin()
        write(db, txn, "a")
        assert not holds(db, txn, TABLE, S)
        assert not holds(db, txn, TABLE, X)

    def test_exclusive_covers_everything(self, db):
        txn = db.begin()
        txn.query("select k from t")
        write(db, txn, "a")
        assert all(holds(db, txn, TABLE, mode) for mode in (S, IX, X))

    def test_ix_sharing_and_reentry(self, db):
        txn1, txn2 = db.begin(), db.begin()
        write(db, txn1, "a")
        write(db, txn2, "b")  # row writers of different rows
        txn1.insert("t", ["c", 3.0])  # re-entrant IX
        assert holds(db, txn1, TABLE, IX) and holds(db, txn2, TABLE, IX)

    def test_ix_upgrade_to_exclusive_sole_holder(self, db):
        txn, peer = db.begin(), db.begin()
        write(db, peer, "a", table="u")
        write(db, txn, "a")
        txn.query("select k from t")  # IX -> X
        assert holds(db, txn, TABLE, X)


class TestRefusedInsert:
    """A refused insert used to put its row in the table (and the undo log)
    before the table's IX lock was refused."""

    def test_a_reader_never_sees_the_refused_row(self, db):
        reader = db.begin()
        assert reader.query("select v from t").rows() == [[1.0], [2.0]]
        writer = db.begin()
        with pytest.raises(LockError):
            writer.insert("t", {"k": "c", "v": 3.0})
        assert sorted(reader.query("select k from t").rows()) == [["a"], ["b"]]
        assert len(writer.log) == 0

    def test_the_refused_writer_aborts_cleanly_after_the_reader_commits(self, db):
        reader = db.begin()
        reader.query("select v from t")
        writer = db.begin()
        with pytest.raises(LockError):
            writer.insert("t", {"k": "c", "v": 3.0})
        table = db.catalog.table("t")
        for record in list(table.scan()):
            reader.update_columns(table, record, {"v": record.values[1] * 10})
        reader.commit()
        writer.abort()
        assert sorted(db.query("select k, v from t").rows()) == [["a", 10.0], ["b", 20.0]]

    def test_a_rejected_first_insert_holds_the_table_intent(self, db):
        """The IX lock comes before storage sees the values, so an insert
        that storage rejects has already charged and taken it."""
        txn = db.begin()
        with pytest.raises(SchemaError):
            txn.insert("t", ["c"])
        assert db.lock_manager.held_resources(txn.txn_id) == {TABLE}
        txn.abort()
