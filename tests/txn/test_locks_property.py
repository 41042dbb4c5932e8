"""Property-based no-wait locking invariants: three transactions driven
through a ``Database`` by random reads, writes, refusals and endings."""

from itertools import combinations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.errors import LockError
from repro.txn.locks import mode_of
from repro.txn.transaction import TransactionState

TABLES = ("t", "u")

operations = st.lists(
    st.tuples(
        st.sampled_from(("read", "insert", "update", "delete", "commit", "abort")),
        st.integers(0, 2),  # which of the three transactions acts
        st.sampled_from(TABLES),
        st.integers(0, 7),  # which current row an update or delete picks
    ),
    max_size=40,
)


def make_db() -> Database:
    db = Database()
    for name in TABLES:
        db.execute(f"create table {name} (k text, v real)")
        db.execute(f"insert into {name} values ('a', 1.0), ('b', 2.0), ('c', 3.0)")
    return db


def check_no_conflict(db: Database) -> None:
    """No two active transactions hold one resource in incompatible modes."""
    active = list(db._active_txns.values())
    for one, other in combinations(active, 2):
        for resource in db.lock_manager.held_resources(one.txn_id):
            held, theirs = mode_of(one, resource), mode_of(other, resource)
            assert theirs is None or held.compatible_with(theirs), (resource, held, theirs)


def drive(ops, check_each_step: bool) -> tuple[Database, list]:
    """Run ``ops``, then commit what is left; returns every transaction.  A
    finished transaction is replaced by a fresh one, and a refused request
    leaves its transaction active, as a caller that catches ``LockError``
    would."""
    db = make_db()
    txns = [db.begin() for _ in range(3)]
    every = list(txns)
    for step, (action, who, name, pick) in enumerate(ops):
        txn = txns[who]
        if txn.state is not TransactionState.ACTIVE:
            txn = txns[who] = db.begin()
            every.append(txn)
        table = db.catalog.table(name)
        rows = list(table.scan())
        try:
            if action == "read":
                txn.query(f"select k, v from {name}")
            elif action == "insert":
                txn.insert_record(table, [f"n{step}", float(step)])
            elif action in ("commit", "abort"):
                getattr(txn, action)()
            elif rows and action == "update":
                txn.update_columns(table, rows[pick % len(rows)], {"v": 100.0 + step})
            elif rows:
                txn.delete_record(table, rows[pick % len(rows)])
        except LockError:
            pass
        if check_each_step:
            check_no_conflict(db)
    for txn in txns:
        if txn.state is TransactionState.ACTIVE:
            txn.commit()
    return db, every


class TestLockInvariants:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ops=operations)
    def test_random_workload(self, ops):
        drive(ops, check_each_step=True)

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ops=operations)
    def test_release_everything_leaves_clean_state(self, ops):
        db, every = drive(ops, check_each_step=False)
        assert db._active_txns == {}
        assert not any(t.read_locked_tables or t.ix_locked_tables or t.row_locks for t in every)
        seen = {name: len(list(db.catalog.table(name).scan())) for name in TABLES}
        with db.begin() as txn:  # nothing left behind blocks a newcomer
            for name in TABLES:
                assert txn.query(f"select count(*) as n from {name}").scalar() == seen[name]
                txn.insert(name, ["z", 0.0])
            assert db.lock_manager.held_resources(txn.txn_id) >= {(n, None) for n in TABLES}
        assert not db.lock_manager.held_resources(txn.txn_id)
