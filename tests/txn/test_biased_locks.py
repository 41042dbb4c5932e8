"""Biased locking: a transaction that begins alone takes its locks unchecked.

The differential runs one script of reads and row writes twice.  The first
transaction of the plain run begins alone and takes its locks as set
inserts, with no ``LockManager.acquire`` call, until a second one begins.
The oracle opens an idle transaction first, so every transaction of the
script begins beside another and checks every lock through
``LockManager.acquire``.  Both must refuse the same request at the same
step, charge the same ops and the same virtual time, and answer
``held_resources`` / ``holds`` the same after every step.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.errors import InjectedDeadlockError, LockError
from repro.fault import FaultInjector
from repro.sim.clock import Meter
from repro.storage.tuples import Record
from repro.txn import locks
from repro.txn.locks import LockMode
from repro.txn.transaction import TransactionState

TABLES = ("t", "u")
MODES = (LockMode.SHARED, LockMode.INTENTION_EXCLUSIVE, LockMode.EXCLUSIVE)

steps = st.lists(
    st.tuples(
        st.sampled_from((1, 2)),  # who acts once the second transaction began
        st.sampled_from(("read", "insert", "update", "delete")),
        st.sampled_from(TABLES),
        st.integers(0, 7),  # which current row an update or delete picks
    ),
    max_size=14,
)


def make_db() -> Database:
    db = Database()
    for name in TABLES:
        db.execute(f"create table {name} (k text, v real)")
        db.execute(f"create index {name}_k on {name} (k)")
        db.execute(f"insert into {name} values ('a', 1.0), ('b', 2.0), ('c', 3.0)")
    return db


def run(script, second_at, first_ends, endings, idle_first):
    """Everything the script observably did, with transaction and record
    ids (process-global counters) renamed to what is equal across runs."""
    db = make_db()
    idle = db.begin() if idle_first else None
    base = Record([]).rid
    meter = Meter()
    db.clock.activate(meter, db.clock.base)
    txns = {1: db.begin()}
    names = {txns[1].txn_id: "T1"}

    def plain(text):
        text = re.sub(r"transaction (\d+)", lambda m: f"transaction {names[int(m[1])]}", text)
        return re.sub(r":(\d+)", lambda m: f":{int(m[1]) - base}", text)

    def locks_now():
        seen = {}
        for who, txn in txns.items():
            held = db.lock_manager.held_resources(txn.txn_id)
            seen[who] = sorted(
                (table, -1 if rid is None else rid - base,  # -1: the table lock
                 tuple(db.lock_manager.holds(txn.txn_id, (table, rid), m) for m in MODES))
                for table, rid in held
            )
        return seen

    observed = []
    for at, (actor, kind, name, pick) in enumerate(script):
        if at == second_at:
            txns[2] = db.begin()
            names[txns[2].txn_id] = "T2"
        txn = txns[actor if 2 in txns else 1]
        if txn.state is not TransactionState.ACTIVE:
            continue
        table = db.catalog.table(name)
        rows = list(table.scan())
        outcome = None
        try:
            if kind == "read":
                txn.query(f"select k, v from {name}")
            elif kind == "insert":
                txn.insert_record(table, [f"n{at}", float(at)])
            elif rows and kind == "update":
                txn.update_columns(table, rows[pick % len(rows)], {"v": 100.0 + at})
            elif rows:
                txn.delete_record(table, rows[pick % len(rows)])
        except LockError as exc:
            # Refused: the transaction aborts, as a task's does when its body
            # raises.  (Left active, a refused insert's row — in the table,
            # not yet locked — could be written by the other transaction.)
            outcome = plain(str(exc))
            txn.abort()
        observed.append((at, outcome, dict(meter.ops), meter.total.hex(), locks_now()))
    order = (1, 2) if first_ends == 1 else (2, 1)
    for who, ending in zip(order, endings):
        if who in txns and txns[who].state is TransactionState.ACTIVE:
            getattr(txns[who], ending)()
            observed.append((who, ending, dict(meter.ops), meter.total.hex(), locks_now()))
    db.clock.deactivate()
    if idle is not None:
        idle.abort()
    tables = {name: sorted(r.values for r in db.catalog.table(name).scan()) for name in TABLES}
    return observed, tables, db, txns


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    script=steps,
    second_at=st.integers(0, 15),  # past the script's end: never
    first_ends=st.sampled_from((1, 2)),
    endings=st.tuples(*[st.sampled_from(("commit", "abort"))] * 2),
)
def test_biased_locking_matches_eager_locking(script, second_at, first_ends, endings):
    biased, biased_tables, db, txns = run(script, second_at, first_ends, endings, idle_first=False)
    eager, eager_tables, oracle, oracle_txns = run(
        script, second_at, first_ends, endings, idle_first=True)
    assert biased == eager
    assert biased_tables == eager_tables
    for database, ran in ((db, txns), (oracle, oracle_txns)):
        assert database._active_txns == {}
        assert not any(t.read_locked_tables or t.ix_locked_tables or t.row_locks
                       for t in ran.values())


def test_the_first_transaction_is_reserved_until_a_second_begins():
    db = make_db()
    table = db.catalog.table("t")
    first = db.begin()
    assert not first.checked
    first.query("select k from t")
    first.update_columns(table, table.get_one("k", "a"), {"v": 9.0})
    assert first.read_locked_tables == first.ix_locked_tables == {"t"}
    held = set(db.lock_manager.held_resources(first.txn_id))
    assert ("t", None) in held and len(held) == 3  # the table and both row versions
    assert db.lock_manager.holds(first.txn_id, ("t", None), LockMode.EXCLUSIVE)  # S + IX
    second = db.begin()
    assert first.checked and second.checked
    assert set(db.lock_manager.held_resources(first.txn_id)) == held
    assert db.lock_manager.holds(first.txn_id, ("t", None), LockMode.EXCLUSIVE)
    with pytest.raises(LockError):  # the first's X table lock (S + IX) blocks a reader
        second.query("select k from t")
    second.abort()
    first.commit()
    assert not (first.read_locked_tables or first.ix_locked_tables or first.row_locks)
    third = db.begin()  # alone again
    assert not third.checked
    third.commit()
    assert db._active_txns == {}


def test_with_faults_armed_every_lock_goes_through_acquire(monkeypatch):
    """A ``lock.acquire`` plan fires on the same call as with eager locking:
    here the third request (IX on the table, then one row lock per insert)."""
    calls = []
    acquire = locks.LockManager.acquire

    def counted(self, txn, resource, mode):
        calls.append((resource[1] is None, mode))
        return acquire(self, txn, resource, mode)

    monkeypatch.setattr(locks.LockManager, "acquire", counted)
    db = Database(faults=FaultInjector("lock.acquire:deadlock@nth=3"))
    db.faults.enabled = False
    db.execute("create table t (k text, v real)")
    db.faults.enabled = True
    calls.clear()
    txn = db.begin()
    assert txn.checked
    txn.insert("t", ["a", 1.0])
    with pytest.raises(InjectedDeadlockError):
        txn.insert("t", ["b", 2.0])
    assert calls == [(True, LockMode.INTENTION_EXCLUSIVE), (False, LockMode.EXCLUSIVE),
                     (False, LockMode.EXCLUSIVE)]
    assert len(txn.log) == 2  # the second insert is logged before its lock
    txn.abort()
    assert db.query("select count(*) as n from t").scalar() == 0
    assert not (txn.ix_locked_tables or txn.row_locks)
