"""Maintained views against an oracle that shares no code with them.

Hypothesis draws short transaction streams over ``stocks`` / ``positions``
tables — price updates, position inserts (some with NULL shares), deletes,
a position's key-column update, a stock deleted and listed again, and a
transaction that touches both tables — and runs each against a keyed
projection view and a ``SUM … GROUP BY`` view (``unique on`` its key)
maintained under each strategy.  After draining, every view is compared as a
multiset with what stdlib ``sqlite3`` answers to the *same SELECT text* over
the same base rows, copied out of the database.  Nothing of the rule engine,
the planner or the folds runs on the oracle's side.

One transaction may change a stock *and* a position on that stock.  Each
base table's rule joins its own changes with the other table *after* the
transaction, so the pairs of two changed rows (ΔR ⋈ ΔS) reach the ``SUM``
view from both rules; the view rederives the keys of such a commit instead
of adding them up (DESIGN.md 5b).  Every stream also runs with the views
materialized without ``unique``, where every firing is its own task and
the two rules' deltas never share a batch.

Known differences, normalised here and nowhere else:

* **NULL sums.**  SQLite's ``SUM`` over a group whose every argument is NULL
  is NULL; an incrementally maintained group adds only non-NULL deltas and
  holds 0.0.  The exposure column reads NULL as 0.0 on both sides; the
  projection's ``value`` column compares NULL with NULL exactly.
* **Affinity.**  ``real`` columns store what they are given as floats in
  both engines here (every generated value is a float or NULL), and text
  keys compare as text, so no value changes type on its way to SQLite.

Floats are compared with one tolerance, ``REL`` relative and ``ABS``
absolute: a maintained sum is a different order of the same additions.
"""

from __future__ import annotations

import math
import sqlite3

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.views.maintain import materialize

REL, ABS = 1e-9, 1e-6
SYMBOLS = ("A", "B", "C", "D")

SCHEMA = (
    "create table stocks (symbol text, price real)",
    "create table positions (pos_id text, symbol text, shares real)",
)
PROJECTION = (
    "select pos_id, positions.symbol as symbol, shares * price as value "
    "from positions, stocks where positions.symbol = stocks.symbol"
)
AGGREGATE = (
    "select positions.symbol as symbol, sum(shares * price) as exposure "
    "from positions, stocks where positions.symbol = stocks.symbol "
    "group by positions.symbol"
)

prices = st.floats(min_value=0.5, max_value=200.0).map(lambda p: round(p, 2))
shares = st.one_of(st.none(), st.floats(min_value=1.0, max_value=500.0).map(lambda s: round(s, 1)))
symbols = st.sampled_from(SYMBOLS)
positions = st.integers(min_value=0, max_value=11)

stock_op = st.one_of(
    st.tuples(st.just("price"), symbols, prices),
    st.tuples(st.just("delist"), symbols),
    st.tuples(st.just("list"), symbols, prices),
)
position_op = st.one_of(
    st.tuples(st.just("open"), symbols, shares),
    st.tuples(st.just("close"), positions),
    st.tuples(st.just("move"), positions, symbols),
    st.tuples(st.just("shares"), positions, shares),
)
#: A transaction that touches both tables: a price update and a position
#: opened, on one symbol or two.
both = st.tuples(symbols, symbols, prices, shares).map(
    lambda d: [("price", d[0], d[2]), ("open", d[1], d[3])]
)
#: A transaction is one to three operations on one table, ``both``, or one
#: to four operations on either table in any order; "drain" runs the pending
#: maintenance between transactions.
stream = st.lists(
    st.one_of(
        st.lists(stock_op, min_size=1, max_size=3),
        st.lists(position_op, min_size=1, max_size=3),
        both,
        st.lists(st.one_of(stock_op, position_op), min_size=2, max_size=4),
        st.just("drain"),
    ),
    min_size=1, max_size=7,
)


def _database(strategy: str, unique: bool = True) -> Database:
    db = Database()
    for statement in SCHEMA:
        db.execute(statement)
    txn = db.begin()
    for at, symbol in enumerate(SYMBOLS[:3]):
        txn.insert("stocks", [symbol, 10.0 + at])
    for at in range(6):
        txn.insert("positions", [f"P{at}", SYMBOLS[at % 4], float(at + 1)])
    txn.commit()
    db.execute(f"create view position_values as {PROJECTION}")
    db.execute(f"create view symbol_exposure as {AGGREGATE}")
    materialize(
        db, "position_values", unique=unique, delay=0.5, key=("pos_id",), maintenance=strategy
    )
    materialize(
        db, "symbol_exposure", unique=unique, unique_on=("symbol",) if unique else (),
        delay=0.5, maintenance=strategy,
    )
    return db


def _apply(db: Database, transaction: list, opened: list) -> None:
    """One transaction of the stream.  ``opened`` counts the position ids
    handed out, so every insert opens a new one (the view key stays unique)."""
    txn = db.begin()
    for op in transaction:
        kind = op[0]
        if kind == "price":
            sql, params = "update stocks set price = :p where symbol = :s", {
                "s": op[1], "p": op[2],
            }
        elif kind == "open":
            sql, params = "insert into positions values (:i, :s, :n)", {
                "i": f"P{opened[0]}", "s": op[1], "n": op[2],
            }
            opened[0] += 1
        elif kind == "close":
            sql, params = "delete from positions where pos_id = :i", {"i": f"P{op[1]}"}
        elif kind == "move":
            sql, params = "update positions set symbol = :s where pos_id = :i", {
                "i": f"P{op[1]}", "s": op[2],
            }
        elif kind == "shares":
            sql, params = "update positions set shares = :n where pos_id = :i", {
                "i": f"P{op[1]}", "n": op[2],
            }
        elif kind == "delist":
            sql, params = "delete from stocks where symbol = :s", {"s": op[1]}
        else:  # list, unless already listed: one stock row per symbol
            if db.query_in_txn(
                "select symbol from stocks where symbol = :s", txn, {"s": op[1]}
            ).rows():
                continue
            sql, params = "insert into stocks values (:s, :p)", {"s": op[1], "p": op[2]}
        db.execute_in_txn(sql, txn, params)
    txn.commit()


def _oracle(db: Database, select: str) -> list:
    """``select`` run by SQLite over a copy of the database's base rows."""
    lite = sqlite3.connect(":memory:")
    try:
        for statement in SCHEMA:
            lite.execute(statement)
        for table, marks in (("stocks", "?, ?"), ("positions", "?, ?, ?")):
            rows = db.query(f"select * from {table}").rows()
            lite.executemany(f"insert into {table} values ({marks})", rows)
        return [list(row) for row in lite.execute(select)]
    finally:
        lite.close()


def _same_multiset(got: list, expected: list, float_at: int, null_as_zero: bool) -> bool:
    """Rows equal as multisets: the column at ``float_at`` within the
    tolerance, every other column exactly.  A NULL there matches only NULL,
    unless ``null_as_zero`` reads it as 0.0 (the NULL sums above)."""
    def norm(rows):
        pairs = []
        for row in rows:
            value = row[float_at]
            if value is None and null_as_zero:
                value = 0.0
            pairs.append(([v for at, v in enumerate(row) if at != float_at], value))
        return sorted(pairs, key=lambda pair: (pair[0], pair[1] is None, pair[1] or 0.0))

    def same(a, b):
        if a is None or b is None:
            return a is b
        return math.isclose(a, b, rel_tol=REL, abs_tol=ABS)

    left, right = norm(got), norm(expected)
    return len(left) == len(right) and all(
        a_key == b_key and same(a_val, b_val)
        for (a_key, a_val), (b_key, b_val) in zip(left, right)
    )


#: Each strategy, with and without ``unique``.
STRATEGY_GRID = pytest.mark.parametrize(
    "strategy, unique",
    [
        pytest.param(strategy, unique, id=strategy + ("" if unique else "-nonunique"))
        for unique in (True, False)
        for strategy in ("incremental", "dred", "recompute")
    ],
)


@STRATEGY_GRID
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=stream)
def test_views_match_sqlite_after_any_stream(strategy, unique, steps):
    db = _database(strategy, unique)
    opened = [6]
    for step in steps:
        if step == "drain":
            db.drain()
        else:
            _apply(db, step, opened)
    _check(db)


def _check(db: Database) -> None:
    db.drain()
    projection = db.query("select pos_id, symbol, value from position_values").rows()
    assert _same_multiset(projection, _oracle(db, PROJECTION), 2, null_as_zero=False), (
        sorted(projection, key=repr), sorted(_oracle(db, PROJECTION), key=repr)
    )
    exposure = db.query("select symbol, exposure from symbol_exposure").rows()
    assert _same_multiset(exposure, _oracle(db, AGGREGATE), 1, null_as_zero=True), (
        sorted(exposure, key=repr), sorted(_oracle(db, AGGREGATE), key=repr)
    )


@STRATEGY_GRID
def test_a_stock_and_a_position_on_it_changed_in_one_transaction(strategy, unique):
    """The pair of changed rows counts once.  Without ``unique`` each rule
    firing gets its own task, so the two tables' deltas are never in one
    batch: whichever task runs first rederives the key, and the other's
    rows of that commit fall under the requery's horizon."""
    db = _database(strategy, unique)
    _apply(db, [("price", "A", 1.0), ("open", "A", 1.0)], [6])
    _check(db)


@pytest.mark.parametrize("strategy", ["incremental", "dred", "recompute"])
@pytest.mark.parametrize(
    "steps",
    [
        [[("price", "A", 1.0), ("price", "A", 0.5)], [("price", "A", 1.0), ("open", "B", None)]],
        [[("price", "B", 1.0), ("open", "A", 1.0)], [("price", "A", 1.0)]],
    ],
    ids=["later-transaction-first-statement", "insert-then-price"],
)
def test_transactions_at_one_virtual_time_apply_in_commit_order(strategy, steps):
    """Every commit here happens at virtual time 0, so commit times tie: a
    projection replays its batch by commit sequence, then execute order.
    (Ordered by commit time first, the earlier transaction's later
    statement won and left the stale value.)"""
    db = _database(strategy)
    opened = [6]
    for step in steps:
        _apply(db, step, opened)
    _check(db)


def test_only_a_commit_firing_two_rules_of_one_view_is_recorded_as_paired():
    """``RuleEngine.paired_commits`` is written on a repeat within one
    commit and nowhere else: a commit that changes one table fires one rule
    per view."""
    db = _database("incremental")
    _apply(db, [("price", "A", 1.0)], [6])
    _apply(db, [("open", "B", 2.0), ("shares", 0, 3.0)], [6])
    assert db.rule_engine.paired_commits == {}
    _apply(db, [("price", "A", 2.0), ("open", "A", 1.0)], [7])
    paired = {db.last_commit_seq}
    assert db.rule_engine.paired_commits == {
        "maintain_position_values": paired, "maintain_symbol_exposure": paired,
    }
    _check(db)
