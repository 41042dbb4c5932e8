"""Prepared DML, held to the parent and then to a model.

``golden_dml.json`` was generated on the commit *before* UPDATE / DELETE /
INSERT became prepared closures: for each statement x data case it holds
what the interpreted executors returned or raised, the rows left behind, the
transaction log, the locks held before commit, ``meter.ops`` and — bit for
bit — ``meter.total``.  The prepared path must reproduce it exactly; only a
change that *means* to move one of these regenerates the file::

    PYTHONPATH=src python -m tests.sql.test_prepared_dml --regenerate

Beside it: a hypothesis run against a dict-of-rows model, the stale-plan
cases (one SQL text — DML or SELECT — executed across index DDL, a
re-created table or view, ``materialize``, rule DDL, two databases), and the
regression tests for DML that reads a task's bound tables.
"""

from __future__ import annotations

import gc
import io
import json
import os
import re
import sys
import tokenize
import weakref
from ast import literal_eval as ast_literal
from collections import Counter
from typing import Any, Optional

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.errors import CatalogError, PlanError, StripError
from repro.sim.clock import Meter
from repro.sim.costmodel import CostModel
from repro.sql import ast, executor, expressions, planner
from repro.sql.executor import execute_delete, execute_update
from repro.sql.parser import parse_statement
from repro.storage.index import HashIndex
from repro.storage.schema import ColumnType
from repro.storage.table import Table
from repro.txn import locks
from repro.txn.locks import LockMode
from repro.txn.transaction import Transaction
from repro.views.maintain import materialize
from tests.integration import test_golden_virtual as golden_virtual
from tests.sql.test_compiled_pipeline import metered, plan_builds, same_meter

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_dml.json")

T_ROWS = [
    ("a", 1, 10.0, 1.0),
    ("b", 1, 20.0, None),
    ("c", 2, None, 3.0),
    ("d", 2, 40.0, 4.0),
    (None, 3, 50.0, 5.0),
    ("a", 3, 60.0, 6.0),
]
U_ROWS = [("a", 1), ("c", 2), (None, 3)]

#: A cost table no other test uses: every DML charge has its own odd value,
#: so a charge baked in from another model, or dropped, moves the total.
ODD_COSTS = CostModel().with_overrides(
    lock_acquire=9.1, cursor_open=23.3, cursor_fetch=17.3, cursor_update=31.7,
    cursor_close=5.9, cursor_insert=29.3, cursor_delete=27.1, index_probe=3.7,
    row_scan=1.9, expr_eval=0.7,
)


def make_db(index: Optional[str], cost_model: Optional[CostModel] = None) -> Database:
    """``t (k, g, v, w)`` and ``u (k, n)``; ``index`` names what ``t`` carries:
    ``hash`` / ``rbtree`` on ``k``, ``hash_g`` / ``rbtree_g`` on ``g``, None.
    A red-black tree cannot order NULL, so under ``rbtree`` no ``k`` is NULL."""
    db = Database(cost_model=cost_model)
    db.execute_script(
        """
        create table t (k text, g int, v real, w real);
        create table u (k text, n int);
        create table empty (k text, v real);
        """
    )
    if index is not None:
        kind, _, column = index.partition("_")
        db.execute(f"create index t_probe on t ({column or 'k'}) using {kind}")
    with db.begin() as txn:
        for row in T_ROWS:
            if index != "rbtree" or row[0] is not None:
                txn.insert("t", list(row))
        for row in U_ROWS:
            txn.insert("u", list(row))
    return db


def case(*statements, index="hash", costs=None, preload=0.0, auto=False):
    """One golden case: ``statements`` are ``sql`` or ``(sql, params)``, run in
    one transaction (``auto``: each through ``db.execute``, auto-commit)."""
    return {
        "statements": [(s, None) if isinstance(s, str) else s for s in statements],
        "index": index, "costs": costs, "preload": preload, "auto": auto,
    }


def _cases() -> dict[str, dict]:
    out: dict[str, dict] = {}
    set_v = "update t set v = :x where k = :k"
    for index in ("hash", "rbtree", None):
        tag = index or "unindexed"
        out[f"update/one/{tag}"] = case((set_v, {"x": 21.5, "k": "b"}), index=index)
        out[f"update/many/{tag}"] = case((set_v, {"x": 1.25, "k": "a"}), index=index)
        out[f"update/zero/{tag}"] = case((set_v, {"x": 1.25, "k": "zzz"}), index=index)
        if index != "rbtree":
            out[f"update/null-key/{tag}"] = case((set_v, {"x": 1.25, "k": None}), index=index)
        out[f"update/key-changing/{tag}"] = case("update t set k = 'z' where k = 'a'", index=index)
        out[f"delete/one/{tag}"] = case(("delete from t where k = :k", {"k": "d"}), index=index)
        out[f"delete/many/{tag}"] = case("delete from t where k = 'a'", index=index)
        out[f"delete/zero/{tag}"] = case("delete from t where 'nope' = k", index=index)
    out["update/increment-nulls"] = case(
        ("update t set v += :d where k = 'c'", {"d": 1.0}),
        ("update t set v += :d where k = 'b'", {"d": None}),
        ("update t set v += :d, w -= :d where k = 'a'", {"d": 0.1}),
    )
    out["update/decrement"] = case(("update t set v -= :d where k = 'd'", {"d": 0.3}))
    out["update/multi-assignment"] = case(
        "update t set v = w * 2, w += 1, g = g + 1 where k = 'd'"
    )
    out["update/no-where"] = case("update t set w = 0.5")
    out["update/no-where-empty-table"] = case("update empty set v = 0.5")
    out["update/residual-after-probe"] = case("update t set v = 1.5 where k = 'a' and g > 1")
    out["update/residual-around-probe"] = case(
        ("update t set v = 1.5 where g >= 1 and k = :k and v < 100", {"k": "a"})
    )
    out["update/residual-false-first"] = case(
        "update t set v = 1.5 where g > 5 and k = 'a' and abs(v) > 0"
    )
    out["update/or-is-a-scan"] = case("update t set w = 9.0 where k = 'a' or k = 'b'")
    out["update/qualified-column"] = case("update t set v = 2.5 where t.k = 'b'")
    out["update/probe-on-g"] = case(
        ("update t set v = 3.5 where g = :n", {"n": 2}), index="hash_g"
    )
    out["update/bool-key"] = case(
        ("update t set v = 3.5 where g = :n", {"n": True}), index="hash_g"
    )
    out["update/function-key"] = case(
        ("update t set v = 3.5 where g = abs(:n)", {"n": -2}), index="rbtree_g"
    )
    out["update/function-residual"] = case("update t set v = sqrt(v) where k = 'a' and abs(v) > 15")
    out["update/function-residual-null-key"] = case(
        ("update t set v = 0.0 where abs(v) > 15 and k = :k", {"k": None})
    )
    out["update/subquery-in"] = case("update t set w = 7.0 where k in (select k from u)")
    out["update/subquery-key"] = case(
        "update t set w = 7.0 where g = (select min(n) from u)", index="hash_g"
    )
    out["update/subquery-assignment"] = case(
        "update t set g = (select max(n) from u) where k = 'a'"
    )
    out["update/coercions"] = case(
        "update t set v = 7 where k = 'a'", "update t set g = 2.0 where k = 'b'"
    )
    out["update/same-row-twice"] = case(
        (set_v, {"x": 1.0, "k": "b"}), (set_v, {"x": 2.0, "k": "b"})
    )
    out["update/missing-param-key"] = case("update t set v = 1.0 where k = :nope")
    out["update/missing-param-residual"] = case(
        "update t set v = 1.0 where k = 'a' and v > :nope"
    )
    out["update/missing-param-no-candidates"] = case(
        "update t set v = 1.0 where k = 'zzz' and v > :nope"
    )
    out["update/missing-param-assignment"] = case("update t set v = :nope where k = 'a'")
    out["update/unknown-column-assignment"] = case("update t set bogus = 1 where k = 'a'")
    out["update/unknown-column-where"] = case("update t set v = 1.0 where bogus = 'a'")
    out["update/wrong-type"] = case("update t set g = 'text' where k = 'a'")
    out["update/unknown-table"] = case("update nothing set v = 1.0")
    out["update/odd-costs-preloaded"] = case(
        (set_v, {"x": 21.5, "k": "a"}), "update t set w = 0.5",
        costs="odd", preload=0.1234567891,
    )
    out["update/odd-costs-scan"] = case(
        (set_v, {"x": 21.5, "k": "a"}), index=None, costs="odd", preload=1e-3 / 3
    )
    out["update/auto-commit"] = case(
        (set_v, {"x": 5.5, "k": "b"}), "update t set g = 'text' where k = 'a'", auto=True
    )

    out["delete/no-where"] = case("delete from t")
    out["delete/residual"] = case("delete from t where k = 'a' and v > 15")
    out["delete/null-key"] = case(("delete from t where k = :k", {"k": None}))
    out["delete/subquery"] = case(
        "delete from t where k not in (select k from u where k is not null)"
    )
    out["delete/missing-param"] = case("delete from t where k = :nope")
    out["delete/then-reinsert"] = case(
        "delete from t where k = 'b'", "insert into t values ('b', 9, 9.5, 9.5)",
        "delete from t where k = 'b'",
    )
    out["delete/odd-costs"] = case(
        "delete from t where k = 'a'", costs="odd", preload=0.1234567891
    )

    out["insert/single"] = case("insert into t values ('n', 7, 7.5, null)")
    out["insert/multi-row"] = case(
        ("insert into t values ('n', 7, 7.5, :w), ('o', 8, :w * 2, abs(-3))", {"w": 1.5})
    )
    out["insert/column-list"] = case("insert into t (v, k) values (1.5, 'n'), (2.5, 'o')")
    out["insert/subquery-value"] = case(
        "insert into t (k, g) values ('n', (select max(n) from u))"
    )
    out["insert/arity-error"] = case("insert into t values ('n', 7)")
    out["insert/arity-error-second-row"] = case(
        "insert into t values ('n', 7, 7.5, 7.5), ('o', 8)"
    )
    out["insert/wrong-type-second-row"] = case(
        "insert into t (k, v) values ('n', 1.5), ('o', 'text')"
    )
    out["insert/unknown-column"] = case("insert into t (k, bogus) values ('n', 1)")
    out["insert/missing-param"] = case("insert into t (k, v) values ('n', :nope)")
    out["insert/unindexed"] = case("insert into t values ('n', 7, 7.5, 7.5)", index=None)
    out["insert/select"] = case("insert into t (k, g) select k, n from u where n > 1")
    out["insert/select-self"] = case("insert into t select * from t where k = 'a'")
    out["insert/select-arity-error"] = case("insert into t (k) select k, n from u")
    out["insert/odd-costs"] = case(
        "insert into t values ('n', 7, 7.5, 7.5), ('o', 8, 8.5, 8.5)",
        costs="odd", preload=0.1234567891,
    )
    out["insert/auto-commit"] = case(
        "insert into t values ('n', 7, 7.5, 7.5)", "insert into t values ('o', 8)", auto=True
    )
    return out


CASES = _cases()


def _meter_view(meter: Meter) -> dict[str, Any]:
    return {"ops": dict(sorted(meter.ops.items())), "total": meter.total.hex()}


def _attempt(run) -> dict[str, Any]:
    try:
        return {"returned": run()}
    except StripError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _locks(db: Database, txn) -> list:
    """Locks ``txn`` holds, row locks named by the log entry whose old or new
    image they protect (record ids are process-global counters)."""
    label = {}
    for entry in txn.log.entries:
        for side, record in (("old", entry.old_record), ("new", entry.new_record)):
            if record is not None:
                label.setdefault(record.rid, f"{side}#{entry.execute_order}")
    held = []
    for table, rid in db.lock_manager.held_resources(txn.txn_id):
        mode = next(
            m.value
            for m in (LockMode.EXCLUSIVE, LockMode.SHARED, LockMode.INTENTION_EXCLUSIVE)
            if db.lock_manager.holds(txn.txn_id, (table, rid), m)
        )
        held.append([table, "table" if rid is None else label.get(rid, "unlogged"), mode])
    return sorted(held)


def _rows(db: Database, name: str) -> list:
    return [list(record.values) for record in db.catalog.table(name).scan()]


def run_case(spec: dict) -> dict[str, Any]:
    """Everything one case leaves behind, JSON-ready and exact."""
    db = make_db(spec["index"], ODD_COSTS if spec["costs"] == "odd" else None)
    meter = Meter()
    meter.total = spec["preload"]
    out: dict[str, Any] = {"statements": []}
    db.clock.activate(meter, db.clock.base)
    try:
        if spec["auto"]:
            for sql, params in spec["statements"]:
                step = _attempt(lambda: db.execute(sql, params))
                out["statements"].append({**step, "meter": _meter_view(meter)})
        else:
            txn = db.begin()
            for sql, params in spec["statements"]:
                step = _attempt(lambda: txn.execute(sql, params))
                out["statements"].append({**step, "meter": _meter_view(meter)})
            out["log"] = [
                [
                    entry.kind, entry.table,
                    None if entry.old_record is None else list(entry.old_record.values),
                    None if entry.new_record is None else list(entry.new_record.values),
                    entry.execute_order,
                ]
                for entry in txn.log.entries
            ]
            out["locks"] = _locks(db, txn)
            txn.commit()
    finally:
        db.clock.deactivate()
    out["committed"] = _meter_view(meter)
    out["rows"] = {name: _rows(db, name) for name in ("t", "u", "empty")}
    return json.loads(json.dumps(out))


def _dump(document: dict[str, Any]) -> str:
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden() -> dict[str, Any]:
    with open(GOLDEN) as source:
        return json.load(source)


@pytest.mark.parametrize("name", list(CASES))
def test_dml_matches_golden(golden, name):
    got, want = run_case(CASES[name]), golden[name]
    assert got == want, {key: (want.get(key), got[key]) for key in got if got[key] != want.get(key)}


def test_golden_covers_exactly_the_cases(golden):
    assert set(golden) == set(CASES)


# ------------------------------------------------------- against a model

KEYS = st.sampled_from([None, "a", "a", "b", "c"])
GROUPS = st.integers(min_value=0, max_value=3)
REALS = st.sampled_from([None, -1.5, 0.0, 0.5, 2.0, 7.25])


def _eq(a, b) -> bool:
    """SQL ``=`` as a filter: unknown, so no match, when either side is NULL."""
    return a is not None and b is not None and a == b


def _lt(a, b) -> bool:
    return a is not None and b is not None and a < b


#: WHERE templates: SQL text and the model's reading of it over (row, params);
#: ``g`` and ``:n`` are never NULL (a red-black tree cannot order NULL).
WHERES = {
    "": lambda row, p: True,
    " where k = :k": lambda row, p: _eq(row[0], p["k"]),
    " where :k = k and g >= :n": lambda row, p: _eq(row[0], p["k"]) and row[1] >= p["n"],
    " where g = :n": lambda row, p: row[1] == p["n"],
    " where v < :x and g = :n": lambda row, p: _lt(row[2], p["x"]) and row[1] == p["n"],
    " where k = :k or g = :n": lambda row, p: _eq(row[0], p["k"]) or row[1] == p["n"],
    " where v is null": lambda row, p: row[2] is None,
}


def _bump(current, delta, sign):
    return None if current is None or delta is None else current + sign * delta


#: SET templates: SQL text and the model's new row from (row, params).
SETS = {
    "v = :x": lambda row, p: (row[0], row[1], p["x"]),
    "v += :x": lambda row, p: (row[0], row[1], _bump(row[2], p["x"], 1)),
    "v -= :x, g = g + 1": lambda row, p: (row[0], row[1] + 1, _bump(row[2], p["x"], -1)),
    "k = :k": lambda row, p: (p["k"], row[1], row[2]),
    "g = :n, v = g * 2": lambda row, p: (row[0], p["n"], float(row[1] * 2)),
}


@st.composite
def statements(draw):
    params = {"k": draw(KEYS), "n": draw(GROUPS), "x": draw(REALS)}
    kind = draw(st.sampled_from(["update", "update", "delete", "insert"]))
    if kind == "insert":
        rows = draw(st.lists(st.tuples(KEYS, GROUPS, REALS), min_size=1, max_size=3))
        return ("insert", rows, None, {})
    where = draw(st.sampled_from(sorted(WHERES)))
    assignment = draw(st.sampled_from(sorted(SETS))) if kind == "update" else None
    return (kind, where, assignment, params)


@st.composite
def scripts(draw):
    """Index DDL for ``t``, its first rows, then transactions of statements,
    each committed or aborted."""
    return {
        "indexes": draw(st.sampled_from(
            [(), ("hash k",), ("rbtree k",), ("rbtree g",), ("hash g", "hash k")]
        )),
        "rows": draw(st.lists(st.tuples(KEYS, GROUPS, REALS), max_size=6)),
        "txns": draw(
            st.lists(
                st.tuples(st.lists(statements(), min_size=1, max_size=4), st.booleans()),
                min_size=1, max_size=4,
            )
        ),
    }


def _null_first(row):
    return [(value is not None, value) for value in row]


def _check_indexes(table) -> None:
    """Every index holds exactly the scanned records, under their keys, in
    the scan's order (what ``BaseIndex.lookup`` and ``Table.find`` promise)."""
    scanned = list(table.scan())
    for index in table.indexes.values():
        assert len(index) == len(scanned)
        by_key: dict = {}
        for record in scanned:
            by_key.setdefault(index.key_of(record.values), []).append(record.rid)
        for key, rids in by_key.items():
            assert [r.rid for r in index.lookup(key)] == rids


def _key_keeping(index: str) -> dict:
    """Three rows share key ``a``; updates that keep it hit the bucket's
    first, middle and last record (only the last may be swapped in place),
    once in a transaction that aborts and once in one that commits."""
    set_v = [
        ("update", " where g = :n", "v = :x", {"k": "a", "n": n, "x": 7.25}) for n in (0, 1, 2)
    ]
    return {
        "indexes": (index,),
        "rows": [("a", 0, 0.5), ("a", 1, 0.5), ("b", 3, None), ("a", 2, 0.5)],
        "txns": [(set_v[1:2] + set_v[2:] + set_v[:1], False), (set_v[::-1], True)],
    }


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scripts())
@example(_key_keeping("hash k"))
@example(_key_keeping("rbtree k"))
def test_dml_agrees_with_a_dict_of_rows(script):
    db = Database()
    db.execute("create table t (k text, g int, v real)")
    for position, spec in enumerate(script["indexes"]):
        kind, column = spec.split()
        db.execute(f"create index t_{position} on t ({column}) using {kind}")
    table = db.catalog.table("t")
    model = [tuple(row) for row in script["rows"]]
    with db.begin() as txn:
        for row in model:
            txn.insert("t", list(row))
    for body, commit in script["txns"]:
        snapshot = list(model)
        txn = db.begin()
        for kind, where, assignment, params in body:
            if kind == "insert":
                values = ", ".join(f"(:k{i}, :n{i}, :x{i})" for i in range(len(where)))
                params = {f"{c}{i}": v for i, row in enumerate(where) for c, v in zip("knx", row)}
                count = txn.execute(f"insert into t values {values}", params)
                assert count == len(where)
                model.extend(where)
            else:
                hit = [row for row in model if WHERES[where](row, params)]
                rest = [row for row in model if not WHERES[where](row, params)]
                if kind == "delete":
                    count = txn.execute(f"delete from t{where}", params)
                    model = rest
                else:
                    count = txn.execute(f"update t set {assignment}{where}", params)
                    model = rest + [SETS[assignment](row, params) for row in hit]
                assert count == len(hit)
            got = sorted((tuple(r.values) for r in table.scan()), key=_null_first)
            assert got == sorted(model, key=_null_first)
            _check_indexes(table)
        if commit:
            txn.commit()
        else:
            txn.abort()
            model = snapshot
        got = sorted((tuple(r.values) for r in table.scan()), key=_null_first)
        assert got == sorted(model, key=_null_first)
        _check_indexes(table)
    assert db._active_txns == {} and not txn.row_locks


# ------------------------------------------------------------- stale plans


SET_V = "update t set v = :x where k = :k"


class TestStalePlans:
    """One SQL text, hence one statement node and one memo, executed across
    whatever can invalidate what its closure or plan holds."""

    def test_index_created_then_dropped_replans(self):
        db = make_db(None)
        counts = []
        for ddl in (None, "create index t_k on t (k)", "drop index t_k"):
            if ddl:
                db.execute(ddl)
            count, meter = metered(db, lambda: db.execute(SET_V, {"x": 0.5, "k": "a"}))
            assert count == 2
            counts.append((meter.ops["row_scan"], meter.ops["index_probe"]))
        assert counts == [(6, 0), (0, 1), (6, 0)]

    def test_an_unrelated_index_leaves_the_probe_working(self):
        db = make_db("hash")
        db.execute(SET_V, {"x": 0.5, "k": "a"})
        db.execute("create index t_g on t (g)")
        db.execute("drop index t_g")
        _count, meter = metered(db, lambda: db.execute(SET_V, {"x": 1.5, "k": "a"}))
        assert meter.ops["index_probe"] == 1 and "row_scan" not in meter.ops
        assert [r[2] for r in _rows(db, "t") if r[0] == "a"] == [1.5, 1.5]

    @pytest.mark.parametrize(
        "recreate",
        [
            "create table t (k text, g int, v real, w real)",
            "create table t (v real, extra int, k text)",
        ],
        ids=["same-schema", "other-schema"],
    )
    def test_table_dropped_and_recreated_under_the_same_name(self, recreate):
        db = make_db("hash")
        assert db.execute(SET_V, {"x": 0.5, "k": "b"}) == 1
        old = db.catalog.table("t")
        old_rows = _rows(db, "t")
        db.execute("drop table t")
        db.execute(recreate)
        db.execute("insert into t (k, v) values ('b', 1.0), ('c', 2.0)")
        assert db.execute(SET_V, {"x": 9.5, "k": "b"}) == 1
        fresh = db.catalog.table("t")
        k, v = fresh.schema.offset("k"), fresh.schema.offset("v")
        assert sorted((r[k], r[v]) for r in _rows(db, "t")) == [("b", 9.5), ("c", 2.0)]
        assert [list(r.values) for r in old.scan()] == old_rows  # the dropped table: untouched
        assert db.execute("delete from t where k = :k", {"k": "c"}) == 1
        assert db.execute("insert into t (k, v) values ('d', 4.0)") == 1

    def test_one_statement_object_two_databases(self):
        """The memo is per node, not per database: alternating databases
        re-prepares each time and never runs one database's closure — its
        table, index, meter or cost table — against the other."""
        update, delete = parse_statement(SET_V), parse_statement("delete from t where k = :k")

        def drive(shared: bool):
            dbs = [make_db("hash"), make_db(None, ODD_COSTS)]
            seen = []
            for step in range(4):
                db = dbs[step % 2]
                stmts = (update, delete) if shared else (
                    parse_statement(SET_V), parse_statement("delete from t where k = :k"))
                with db.begin() as txn:
                    (a, b), meter = metered(db, lambda: (
                        execute_update(db, stmts[0], txn, {"x": float(step), "k": "a"}),
                        execute_delete(db, stmts[1], txn, {"k": "bcd"[step % 3]}),
                    ))
                seen.append((a, b, dict(meter.ops), meter.total.hex(), _rows(db, "t")))
            return seen

        assert drive(shared=True) == drive(shared=False)

    def test_subquery_sources_are_part_of_the_memo(self):
        db = make_db("hash")
        sql = "update t set w = 0.25 where k in (select k from u where n >= :n)"
        assert db.execute(sql, {"n": 2}) == 1  # 'c'; NULL matches nothing
        db.execute("drop table u")
        db.execute("create table u (n int, pad text, k text)")
        db.execute("insert into u values (5, 'x', 'a'), (1, 'y', 'd')")
        assert db.execute(sql, {"n": 2}) == 2
        assert sorted(r[0] for r in _rows(db, "t") if r[3] == 0.25) == ["a", "a", "c"]
        db.execute("drop table u")
        with pytest.raises(PlanError, match="unknown table or view 'u'"):
            db.execute(sql, {"n": 2})

    def test_dropped_table_fails_typed(self):
        db = make_db("hash")
        db.execute(SET_V, {"x": 0.5, "k": "b"})
        db.execute("drop table t")
        with pytest.raises(CatalogError, match="no table 't'"):
            db.execute(SET_V, {"x": 0.5, "k": "b"})

    # The SELECT memo and the DDL that moves Catalog.version: each case runs
    # one statement node on a database that lived through the DDL and on a
    # fresh one built in the state it reached, and holds the two together.

    @staticmethod
    def agrees_with(fresh: Database, db: Database, run) -> None:
        """``run(db)`` returns what ``run(fresh)`` returns, charging the same."""
        got, got_meter = metered(db, lambda: run(db))
        want, want_meter = metered(fresh, lambda: run(fresh))
        assert got == want
        same_meter(got_meter, want_meter)

    def test_select_across_index_ddl(self):
        db = make_db(None)
        read = lambda d: d.query("select k, v from t where k = 'a'").rows()
        for ddl, index in ((None, None), ("create index t_k on t (k)", "hash"),
                           ("drop index t_k", None)):
            if ddl:
                db.execute(ddl)
            self.agrees_with(make_db(index), db, read)

    def test_view_dropped_and_recreated_with_another_body(self):
        bodies = ["select k, v from t where g = 1", "select k, w as v from t where g = 2"]
        read = lambda d: sorted(d.query("select k, v from tv").rows(), key=repr)
        db = make_db("hash")
        db.execute(f"create view tv as {bodies[0]}")
        assert read(db) == [["a", 10.0], ["b", 20.0]]
        db.execute("drop view tv")
        db.execute(f"create view tv as {bodies[1]}")
        fresh = make_db("hash")
        fresh.execute(f"create view tv as {bodies[1]}")
        self.agrees_with(fresh, db, read)
        assert read(db) == [["c", 3.0], ["d", 4.0]]

    def test_view_materialized_under_a_prepared_select(self):
        view = "create view tv as select g, sum(v) as total from t group by g"
        read = lambda d: d.query("select g, total from tv where g = 2").rows()

        def materialized(db: Database) -> Database:
            materialize(db, "tv")
            db.execute("update t set v = 41.0 where k = 'd'")
            db.drain()
            return db

        db = make_db("hash")
        db.execute(view)
        assert read(db) == [[2, 40.0]]  # planned over the view's subplan
        fresh = make_db("hash")
        fresh.execute(view)
        self.agrees_with(materialized(fresh), materialized(db), read)
        assert read(db) == [[2, 41.0]]

    def test_rule_created_then_dropped(self):
        rule = ("create rule r on t when updated v if select k, v from new bind as m "
                "then execute f after 1.0 seconds")

        def build(with_rule: bool) -> Database:
            db = make_db("hash")
            db.register_function("f", lambda ctx: None)
            if with_rule:
                db.execute(rule)
            return db

        write = lambda d: d.execute("update t set v = v + 1 where k = :k", {"k": "a"})
        db = build(False)
        write(db)
        for ddl, with_rule in ((rule, True), ("drop rule r", False)):
            db.execute(ddl)
            fresh = build(with_rule)
            self.agrees_with(fresh, db, write)
            assert db.drain() == fresh.drain() == int(with_rule)

    def test_one_select_across_twenty_index_cycles_keeps_one_stamps_plans(self, monkeypatch):
        """Each index DDL re-plans the statement, and the plans of the stamps
        before it go: the value-keyed plan cache kept all 40, with the
        dropped indexes they held."""
        builds = plan_builds(monkeypatch)
        db = make_db(None)
        read = lambda d: d.query("select k, v from t where k = 'a'").rows()
        for _ in range(20):
            read(db)
            db.execute("create index t_k on t (k)")
            read(db)
            db.execute("drop index t_k")
        alive = [weakref.ref(plan) for plan in builds]
        builds.clear()
        gc.collect()
        assert len(alive) == 40 and sum(ref() is not None for ref in alive) == 1
        self.agrees_with(make_db(None), db, read)


# ------------------------------------- DML that reads the task's bound tables


@pytest.mark.parametrize(
    "action, expected",
    [
        ("update d set n += 1 where k in (select k from changes)",
         [["a", 2], ["b", 1], ["c", 1], ["z", 0]]),
        ("delete from d where k in (select k from changes) and n < 0",
         [["a", 0], ["b", 0], ["c", 0], ["z", 0]]),
        ("delete from d where k in (select k from changes)", [["z", 0]]),
    ],
    ids=["update", "delete-none", "delete"],
)
def test_rule_action_dml_reads_its_bound_tables(action, expected):
    """Paper section 6.3: the running task sees its bound tables "as ordinary
    read-only tables" — in UPDATE and DELETE too (they used to raise
    ``PlanError: unknown table or view 'changes'``)."""
    db = Database()
    db.execute_script(
        """
        create table t (k text, v real);
        create table d (k text, n int);
        insert into t values ('a', 1.0), ('b', 1.0), ('c', 1.0), ('z', 1.0);
        insert into d values ('a', 0), ('b', 0), ('c', 0), ('z', 0);
        """
    )
    bound_rows = []

    def fn(ctx):
        bound_rows.append(len(ctx.bound("changes")))
        ctx.execute(action)

    db.register_function("fn", fn)
    db.execute(
        "create rule r on t when updated v if select k from new bind as changes "
        "then execute fn unique after 1.0 seconds"
    )
    db.execute("update t set v = 2.0 where k = 'a'")
    db.drain()
    db.execute("update t set v = 3.0 where k = 'a'")
    db.execute("update t set v = 3.0 where k = 'b'")
    db.execute("update t set v = 3.0 where k = 'c'")
    db.drain()
    assert bound_rows == [1, 3]  # two firings, two sizes, one prepared statement
    assert sorted(db.query("select k, n from d").rows()) == expected


# --------------------------------------------------- per-write work, counted


def test_per_write_work_on_the_options_workload(monkeypatch):
    """A tiny options / ``on_symbol`` run, counted from outside, not timed:
    a DML statement and a row write charge inline (the feed's cursor path and
    the user function's own ``ctx.charge`` still call ``Database.charge``: they
    are not statements), call no ``LockManager.acquire`` (a transaction
    running alone keeps its locks as set inserts), compile and hash nothing
    after a text's first execution, validate no value that needs no validation, build no
    ``ExecState`` for a statement that reads only parameters, literals and
    its row, and swap a key-keeping update's record into its index bucket
    without ``remove`` / ``add``.  The generated statement's source names no
    table, column or parameter."""
    inline = ("cursor_open", "index_probe", "cursor_fetch", "expr_eval", "cursor_close",
              "cursor_update", "cursor_insert", "cursor_delete")
    counts: Counter = Counter()
    resources: set = set()  # (transaction, resource) pairs requested
    recompiled: list = []
    seen_texts: set = set()
    stored_as = {ColumnType.INT: int, ColumnType.REAL: float, ColumnType.TEXT: str,
                 ColumnType.BOOL: bool, ColumnType.TIME: float}

    def counted(owner, name, key, before=None):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if before is not None:
                before(*args, **kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    writing = [0]  # depth inside a DML statement or one of the three row writes

    def scoped(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            writing[0] += 1
            try:
                return original(*args, **kwargs)
            finally:
                writing[0] -= 1

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("insert_record", "update_record", "delete_record"):
        scoped(Transaction, name)
    counted(Database, "charge", "charge", lambda self, op, count=1: counts.update(
        [f"charge:{op}"] if writing[0] else []))
    counted(locks.LockManager, "acquire", "acquires",
            lambda self, txn, resource, mode: resources.add((txn.txn_id, resource)))
    for module in (expressions, executor, planner):
        counted(module, "compile_expr", "compiles")
    for node in (ast.Update, ast.Delete, ast.Insert):
        counted(node, "__hash__", "dml_hashes")
    counted(ColumnType, "validate", "validations", lambda self, value: counts.update(
        ["needless_validations"] if type(value) is stored_as[self] and value == value else []))
    counted(planner.ExecState, "__init__", "exec_states", lambda *a, **k: counts.update(
        ["dml_exec_states"] if writing[0] else []))
    swapping = [False]  # inside a Table.update whose record can be swapped in place
    table_update = Table.update

    def update(self, record, values):
        keep = [index.key_of(record.values) == index.key_of(list(values))
                and list(index.lookup(index.key_of(record.values)))[-1] is record
                for index in self.indexes.values()]
        swapping[0] = bool(keep) and all(keep)
        counts["swappable_updates"] += swapping[0]
        try:
            return table_update(self, record, values)
        finally:
            swapping[0] = False

    monkeypatch.setattr(Table, "update", update)
    for name in ("add", "remove"):
        counted(HashIndex, name, "hash_index_edits", lambda *a: counts.update(
            ["swap_edits"] if swapping[0] else []))
    sources: list = []
    generate = executor.generate

    def generating(lines, name, filename, names):
        sources.append(("\n".join(lines), names))
        return generate(lines, name, filename, names)

    monkeypatch.setattr(executor, "generate", generating)
    execute_in_txn = Database.execute_in_txn

    def watching(self, sql, *args, **kwargs):
        before = counts["compiles"]
        writing[0] += 1
        try:
            result = execute_in_txn(self, sql, *args, **kwargs)
        finally:
            writing[0] -= 1
        if sql in seen_texts and counts["compiles"] != before:
            recompiled.append(sql)
        seen_texts.add(sql)
        return result

    monkeypatch.setattr(Database, "execute_in_txn", watching)

    ops = golden_virtual.scenarios()["options/on_symbol"]()["ops"]
    with open(golden_virtual.GOLDEN) as source:
        parent_ops = json.load(source)["options/on_symbol"]["ops"]  # pinned on the parent

    assert ops["cursor_update"] > 500 and all(sql.startswith("update") for sql in seen_texts)
    assert counts["charge:lock_acquire"] > 0  # the once-per-transaction table locks
    for op in inline:
        assert counts[f"charge:{op}"] == 0, op
        assert ops.get(op, 0) == parent_ops.get(op, 0), op
    # Every transaction here runs alone, so it keeps its locks itself: no
    # acquire call (the lock_acquire charges stay).
    assert counts["acquires"] == 0 and not resources
    assert recompiled == []
    assert counts["dml_hashes"] == 0
    assert counts["needless_validations"] == 0
    assert counts["exec_states"] > 0 and counts["dml_exec_states"] == 0
    assert counts["swappable_updates"] > 500 and counts["swap_edits"] == 0
    assert len(sources) == len(seen_texts) == 1
    for source, names in sources:
        table = names["table"]
        params = {p for sql in seen_texts for p in re.findall(r":(\w+)", sql)}
        words = {table.name, *table.schema.names(), *params}
        spelled = set()  # every name, string value and comment word of the source
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.NAME:
                spelled.add(token.string)
            elif token.type == tokenize.STRING:
                spelled.add(ast_literal(token.string))
            elif token.type == tokenize.COMMENT:
                spelled.update(re.findall(r"\w+", token.string))
        assert words and not words & spelled, words & spelled


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    with open(GOLDEN, "w") as out:
        out.write(_dump({name: run_case(spec) for name, spec in CASES.items()}))
    print(f"wrote {GOLDEN} ({len(CASES)} cases)")
