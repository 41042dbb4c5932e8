"""One access-path chooser for reads and writes.

``planner.classify`` splits a WHERE clause into its conjuncts once, and
``planner.probe_of`` picks the one probe from them, for the first table of a
SELECT and for an UPDATE / DELETE alike.  Held here two ways:

* a hypothesis run over generated single-table WHERE clauses — composite
  and single-column indexes, equalities and ranges, keys that are literals,
  parameters, function calls, subqueries, other columns and the
  ``commit_seq`` pseudo column — where ``delete from t where <w>`` must
  probe the index ``select * from t where <w>`` probes first, with the same
  key, and raise what it raises (a write has no range probe: where the
  read probes a range, the write scans, and may reach a row that raises);
* ``golden_dml_paths.json``, the access path each statement of
  ``golden_dml.json`` takes, so a change of the chooser shows as a plan
  diff, not only as a charge diff.  Regenerate it only for a change that
  means to move a path::

    PYTHONPATH=src python -m tests.sql.test_access_path --regenerate

A key that reads no column of the table probes, a pseudo column included:
outside rule binding its value does not exist, so the probe key raises
before any row is fetched, in a SELECT and in a write.
"""

from __future__ import annotations

import json
import os
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.errors import ExecutionError, StripError
from repro.sim.clock import Meter
from repro.sql import ast, executor
from repro.sql.parser import parse_statement
from repro.sql.planner import plan_select
from repro.sql.printer import expr_to_sql
from repro.storage.index import HashIndex, RBTreeIndex
from tests.sql.test_prepared_dml import CASES, make_db

PATHS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_dml_paths.json")

#: The indexes a generated table may carry: one name, columns and kind each.
INDEXES = {
    "ia": ("a", "hash"),
    "ib": ("b", "rbtree"),
    "ic": ("c", "rbtree"),
    "icd": ("c, d", "hash"),
    "iab": ("a, b", "rbtree"),
}
COLUMNS = ("a", "b", "c", "d")
ROWS = [[at % 3, at % 4, at % 2, at % 5] for at in range(8)]

columns = st.sampled_from(COLUMNS)
params = st.sampled_from([":p0", ":p1"])
keys = st.one_of(
    st.integers(min_value=0, max_value=3).map(str),
    params,
    params.map(lambda p: f"abs({p})"),
    st.just("commit_seq"),
    st.just("(select max(n) from u)"),
    columns.map(lambda c: f"{c} + 1"),
)


@st.composite
def comparisons(draw) -> str:
    column, key = draw(columns), draw(keys)
    op = draw(st.sampled_from(["=", "=", "<", "<=", ">", ">="]))
    return f"{column} {op} {key}" if draw(st.booleans()) else f"{key} {op} {column}"


conjuncts = st.one_of(
    comparisons(),
    comparisons(),
    st.tuples(columns, columns).map(lambda cs: f"{cs[0]} = {cs[1]}"),
    columns.map(lambda c: f"{c} is not null"),
    st.tuples(comparisons(), comparisons()).map(lambda cs: f"({cs[0]} or {cs[1]})"),
)
clauses = st.lists(conjuncts, min_size=1, max_size=4).map(" and ".join)


def _database(indexes) -> Database:
    db = Database()
    db.execute("create table t (a int, b int, c int, d int)")
    db.execute("create table u (n int)")
    for name in sorted(indexes):
        on, kind = INDEXES[name]
        db.execute(f"create index {name} on t ({on}) using {kind}")
    with db.begin() as txn:
        for row in ROWS:
            txn.insert("t", list(row))
        for n in (1, 2):
            txn.insert("u", [n])
    return db


@pytest.fixture
def probes(monkeypatch) -> list:
    """Every index probe from here on: ``(method, index name, bounds)``."""
    seen: list = []
    for cls in (HashIndex, RBTreeIndex):
        for method in ("lookup", "range") if cls is RBTreeIndex else ("lookup",):
            def recording(self, *args, _method=method, _real=getattr(cls, method)):
                seen.append((_method, self.name, args))
                return _real(self, *args)

            monkeypatch.setattr(cls, method, recording)
    return seen


def _outcome(run) -> str:
    try:
        run()
    except StripError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def _select_probe(db: Database, where: str) -> tuple:
    """(the index the SELECT's first step probes by equality, or None;
    whether it probes a range instead)."""
    step = plan_select(db, parse_statement(f"select * from t where {where}"), None).steps[0]
    index = db.catalog.table("t").index_on(step.eq_columns) if step.eq_columns else None
    return index, step.range_column is not None


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    indexes=st.sets(st.sampled_from(sorted(INDEXES))),
    where=clauses,
    values=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
)
def test_a_write_probes_what_the_select_probes_first(probes, indexes, where, values):
    db = _database(indexes)
    args = {"p0": values[0], "p1": values[1]}
    run = executor._prepare_write(db, parse_statement(f"delete from t where {where}"), None)
    index, ranged = _select_probe(db, where)
    assert run.__globals__["x1"] is index

    probes.clear()
    selected = _outcome(lambda: db.query(f"select * from t where {where}", args).rows())
    read = [probe for probe in probes if probe[0] == "lookup"]
    probes.clear()
    txn = db.begin()
    written = _outcome(lambda: txn.execute(f"delete from t where {where}", args))
    txn.abort()
    assert probes == read
    if not ranged:  # a write scans where a read probes a range: more rows may raise
        assert written == selected


def test_a_pseudo_column_key_probes_and_raises_before_a_fetch():
    """The one rule for a key naming a column no source has: it reads no
    source, so it is probeable (as a rule query probes by ``commit_seq``);
    evaluated outside rule binding it raises at the probe: a write opens
    its cursor, and probes, scans and fetches nothing."""
    db = _database({"ia"})
    for sql in ("select * from t where a = commit_seq", "delete from t where commit_seq = a"):
        stmt = parse_statement(sql)
        if isinstance(stmt, ast.Select):
            assert plan_select(db, stmt, None).steps[0].eq_columns == ("a",)
        else:
            assert executor._prepare_write(db, stmt, None).__globals__["x1"].name == "ia"
    meter = Meter()
    txn = db.begin()
    db.clock.activate(meter, 0.0)
    try:
        with pytest.raises(ExecutionError, match="only available during rule binding"):
            txn.execute("delete from t where commit_seq = a and b > 0")
    finally:
        db.clock.deactivate()
        txn.abort()
    assert meter.ops["cursor_open"] == 1
    assert not any(meter.ops[op] for op in ("index_probe", "row_scan", "cursor_fetch"))


# --------------------------------------------------------------------------
# The access path of every golden_dml.json statement
# --------------------------------------------------------------------------


def _first_step(plan) -> str:
    step = plan.steps[0]
    if step.eq_columns:
        return f"probe {', '.join(step.eq_columns)}"
    if step.range_column:
        return f"range {step.range_column}"
    return f"scan {step.desc.name}"


def access_path(db: Database, sql: str) -> str:
    """How ``sql`` reaches its rows: an UPDATE / DELETE's probe (index,
    conjunct, and whether the conjunct stays in the residual) or scan, an
    INSERT … SELECT's first step, or why it cannot be prepared."""
    stmt = parse_statement(sql)
    if isinstance(stmt, ast.Insert):
        return "values" if stmt.select is None else _first_step(plan_select(db, stmt.select, None))
    chosen = []
    choose = executor.probe_of

    def recording(conjuncts, binding, table):
        chosen.append((conjuncts, choose(conjuncts, binding, table)))
        return chosen[-1][1]

    executor.probe_of = recording
    try:
        run = executor._prepare_write(db, stmt, None)
    except StripError as exc:
        return f"not prepared: {type(exc).__name__}"
    finally:
        executor.probe_of = choose
    (conjuncts, probe), = chosen
    if probe is None:
        assert run.__globals__["x1"] is None
        return "scan"
    position, side, index = probe
    assert run.__globals__["x1"] is index
    kept = " (kept in the residual)" if ast.calls_out(side.other) else ""
    return f"probe {index.name} by {expr_to_sql(conjuncts[position].expr)}{kept}"


def access_paths() -> dict[str, list[str]]:
    out = {}
    for name, spec in CASES.items():
        db = make_db(spec["index"])
        out[name] = [access_path(db, sql) for sql, _params in spec["statements"]]
    return out


def test_every_golden_dml_statement_keeps_its_access_path():
    with open(PATHS) as source:
        assert access_paths() == json.load(source)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python -m tests.sql.test_access_path --regenerate")
    with open(PATHS, "w") as sink:
        sink.write(json.dumps(access_paths(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PATHS}")
