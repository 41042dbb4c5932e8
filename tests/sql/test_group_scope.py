"""Group scope: an aggregate SELECT's items, HAVING and ORDER BY compile
through ``compile_expr`` over the group resolution (``planner.
_GroupResolution``), so they evaluate, charge and fail as row scope does.

The differential below holds that compile to stdlib ``sqlite3``, which
shares no code with it.  Hypothesis draws a small table, empty or not, with
NULLs in every column, and one aggregate query over it: ``sum`` / ``count``
/ ``min`` / ``max`` / ``avg`` (``distinct`` or not) over row expressions,
group keys, literals, ``+ - *``, comparisons, ``and`` / ``or`` / ``not`` and
``is [not] null``, in select items, HAVING and ORDER BY (with output
aliases in the last two).  Rows are compared as multisets.

Known differences, kept out of the generator here and nowhere else:

* **Division and modulo.**  ``sqlite3`` divides integers to an integer and
  takes the remainder's sign from the dividend; this engine's ``/`` is true
  division and its ``%`` is Python's.  Neither operator is generated.
* **Truth values.**  A comparison reads ``True`` / ``False`` here and 1 / 0
  in ``sqlite3``; Python's ``True == 1`` makes the multisets equal.  ``and``
  / ``or`` / ``not`` take only truth values (a comparison or ``is null``),
  since this engine's Kleene logic tests ``is False``, not zero.
* **Bare columns.**  A column that is neither grouped nor aggregated reads
  the group's first row here and an arbitrary one in ``sqlite3``; none is
  generated.  An output alias is read only in HAVING and ORDER BY, where
  ``sqlite3`` resolves it too.
* **ORDER BY positions.**  A constant integer ORDER BY term is a column
  position in ``sqlite3``; every generated term names a column, an
  aggregate or NULL.
"""

from __future__ import annotations

import sqlite3
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.errors import ExecutionError

COLUMNS = ("k", "j", "v", "w")
SCHEMA = "create table t (k int, j int, v int, w int)"


# ------------------------------------------------ one compiler, its defects


@pytest.fixture
def db():
    database = Database()
    database.execute_script(
        """
        create table t (k int, v int, d text);
        insert into t values (1, 1, 'x'), (2, 2, 'y'), (3, 0, 'z');
        """
    )
    return database


def test_a_group_scoped_and_calls_each_function_once(db):
    """``having f(sum(v)) > 0 and k >= 0`` calls and charges ``f`` once per
    group, as the same shape does per row in WHERE (3 each, not 6)."""
    calls = []
    db.register_scalar("f", lambda x: calls.append(x) or x)
    meter, _cost = db.metering()
    before = meter.ops["expr_eval"]
    rows = db.query("select k from t group by k having f(sum(v)) > 0 and k >= 0").rows()
    assert sorted(rows) == [[1], [2]]
    assert len(calls) == 3
    assert meter.ops["expr_eval"] - before == 3 + 3  # HAVING's own per group, then f's
    calls.clear()
    db.query("select k from t where f(v) > 0 and k >= 0")
    assert len(calls) == 3


def test_unary_minus_over_an_aggregate_raises_the_row_scope_error(db):
    with pytest.raises(ExecutionError) as row:
        db.query("select -d from t").rows()
    with pytest.raises(ExecutionError) as group:
        db.query("select -max(d) from t").rows()
    assert str(group.value) == str(row.value) == "cannot apply unary - to str"


def test_a_failing_function_over_an_aggregate_raises_the_row_scope_error(db):
    db.register_scalar("inv", lambda x: 1 / x)
    with pytest.raises(ExecutionError) as row:
        db.query("select inv(v) from t where k = 3").rows()
    with pytest.raises(ExecutionError) as group:
        db.query("select inv(sum(v)) from t where k = 3").rows()
    assert str(group.value) == str(row.value) == "scalar function 'inv' failed: division by zero"


def test_a_global_aggregate_over_no_rows_reads_what_needs_no_row(db):
    """Over no rows there is no representative row: a bare column reads
    NULL, but a literal, a parameter and the arithmetic over an aggregate
    need none (``count(*) + 1`` is 1, as in sqlite3)."""
    rows = db.query("select count(*) + 1, 2, :p, k from t where k > 9", {"p": 5}).rows()
    assert rows == [[1, 2, 5, None]]


# ------------------------------------------------ the sqlite3 differential

values = st.one_of(st.none(), st.integers(-2, 4))
tables = st.lists(st.tuples(values, values, values, values), max_size=8)
literals = st.integers(-2, 3).map(str)


def _binary(parts, ops):
    return st.tuples(parts, st.sampled_from(ops), parts).map(lambda t: f"({t[0]} {t[1]} {t[2]})")


def _numbers(leaves):
    """Numeric expressions over ``leaves``: ``+ - *`` and unary minus."""
    return st.recursive(
        leaves,
        lambda inner: st.one_of(_binary(inner, ("+", "-", "*")), inner.map(lambda a: f"(- {a})")),
        max_leaves=3,
    )


def _truths(numbers):
    """Truth-valued expressions over ``numbers``."""
    base = st.one_of(
        _binary(numbers, ("=", "!=", "<", "<=", ">", ">=")),
        numbers.map(lambda a: f"({a} is null)"),
        numbers.map(lambda a: f"({a} is not null)"),
    )
    return st.recursive(
        base,
        lambda inner: st.one_of(_binary(inner, ("and", "or")), inner.map(lambda a: f"(not {a})")),
        max_leaves=3,
    )


row_numbers = _numbers(st.one_of(st.sampled_from(COLUMNS), literals))
aggregates = st.one_of(
    st.just("count(*)"),
    st.tuples(
        st.sampled_from(["sum", "count", "min", "max", "avg"]), st.booleans(), row_numbers
    ).map(lambda t: f"{t[0]}({'distinct ' if t[1] else ''}{t[2]})"),
)


@st.composite
def queries(draw):
    keys = draw(st.lists(st.sampled_from(COLUMNS[:2]), unique=True, max_size=2))
    leaves = [aggregates, literals, st.just("null")]
    if keys:
        leaves.append(st.sampled_from(keys))
    numbers = _numbers(st.one_of(*leaves))
    items = draw(st.lists(st.one_of(numbers, _truths(numbers)), min_size=1, max_size=3))
    if not keys:  # an aggregate query even without GROUP BY
        items[0] = draw(_numbers(aggregates))
    aliases = [f"a{at}" for at in range(len(items))]
    sql = "select " + ", ".join(f"{item} as {alias}" for item, alias in zip(items, aliases))
    sql += " from t"
    late = _numbers(st.one_of(*leaves, st.sampled_from(aliases)))  # HAVING, ORDER BY
    if keys:
        sql += " group by " + ", ".join(keys)
        if draw(st.booleans()):
            sql += " having " + draw(_truths(late))
    terms = draw(st.lists(
        st.one_of(late, _truths(late)).filter(lambda term: any(map(str.isalpha, term))),
        max_size=2,
    ))
    if terms:
        sql += " order by " + ", ".join(
            term + draw(st.sampled_from(["", " desc"])) for term in terms
        )
    return sql


def _sqlite_rows(rows, sql):
    lite = sqlite3.connect(":memory:")
    try:
        lite.execute(SCHEMA)
        lite.executemany("insert into t values (?, ?, ?, ?)", rows)
        return [tuple(row) for row in lite.execute(sql)]
    finally:
        lite.close()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=tables, sql=queries())
def test_group_scope_matches_sqlite(rows, sql):
    db = Database()
    db.execute(SCHEMA)
    txn = db.begin()
    for row in rows:
        txn.insert("t", list(row))
    txn.commit()
    got = [tuple(row) for row in db.query(sql).rows()]
    expected = _sqlite_rows(rows, sql)
    assert Counter(got) == Counter(expected), (
        sql, sorted(got, key=repr), sorted(expected, key=repr)
    )
