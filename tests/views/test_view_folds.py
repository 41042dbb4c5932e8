"""The shape of a view maintenance task's row loops, counted.

A task folds its delta and mark tables in code generated per loop kind and
bound-table column sources (``views/maintain._fold``), charging in line:
no ``ctx.columns`` generator runs under a view's ``apply``, each fold is
compiled once however many tasks and databases use it, and an empty mark
table charges nothing.  What the folds charge is pinned separately by
``golden_view_metering.json``.
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.core.functions import FunctionContext
from repro.database import Database
from repro.views import maintain
from repro.views.maintain import MaintenanceStats, _collect_marks, materialize


def _mixed_database() -> Database:
    """``stocks`` / ``positions`` with the two views of the SQL benchmark
    workload: a keyed projection join and a ``SUM … GROUP BY``."""
    db = Database()
    db.execute_script(
        """
        create table stocks (symbol text, price real);
        create index stocks_symbol on stocks (symbol);
        create table positions (pos_id text, symbol text, shares real);
        create index positions_pos on positions (pos_id);
        create index positions_symbol on positions (symbol);
        """
    )
    txn = db.begin()
    for at in range(6):
        txn.insert("stocks", [f"S{at}", 10.0 + at])
    for at in range(18):
        txn.insert("positions", [f"P{at}", f"S{at % 6}", float(at + 1)])
    txn.commit()
    db.execute(
        "create view position_values as "
        "select pos_id, positions.symbol as symbol, shares * price as value "
        "from positions, stocks where positions.symbol = stocks.symbol"
    )
    db.execute(
        "create view symbol_exposure as "
        "select positions.symbol as symbol, sum(shares * price) as exposure "
        "from positions, stocks where positions.symbol = stocks.symbol "
        "group by positions.symbol"
    )
    materialize(db, "position_values", unique=True, delay=0.5, key=("pos_id",))
    materialize(db, "symbol_exposure", unique=True, unique_on=("symbol",), delay=0.5)
    db.execute_script(
        """
        create index position_values_pos on position_values (pos_id);
        create index symbol_exposure_symbol on symbol_exposure (symbol);
        """
    )
    return db


def _mixed_stream(db: Database, seed: int = 3, n: int = 60) -> None:
    """Price updates, position inserts and deletes; drained at the end."""
    rng = random.Random(seed)
    opened = 18
    for _ in range(n):
        roll = rng.random()
        if roll < 0.6:
            db.execute(
                "update stocks set price = :p where symbol = :s",
                {"p": round(rng.uniform(5, 50), 2), "s": f"S{rng.randrange(6)}"},
            )
        elif roll < 0.8:
            db.execute(
                "insert into positions values (:i, :s, :n)",
                {"i": f"P{opened}", "s": f"S{rng.randrange(6)}", "n": float(rng.randrange(1, 9))},
            )
            opened += 1
        else:
            closed = f"P{rng.randrange(opened)}"
            db.execute("delete from positions where pos_id = :i", {"i": closed})
    db.drain()


def _assert_views_fresh(db: Database) -> None:
    values = db.query(
        "select pos_id, positions.symbol, shares * price from positions, stocks "
        "where positions.symbol = stocks.symbol"
    ).rows()
    assert sorted(db.query("select * from position_values").rows()) == sorted(values)
    exposure = {}
    for _pos, symbol, value in values:
        exposure[symbol] = exposure.get(symbol, 0.0) + value
    got = dict(db.query("select symbol, exposure from symbol_exposure").rows())
    assert got.keys() == exposure.keys()
    for symbol, total in exposure.items():
        assert got[symbol] == pytest.approx(total)


def test_no_charged_generator_runs_inside_a_view_apply():
    """Every row a maintenance task reads is read by a generated fold:
    ``FunctionContext.columns``'s generated ``<metered reader>`` never runs
    under ``apply`` (a profile hook walks the stack of each of its frames)."""
    db = _mixed_database()
    seen = {"apply": 0, "fold": set(), "charged_in_apply": 0}

    def under_apply(frame) -> bool:
        while frame is not None:
            if frame.f_code.co_name == "apply" and frame.f_code.co_filename == maintain.__file__:
                return True
            frame = frame.f_back
        return False

    def profile(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_name == "apply" and code.co_filename == maintain.__file__:
            seen["apply"] += 1
        elif code.co_filename.startswith("<view fold"):
            seen["fold"].add(code.co_filename)
        elif code.co_filename == "<metered reader>" and under_apply(frame.f_back):
            seen["charged_in_apply"] += 1

    sys.setprofile(profile)
    try:
        _mixed_stream(db)
    finally:
        sys.setprofile(None)
    assert seen["apply"] > 0
    assert seen["fold"] == {"<view fold aggregate>", "<view fold projection>", "<view fold marks>"}
    assert seen["charged_in_apply"] == 0
    _assert_views_fresh(db)


def test_each_fold_is_generated_once_per_kind_and_column_sources(monkeypatch):
    """The folds are cached by their loop kind and column sources, not per
    table, task or database: a second database of the same shape compiles
    nothing, and no two compiled folds have the same source."""
    maintain._fold.cache_clear()
    compiled = []
    real = maintain.generate

    def counting(lines, name, filename, names):
        compiled.append((filename, tuple(lines)))
        return real(lines, name, filename, names)

    monkeypatch.setattr(maintain, "generate", counting)
    first = _mixed_database()
    _mixed_stream(first)
    after_first = list(compiled)
    assert {filename for filename, _lines in after_first} == {
        "<view fold aggregate>", "<view fold projection>", "<view fold marks>",
    }
    assert len(set(after_first)) == len(after_first)
    assert maintain._fold.cache_info().currsize == len(after_first)
    second = _mixed_database()
    _mixed_stream(second)
    assert compiled == after_first
    _assert_views_fresh(second)


def test_an_empty_mark_table_charges_nothing(monkeypatch):
    """A mark table the rule bound but no row reached is skipped before
    anything is built: no fold compiled, no charge, no op count stored."""
    db = Database()
    db.execute("create table x (a text, b real)")
    compiled = []
    monkeypatch.setattr(maintain, "generate", lambda *args: compiled.append(args))
    seen = {}

    def fn(ctx: FunctionContext) -> None:
        meter = ctx.task.meter
        before = (meter.total, dict(meter.ops))
        stats = MaintenanceStats()
        seen["marks"] = _collect_marks(ctx, ("a",), stats)
        seen["stats"] = (stats.deletions_seen, stats.keys_marked)
        seen["unchanged"] = (meter.total, dict(meter.ops)) == before
        seen["bound"] = len(ctx.bound("marks_del")), len(ctx.bound("marks_old"))

    db.register_function("f", fn)
    db.execute(
        "create rule r on x when inserted "
        "then evaluate select a, 0 as maint_wild from deleted bind as marks_del, "
        "select a, 0 as maint_wild from inserted where b < 0 bind as marks_old "
        "execute f"
    )
    db.execute("insert into x values ('g1', 1.0)")
    db.drain()
    assert seen == {
        "marks": (set(), False),
        "stats": (0, 0),
        "unchanged": True,
        "bound": (0, 0),
    }
    assert compiled == []


def test_price_updates_leave_the_mark_tables_empty_and_unread():
    """In the workload's shape a price update changes no key or WHERE
    column: its tasks bind both mark tables empty, and no mark fold runs."""
    db = _mixed_database()
    calls = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith("<view fold"):
            calls.append(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        for at in range(12):
            db.execute(
                "update stocks set price = :p where symbol = :s",
                {"p": 20.0 + at, "s": f"S{at % 6}"},
            )
        db.drain()
    finally:
        sys.setprofile(None)
    assert "<view fold marks>" not in calls
    assert "<view fold aggregate>" in calls and "<view fold projection>" in calls
    _assert_views_fresh(db)
