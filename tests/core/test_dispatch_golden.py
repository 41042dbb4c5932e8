"""Per-commit virtual results of ``unique on`` firings, pinned.

The aggregate goldens (``tests/integration/golden_virtual.json``) say
*that* a virtual result moved; this file says *which firing* moved it.  For
three rule shapes it records, after every commit, the meter the commit
charged (``ops`` and ``total`` as ``float.hex``) and every pending task's
bound rows (floats at ``repr()`` precision):

* ``options/on_symbol`` — one key per updated stock, the options it carries;
* ``comps/on_comp`` — Appendix A: one update touches every composite the
  stock belongs to, so one firing has several keys;
* ``views/shared_key`` — a maintained aggregate view ``unique on symbol``:
  several bound delta tables carry the key (union routing), and some of
  them are empty in a given firing.

A change that *means* to move a virtual result regenerates the file::

    PYTHONPATH=src python -m tests.core.test_dispatch_golden --regenerate
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Callable

import pytest

from repro.database import Database
from repro.pta.rules import install_comp_rule, install_option_rule
from repro.pta.tables import create_schema
from repro.views import materialize

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_dispatch.json")

PRICES = {"S0": 100.0, "S1": 50.0, "S2": 20.0, "S3": 75.0}
SET_PRICE = "update stocks set price = :p where symbol = :s"

#: One commit per entry: the statements of one transaction, or ``None`` for
#: a drain (every pending task runs; nothing is recorded for it).
PRICE_COMMITS = [
    [("S0", 101.0)],
    [("S1", 51.0)],
    [("S0", 102.0)],
    [("S2", 21.0)],
    [("S0", 103.0), ("S3", 76.0)],
    None,
    [("S3", 77.0)],
    [("S0", 104.0), ("S1", 52.0), ("S3", 78.0)],
    [("S1", 53.0), ("S2", 22.0)],
]


def _pta_database() -> Database:
    db = Database()
    create_schema(db)
    with db.begin() as txn:
        for at, (symbol, price) in enumerate(PRICES.items()):
            txn.insert("stocks", (symbol, price))
            txn.insert("stock_stdev", (symbol, 0.2 + 0.05 * at))
    return db


def options_on_symbol() -> tuple[Database, list]:
    db = _pta_database()
    options = [
        ("O0", "S0", 95.0, 0.25), ("O1", "S0", 100.0, 0.5), ("O2", "S0", 110.0, 0.75),
        ("O3", "S1", 50.0, 0.3), ("O4", "S3", 70.0, 0.4), ("O5", "S3", 80.0, 0.6),
    ]
    with db.begin() as txn:
        for row in options:
            txn.insert("options_list", row)
            txn.insert("option_prices", (row[0], 1.0))
    install_option_rule(db, "on_symbol", delay=1.0)
    return db, _price_commits()


def comps_on_comp() -> tuple[Database, list]:
    db = _pta_database()
    members = [
        ("C0", "S0", 0.5), ("C0", "S1", 0.5), ("C1", "S0", 0.25),
        ("C1", "S2", 0.75), ("C2", "S1", 0.5), ("C2", "S3", 0.5),
    ]
    with db.begin() as txn:
        for row in members:
            txn.insert("comps_list", row)
        for comp in ("C0", "C1", "C2"):
            txn.insert("comp_prices", (comp, 1.0))
    install_comp_rule(db, "on_comp", delay=1.0)
    return db, _price_commits()


def _price_commits() -> list:
    return [
        None if commit is None else [(SET_PRICE, {"s": s, "p": p}) for s, p in commit]
        for commit in PRICE_COMMITS
    ]


def views_shared_key() -> tuple[Database, list]:
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
    with db.begin() as txn:
        for row in PRICES.items():
            txn.insert("stocks", row)
        for row in (("P0", "S0", 10.0), ("P1", "S0", 5.0), ("P2", "S1", 3.0)):
            txn.insert("positions", row)
    db.execute(
        "create view symbol_exposure as "
        "select positions.symbol as symbol, sum(shares * price) as exposure "
        "from positions, stocks where positions.symbol = stocks.symbol "
        "group by positions.symbol"
    )
    materialize(db, "symbol_exposure", unique=True, unique_on=("symbol",), delay=0.5)
    opened = "insert into positions values (:i, :s, :n)"
    closed = "delete from positions where pos_id = :i"
    return db, [
        [(SET_PRICE, {"s": "S0", "p": 101.0})],
        [(opened, {"i": "P3", "s": "S1", "n": 7.0})],
        [(closed, {"i": "P0"})],
        [(SET_PRICE, {"s": "S2", "p": 21.0})],
        [(SET_PRICE, {"s": "S0", "p": 102.0}), (SET_PRICE, {"s": "S1", "p": 51.0})],
        None,
        [(opened, {"i": "P4", "s": "S2", "n": 2.0}), (closed, {"i": "P2"})],
        [(SET_PRICE, {"s": "S1", "p": 52.0}), (opened, {"i": "P5", "s": "S3", "n": 1.0})],
    ]


CASES: dict[str, Callable[[], tuple[Database, list]]] = {
    "options/on_symbol": options_on_symbol,
    "comps/on_comp": comps_on_comp,
    "views/shared_key": views_shared_key,
}


def _plain(value: Any) -> Any:
    return repr(value) if isinstance(value, float) else value


def picture(db: Database) -> dict[str, Any]:
    """What the last commit left: its meter and the pending bound rows."""
    meter = db.background_meter
    pending = sorted(
        db.unique_manager.pending_tasks(), key=lambda t: (t.function_name, repr(t.unique_key))
    )
    return {
        "ops": dict(sorted(meter.ops.items())),
        "total": meter.total.hex(),
        "pending": {
            f"{task.function_name} {task.unique_key!r}": {
                name: [[_plain(value) for value in row] for row in table.scan_values()]
                for name, table in task.bound_tables.items()
            }
            for task in pending
        },
    }


def run_case(name: str) -> list[dict[str, Any]]:
    db, commits = CASES[name]()
    pictures = []
    for commit in commits:
        if commit is None:
            db.drain()
            continue
        db.advance(0.25)
        db.background_meter.total = 0.0
        db.background_meter.ops.clear()
        with db.begin() as txn:
            for sql, params in commit:
                assert txn.execute(sql, params) == 1
        pictures.append(picture(db))
    db.drain()
    for table in db.catalog.tables():
        assert all(record.pins == 0 for record in table.scan()), table.name
    return pictures


def _dump(document: dict[str, Any]) -> str:
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden() -> dict[str, Any]:
    with open(GOLDEN) as source:
        return json.load(source)


@pytest.mark.parametrize("name", list(CASES))
def test_each_commit_matches_golden(golden, name):
    got = json.loads(_dump({name: run_case(name)}))[name]
    want = golden[name]
    assert len(got) == len(want)
    for at, (seen, pinned) in enumerate(zip(got, want), start=1):
        assert seen == pinned, f"commit {at} of {name} moved"


def test_golden_covers_exactly_the_cases(golden):
    assert set(golden) == set(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    with open(GOLDEN, "w") as out:
        out.write(_dump({name: run_case(name) for name in CASES}))
    print(f"wrote {GOLDEN}")
