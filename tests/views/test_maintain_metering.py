"""What a view's maintenance tasks charge is an invariant: compare it exactly.

``golden_view_metering.json`` holds, for one aggregate and one keyed
projection view under each maintenance strategy (plus the projection under
``compact``), every maintenance task's ``meter.ops`` and
``meter.total.hex()`` in execution order, and the view's final rows.  The
PTA functions have ``tests/integration/golden_virtual.json``; the two view
kinds' row loops (``_collect_marks``, ``_AggregateKind.fold``,
``_ProjectionKind.fold`` + ``write``) have this.  The file was recorded on
the commit *before* those loops were moved from ``ctx.rows`` dictionaries
to ``ctx.columns`` tuples; a change that means to move a charge regenerates
it and says so::

    PYTHONPATH=src python -m tests.views.test_maintain_metering --regenerate
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any

import pytest

from repro.database import Database
from repro.sim import simulator
from repro.views.maintain import STRATEGIES, materialize

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_view_metering.json")

AGG_VIEW = (
    "create view v as select x.a as a, sum(b * factor) as total, count(*) as n "
    "from x, rates where x.a = rates.a group by x.a"
)
PROJ_VIEW = (
    "create view v as select b, x.a as a, b * factor as scaled "
    "from x, rates where x.a = rates.a"
)

#: Transactions of the stream, drained where the list says so: inserts,
#: value updates, deletes, a delete whose join partner dies with it, a
#: key-column update chain (g1 -> g2 -> g3) inside one batching window, and
#: a join partner replaced in one transaction (marked keys that rederive).
STREAM: list[Any] = [
    ["insert into x values ('g1', 3.0)", "insert into x values ('g3', 7.0)"],
    ["update x set b = 4.0 where b = 2.0"],
    "drain",
    ["update x set a = 'g2' where b = 1.0"],
    ["update x set a = 'g3' where b = 1.0"],
    ["update rates set factor = 5.0 where a = 'g3'"],
    "drain",
    ["delete from x where b = 3.0"],
    ["insert into x values ('g2', 9.0)", "delete from x where b = 9.0"],
    "drain",
    ["delete from x where a = 'g2'", "delete from rates where a = 'g2'"],
    ["insert into rates values ('g2', 1.5)", "insert into x values ('g2', 6.0)"],
    ["update x set b = 8.0 where b = 6.0"],
    ["delete from rates where a = 'g3'", "insert into rates values ('g3', 2.5)"],
    "drain",
]


def _database() -> Database:
    db = Database()
    db.execute_script(
        """
        create table x (a text, b real);
        create table rates (a text, factor real);
        create index x_a on x (a);
        create index rates_a on rates (a);
        insert into x values ('g1', 1.0), ('g1', 2.0), ('g2', 5.0);
        insert into rates values ('g1', 2.0), ('g2', 3.0), ('g3', 4.0);
        """
    )
    return db


def snapshot(kind: str, strategy: str, compact: bool = False) -> dict[str, Any]:
    """Run the stream over one maintained view; every maintenance task's
    meter, read from outside (``simulator.execute_task`` is looked up as a
    module global per call)."""
    db = _database()
    if kind == "aggregate":
        db.execute(AGG_VIEW)
        materialize(db, "v", unique=True, delay=0.5, maintenance=strategy)
    else:
        db.execute(PROJ_VIEW)
        materialize(
            db, "v", unique=True, delay=0.5, key=("b", "a"), compact=compact,
            maintenance=strategy,
        )
    tasks: list = []
    original = simulator.execute_task

    def recording(database, task, *args, **kwargs):
        tasks.append(task)
        return original(database, task, *args, **kwargs)

    simulator.execute_task = recording
    try:
        for step in STREAM:
            if step == "drain":
                db.drain()
                continue
            txn = db.begin()
            for statement in step:
                db.execute_in_txn(statement, txn)
            txn.commit()
    finally:
        simulator.execute_task = original
    maintenance = [task for task in tasks if task.klass == "recompute:maintain_v"]
    return {
        "tasks": [
            {"ops": dict(sorted(task.meter.ops.items())), "total": task.meter.total.hex()}
            for task in maintenance
        ],
        "rows": sorted(db.query("select * from v").rows(), key=repr),
    }


def scenarios() -> dict[str, dict[str, Any]]:
    out = {
        f"{kind}/{strategy}": {"kind": kind, "strategy": strategy}
        for kind in ("aggregate", "projection")
        for strategy in STRATEGIES
    }
    out["projection/incremental/compact"] = {
        "kind": "projection", "strategy": "incremental", "compact": True,
    }
    return out


def _dump(document: dict[str, Any]) -> str:
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden() -> dict[str, Any]:
    with open(GOLDEN) as source:
        return json.load(source)


@pytest.mark.parametrize("name", list(scenarios()))
def test_maintenance_tasks_charge_what_the_golden_file_says(golden, name):
    got = json.loads(_dump(snapshot(**scenarios()[name])))
    assert got["tasks"], "the stream triggered no maintenance task"
    assert got == golden[name]


def test_golden_covers_exactly_the_scenarios(golden):
    assert set(golden) == set(scenarios())


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    with open(GOLDEN, "w") as out:
        out.write(_dump({name: snapshot(**kwargs) for name, kwargs in scenarios().items()}))
    print(f"wrote {GOLDEN}")
