"""Prepared rule firings, held to a fresh database.

The rule engine decides a firing once — event masks, the transition tables a
rule names, each query's plan, sources and locks — and re-decides it when DDL
moves the catalog version.  Each case below applies one change between two
commits of database A; database B is built in the post-change state directly.
Both then replay the same later commits, and everything must agree: each
commit's ``meter.ops`` and ``meter.total.hex()``, every pending task's bound
rows, every executed task's meter, the rows of every table and the
``db.stats()`` deltas.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Optional

import pytest

from repro.database import Database
from repro.errors import SchemaError
from repro.pta.rules import install_comp_rule
from repro.pta.tables import Scale
from repro.pta.workload import populate_trace
from repro.sim.clock import Meter
from repro.storage.temptable import TempTable
from repro.views.maintain import materialize
from tests.integration.test_golden_virtual import task_meters

SCHEMA = """
create table t (k text, v real);
create index t_k on t (k);
create table u (k text, w real);
create table audit (k text, w real);
create table m (k text, w real);
insert into t values ('a', 1.0), ('b', 2.0), ('c', 3.0), ('e', 9.0);
insert into u values ('a', 10.0), ('b', 20.0), ('c', 30.0), ('d', 40.0);
insert into m values ('a', -1.0), ('d', -4.0);
"""

#: Runs on both databases before the change (A) or in the final state (B),
#: then the queues drain: A's firings are prepared before the change.
EARLY = ["update t set v = 1.5 where k = 'a'", "insert into audit values ('d', 0.5)"]

LATER = [
    ["update t set v = 4.0 where k = 'a'"],
    ["update t set v = 5.0 where k = 'b'", "insert into t values ('d', 6.0)"],
    ["update u set w = 21.0 where k = 'b'", "update t set v = 7.0 where k = 'c'"],
    ["delete from t where k = 'c'", "update t set v = 8.0 where k = 'a'"],
    ["update t set k = 'e' where k = 'e'", "insert into audit values ('a', 2.5)"],
]

JOIN_RULE = (
    "create rule r on t when updated v "
    "if select new.k as k, new.v as v, u.w as w from new, u where u.k = new.k bind as m "
    "then execute f unique after 5 seconds"
)
OTHER_RULE = (
    "create rule r on t when inserted deleted "
    "if select k, v from inserted bind as m "
    "then execute f unique after 5 seconds"
)
SECOND_RULE = (
    "create rule r2 on t when inserted deleted updated k "
    "then evaluate select k from deleted bind as gone, select k, v from inserted bind as came "
    "execute g after 5 seconds"
)
VIEW_RULE = (
    "create rule r on t when updated v "
    "if select new.k as k, new.v as v, uv.w as w from new, uv where uv.k = new.k bind as m "
    "then execute f unique after 5 seconds"
)
UPSTREAM_RULE = (
    "create rule r on t when updated v "
    "if select new.k as k, u.w as w from new, u where u.k = new.k bind as m "
    "then execute copy unique after 5 seconds writes audit"
)
#: ``m`` is the upstream action's bound table in a cascade firing, the
#: catalog table ``m`` when audit is written directly.
DOWNSTREAM_RULE = (
    "create rule r3 on audit when inserted "
    "if select inserted.k as k, m.w as w from inserted, m where m.k = inserted.k bind as a "
    "then execute g3 unique after 5 seconds"
)


def read_bound(ctx) -> None:
    for name in ctx.task.bound_tables:
        for _row in ctx.rows(name):
            pass


def copy(ctx) -> None:
    for k, w in ctx.columns("m", "k", "w"):
        ctx.execute("insert into audit values (:k, :w)", {"k": k, "w": w})


def fresh() -> Database:
    db = Database()
    for name in ("f", "g", "g3"):
        db.register_function(name, read_bound)
    db.register_function("copy", copy)
    db.execute_script(SCHEMA)
    return db


def metered(db: Database, statements: list[str]) -> tuple[dict, str]:
    """One transaction under a fresh meter that starts off zero, so every
    addition rounds: its charges, counted and summed."""
    meter = Meter()
    meter.total = 0.1234567
    db.clock.activate(meter, db.clock.base)
    try:
        with db.begin() as txn:
            for sql in statements:
                txn.execute(sql)
    finally:
        db.clock.deactivate()
    return dict(meter.ops), meter.total.hex()


def replay(db: Database) -> dict[str, Any]:
    """Everything LATER does to ``db``, from time 100."""
    db.clock.set_base(100.0)
    before = db.stats()
    commits = [metered(db, statements) for statements in LATER]
    pending = [
        (
            task.rule_name,
            task.unique_key,
            task.release_time,
            {name: table.to_dicts() for name, table in sorted(task.bound_tables.items())},
        )
        for task in db.task_manager.delay
    ]
    with task_meters() as meters:
        db.drain()
    after = db.stats()
    return {
        "commits": commits,
        "pending": pending,
        "executed": [
            (meter.total.hex(), dict(meter.ops)) for meter in meters.get(id(db), {}).values()
        ],
        "rows": {
            table.name: sorted((tuple(record.values) for record in table.scan()), key=repr)
            for table in db.catalog.tables()
        },
        "stats": {
            key: after[key] if key == "now" else after[key] - before[key] for key in after
        },
    }


def disable(db: Database) -> None:
    db.catalog.rule("r").enabled = False


def sql(*statements: str) -> Callable[[Database], None]:
    def run(db: Database) -> None:
        for statement in statements:
            db.execute(statement)

    return run


def materialized(db: Database) -> None:
    materialize(db, "uv")


#: case -> (A's definitions, the change, B's definitions)
CASES: dict[str, tuple[Callable, Callable, Callable]] = {
    "create index": (
        sql(JOIN_RULE),
        sql("create index u_k on u (k)"),
        sql("create index u_k on u (k)", JOIN_RULE),
    ),
    "drop index": (
        sql("create index u_k on u (k)", JOIN_RULE),
        sql("drop index u_k"),
        sql(JOIN_RULE),
    ),
    "alter rule disable": (
        sql(JOIN_RULE),
        sql("alter rule r disable"),
        sql(JOIN_RULE, "alter rule r disable"),
    ),
    "alter rule enable": (
        sql(JOIN_RULE, "alter rule r disable"),
        sql("alter rule r enable"),
        sql(JOIN_RULE),
    ),
    "enabled assigned": (sql(JOIN_RULE), disable, lambda db: (sql(JOIN_RULE)(db), disable(db))),
    "drop and create rule": (
        sql(JOIN_RULE),
        sql("drop rule r", OTHER_RULE),
        sql(OTHER_RULE),
    ),
    "second rule": (sql(JOIN_RULE), sql(SECOND_RULE), sql(JOIN_RULE, SECOND_RULE)),
    "view materialised": (
        sql("create view uv as select k, w from u where w > 15", VIEW_RULE),
        materialized,
        lambda db: (
            sql("create view uv as select k, w from u where w > 15")(db),
            materialized(db),
            sql(VIEW_RULE)(db),
        ),
    ),
    "cascade with bound tables": (
        sql(UPSTREAM_RULE, DOWNSTREAM_RULE),
        sql("create index m_k on m (k)", "create index audit_k on audit (k)"),
        sql(
            "create index m_k on m (k)",
            "create index audit_k on audit (k)",
            UPSTREAM_RULE,
            DOWNSTREAM_RULE,
        ),
    ),
}


def run_case(definitions: Callable, change: Optional[Callable] = None) -> dict[str, Any]:
    db = fresh()
    definitions(db)
    for statement in EARLY:
        db.execute(statement)
    db.drain()
    if change is not None:
        change(db)
    return replay(db)


@pytest.mark.parametrize("case", sorted(CASES))
def test_change_between_commits_matches_a_fresh_database(case):
    before, change, after = CASES[case]
    changed, built = run_case(before, change), run_case(after)
    for key in ("commits", "pending", "executed", "rows", "stats"):
        assert changed[key] == built[key], key


def test_cases_fire_and_differ():
    """The cases are not vacuous: each later commit fires something, and the
    change moves what the replay does."""
    for case, (before, change, after) in sorted(CASES.items()):
        built = run_case(after)
        if case != "alter rule disable" and case != "enabled assigned":
            assert built["stats"]["rule_firings"] > 0, case
        assert run_case(before) != built, case


def test_cascade_reads_the_upstream_bound_table_before_the_catalog():
    definitions = CASES["cascade with bound tables"][2]
    db = fresh()
    definitions(db)
    seen: list = []
    db.register_function("g3", lambda ctx: seen.extend(ctx.columns("a", "k", "w")), replace=True)
    db.execute("update t set v = 4.0 where k = 'a'")  # cascades: m is r's bound table
    db.drain()
    db.execute("insert into audit values ('d', 0.0)")  # direct: m is the catalog table
    db.drain()
    assert seen == [("a", 10.0), ("d", -4.0)]


def test_cascade_condition_keys_on_bound_tables_inside_a_subquery():
    """Two upstream rules bind ``m`` from tables that store ``x`` at
    different offsets; the downstream condition names ``m`` only inside a
    subquery.  The plan prepared for the first cascade must not serve the
    second (it read ``y`` there, 200 instead of 2); alone, the second reads 2."""

    def run(upstream: list[str]) -> list:
        db = Database()
        db.execute_script(
            """
            create table p (x int, y int);
            create table q (y int, x int);
            create table t (a int);
            create table w (n int);
            insert into t values (2), (200);
            """
        )
        seen: list = []
        db.register_function("f", lambda ctx: ctx.execute("insert into w values (1)"))
        db.register_function("g", lambda ctx: seen.append(list(ctx.columns("got", "a"))))
        for table in upstream:
            db.execute(f"create rule r{table} on {table} when inserted "
                       "if select x, y from inserted bind as m then execute f writes w")
        db.execute("create rule r3 on w when inserted if select a from t "
                   "where a in (select x from m) bind as got then execute g")
        for table in upstream:
            db.execute(f"insert into {table} (x, y) values (2, 200)")
            db.drain()
        return seen

    assert run(["p", "q"]) == [[(2,)], [(2,)]]
    assert run(["q"]) == [[(2,)]]


def comps_firings(index_ddl: bool) -> dict[str, Any]:
    """Two commits of the comps rule's ``unique`` variant on one symbol;
    between them, with ``index_ddl``, the index the condition probes
    ``comps_list`` through is dropped and created again.  A new member of
    that symbol's composites, inserted after the DDL, is only in the new
    index: a firing still probing the dropped one would miss it."""
    db = Database()
    populate_trace(db, Scale.tiny())
    install_comp_rule(db, "unique", 1.0)
    symbol = db.query("select symbol from comps_list").rows()[0][0]
    update = f"update stocks set price = price + 1 where symbol = '{symbol}'"
    commits = [metered(db, [update])]
    if index_ddl:
        db.execute("drop index comps_list_symbol")
        db.execute("create index comps_list_symbol on comps_list (symbol)")
    db.execute(f"insert into comps_list values ('CNEW', '{symbol}', 0.5)")
    commits.append(metered(db, [update]))
    (task,) = db.unique_manager.pending_tasks()
    return {"commits": commits, "bound": task.bound_tables["matches"].to_dicts()}


def test_comps_firing_across_index_ddl_matches_a_fresh_database():
    changed, built = comps_firings(index_ddl=True), comps_firings(index_ddl=False)
    assert changed == built
    assert any(row["comp"] == "CNEW" for row in changed["bound"])


# ------------------------------------------------------ one pinned commit

MIXED_RULES = [
    "create rule t_rows on t when inserted updated v deleted "
    "if select k, v from inserted bind as ins, select k from deleted bind as del "
    "then execute f2 after 5 seconds",
    # updated k: the update below leaves k as it was, so this never fires.
    "create rule t_keys on t when updated k "
    "if select new.k as k from new, old where new.execute_order = old.execute_order bind as keys "
    "then execute g after 5 seconds",
    "create rule u_join on u when updated w "
    "if select new.k as k, new.w as w, t.v as v from new, t where t.k = new.k bind as m "
    "then execute f unique after 5 seconds",
    "create rule u_gone on u when deleted inserted "
    "then evaluate select k, w from deleted bind as gone, select k from inserted bind as came "
    "execute g2 after 5 seconds",
]

MIXED = [
    "insert into t values ('x', 11.0)",
    "update t set v = v + 1 where k = 'b'",
    "delete from t where k = 'c'",
    "insert into u values ('x', 50.0)",
    "update u set w = 22.0 where k = 'b'",
    "delete from u where k = 'd'",
]


def test_mixed_transaction_charges_are_pinned():
    """INSERT + UPDATE + DELETE on two tables, two rules per table, one of
    them on an ``updated`` column the transaction did not change: the charges
    are the constants the per-commit rule scan made before firings were
    prepared, count and float sum alike."""
    db = fresh()
    db.register_function("f2", read_bound)
    db.register_function("g2", read_bound)
    for statement in MIXED_RULES:
        db.execute(statement)
    ops, total = metered(db, MIXED)
    assert ops == MIXED_OPS
    assert total == MIXED_TOTAL
    assert db.rule_engine.check_count == 3 and db.rule_engine.firing_count == 3


#: Captured before firings were prepared (the per-commit rule scan).
MIXED_OPS = {
    "begin_txn": 1, "bind_row": 5, "commit_txn": 1, "condition_base": 5, "cursor_close": 4,
    "cursor_delete": 2, "cursor_fetch": 13, "cursor_insert": 2, "cursor_open": 4,
    "cursor_update": 2, "expr_eval": 12, "index_probe": 3, "lock_acquire": 12,
    "lock_release": 10, "row_output": 5, "row_scan": 15, "rule_log_scan": 12,
    "sched_enqueue": 3, "sched_per_queued": 3, "task_create": 3, "transition_row": 8,
    "unique_lookup": 1,
}
MIXED_TOTAL = "0x1.fdb679a430cc9p-4"


# ------------------------------------------- the firing program, kept or rebuilt


def program_of(db: Database, table: str):
    return db.rule_engine.programs()[db.catalog.table(table)]


@pytest.mark.parametrize(
    "change, rebuilt",
    [
        ([], False),
        (["create index u_k on u (k)"], True),
        (["drop index t_k"], True),
        (["alter rule r disable", "alter rule r enable"], False),
    ],
    ids=["nothing", "create index", "drop index", "alter rule"],
)
def test_the_program_and_its_route_live_until_the_catalog_version_moves(change, rebuilt):
    """Index DDL moves ``Catalog.version``: the trigger table's program,
    each query's firing function and the rule's route are made again.
    ALTER RULE assigns ``rule.enabled``, which the program reads per
    commit: the program and route survive, and a disabled rule is skipped
    without a charge of its own."""
    db = fresh()
    sql(JOIN_RULE)(db)
    db.execute("update t set v = 1.5 where k = 'a'")
    program = program_of(db, "t")
    fire, (route,) = program.fires[()], program.routes[()]
    for statement in change:
        db.execute(statement)
        if statement == "alter rule r disable":
            firings = db.rule_engine.firing_count
            db.execute("update t set v = 2.0 where k = 'a'")
            assert db.rule_engine.firing_count == firings
    db.execute("update t set v = 2.5 where k = 'b'")
    again = program_of(db, "t")
    assert (again is not program) == rebuilt
    assert (again.fires[()] is not fire) == rebuilt
    assert (again.routes[()][0] is not route) == rebuilt
    assert again.routes[()][0] is not None  # the second firing dispatched too


def test_a_cascade_runs_the_program_of_its_namespace_shape():
    """The downstream rule reads ``m``: the catalog table when ``audit`` is
    written directly, the upstream task's bound table in a cascade.  The
    two namespaces get a program each, with a route each, and every later
    firing of either shape reuses its own."""
    db = fresh()
    sql(UPSTREAM_RULE, DOWNSTREAM_RULE)(db)
    for round_ in range(2):
        db.execute(f"update t set v = {4.0 + round_} where k = 'a'")  # cascades into audit
        db.drain()
        db.execute("insert into audit values ('d', 0.0)")  # audit written directly
        db.drain()
        program = program_of(db, "audit")
        assert len(program.fires) == 2 and () in program.fires
        assert all(route is not None for slots in program.routes.values() for route in slots)
        if round_ == 0:
            first = dict(program.fires), [slots[0] for slots in program.routes.values()]
    assert (dict(program.fires), [slots[0] for slots in program.routes.values()]) == first


def test_a_condition_that_stops_the_firing_retires_every_bound_table(monkeypatch):
    """The second of three conditions is empty: the first query's bound
    table and the second's are retired, the third query never runs (nor
    plans), no task is made and no record keeps a pin."""
    made: list = []
    shaped = TempTable.shaped.__func__

    def recording(cls, name, schema, static_map):
        table, append = shaped(cls, name, schema, static_map)
        made.append(table)
        return table, append

    monkeypatch.setattr(TempTable, "shaped", classmethod(recording))
    db = fresh()
    db.execute(
        "create rule r on t when inserted "
        "if select k, v from inserted bind as a, select k from inserted where v > 10 bind as b, "
        "select k from inserted bind as c "
        "then execute f unique after 5 seconds"
    )
    checks, firings = db.rule_engine.check_count, db.rule_engine.firing_count
    db.execute("insert into t values ('x', 1.0)")
    assert [table.name for table in made] == ["inserted", "a", "b"]
    assert all(table.retired for table in made)
    assert db.rule_engine.check_count == checks + 1 and db.rule_engine.firing_count == firings
    assert db.unique_manager.pending_tasks("f") == []
    assert all(record.pins == 0 for record in db.catalog.table("t").scan())
    assert program_of(db, "t").fires[()].__globals__["Q2"].__name__ == "plan"  # never planned


EMPTY_ABSORB_RULES = [
    "create rule r on t when inserted deleted if select k, v from inserted bind as ins "
    "then evaluate select k from deleted bind as del execute f unique after 5 seconds",
    # raises for v = 2: a commit that fails after r's firing was absorbed
    "create rule r2 on t when inserted if select k from inserted where 1 / (v - 2.0) < 9 "
    "then execute g after 5 seconds",
]


def test_an_empty_absorb_takes_no_mark_and_rolls_back_with_its_commit():
    db = fresh()
    for statement in EMPTY_ABSORB_RULES:
        db.execute(statement)
    db.execute("insert into t values ('x', 1.0)")  # opens f's task: ins 1 row, del none
    (task,) = db.unique_manager.pending_tasks("f")
    with db.begin() as txn:
        txn.insert("t", ("y", 3.0))
    effects = txn.effects  # the absorb: ins moved (marked), del empty (no mark)
    assert [(table.name, mark) for table, mark in effects[0].marks] == [("ins", 1)]
    with pytest.raises(Exception, match="division by zero"):
        db.execute("insert into t values ('z', 2.0)")
    rows = {name: table.to_dicts() for name, table in task.bound_tables.items()}
    assert rows == {"ins": [{"k": "x", "v": 1.0}, {"k": "y", "v": 3.0}], "del": []}
    pins = {record.values[0]: record.pins for record in db.catalog.table("t").scan()}
    assert pins == {"a": 0, "b": 0, "c": 0, "e": 0, "x": 1, "y": 1}  # one per ins row


def test_an_empty_absorb_charges_its_append_and_refuses_a_retired_target():
    db = fresh()
    db.execute(EMPTY_ABSORB_RULES[0])
    db.execute("insert into t values ('x', 1.0)")
    (task,) = db.unique_manager.pending_tasks("f")
    ops, _total = metered(db, ["insert into t values ('y', 3.0)"])
    assert ops["unique_append_row"] == 2  # one row moved into ins, one charge for the empty del
    task.bound_tables["del"].retire()
    with pytest.raises(SchemaError, match="retired"):
        db.execute("insert into t values ('w', 4.0)")


# ------------------------------------------------ calls per firing, counted

#: Python calls inside ``RuleEngine.process_commit`` per rule firing over the
#: second of two ``sql_views_mixed`` smoke runs (CPython 3.11, the first run
#: warming the process-wide caches): 184.7 through the per-query executor
#: path the firing programs replaced, 98.7 through them.  The bound is that
#: plus 5 %: a call added per query or per bound table shows.
CALLS_PER_FIRING = 104


def test_calls_per_firing_stay_bounded(monkeypatch):
    from repro.core.engine import RuleEngine
    from tests.sql.test_compiled_pipeline import sql_smoke

    sql_smoke()  # the process-wide caches (shapes, readers) warm, as in a long run
    calls = [0]
    firings = []
    process_commit = RuleEngine.process_commit

    def count(frame, event, arg):
        if event == "call":
            calls[0] += 1

    def counted(self, txn):
        before = self.firing_count
        sys.setprofile(count)
        try:
            return process_commit(self, txn)
        finally:
            sys.setprofile(None)
            firings.append(self.firing_count - before)

    monkeypatch.setattr(RuleEngine, "process_commit", counted)
    sql_smoke()
    assert sum(firings) > 500
    assert calls[0] / sum(firings) <= CALLS_PER_FIRING, calls[0] / sum(firings)
