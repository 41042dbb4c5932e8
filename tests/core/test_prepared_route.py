"""Prepared dispatch: a ``unique on`` firing routed through the route its
rule prepared for the bound tables' shape.

The per-firing router it replaced — Appendix A's owners found per firing,
their key offsets looked up, each owner's rows grouped through the
compiled reader, and the keys made as the union or product of the owners'
groups — is kept below as the oracle.  A hypothesis differential drives
both over random shapes and rows: the same keys in the same order, the same
rows in each partition in the same order, the same meter to the last bit,
and every pin back once the tasks retire.  The counted tests hold the route
to its contract: prepared once per (rule, bound shape), a grouper compiled
once per key-source tuple, prepared again after DDL, and a routing error
raised by every firing that meets it.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import unique
from repro.core.rules import Rule
from repro.database import Database
from repro.errors import RuleError
from repro.pta.tables import Scale
from repro.pta.workload import VIEW
from repro.sim.clock import Meter
from repro.sql import ast
from repro.storage import temptable
from repro.storage.schema import Column, ColumnType, Schema
from repro.storage.table import Table
from repro.storage.temptable import ColumnSource, StaticMap, TempTable
from repro.txn.tasks import Task

# ---------------------------------------------------------------------------
# The oracle: the per-firing router, as dispatch ran it before routes
# ---------------------------------------------------------------------------


def reference_owners(unique_on, bound):
    """Appendix A's ``T^u`` of one firing, found per firing: per owner the
    positions of its columns in the key, and whether a column is shared."""
    positions_of, shared = {}, None
    for position, column in enumerate(unique_on):
        names = [name for name, table in bound.items() if table.schema.has_column(column)]
        if not names:
            raise RuleError(f"rule 'r': unique column {column!r} is in no bound table")
        if len(names) > 1 and shared is None:
            shared = (column, names)
        for name in names:
            positions_of.setdefault(name, []).append(position)
    if shared is not None and any(len(p) < len(unique_on) for p in positions_of.values()):
        column, names = shared
        raise RuleError(f"rule 'r': unique column {column!r} is ambiguous ({', '.join(names)})")
    return positions_of, shared is not None


def reference_group_rows(source, offsets):
    """The deleted ``_group_rows``: a copy of the rows, one compiled-reader
    call per row for its key, first-seen key order."""
    rows = list(source.scan_raw())
    if not rows:
        return {}
    keys = list(source.scan_columns(offsets))
    first = keys[0]
    if keys.count(first) == len(keys):
        return {first: rows}
    groups = {}
    for key, raw in zip(keys, rows):
        groups.setdefault(key, []).append(raw)
    return groups


def reference_route(unique_on, bound):
    """The keys of one firing and, per owner, its key positions and groups."""
    positions_of, shared = reference_owners(unique_on, bound)
    owners = {}
    for name, positions in positions_of.items():
        source = bound[name]
        offsets = [source.schema.offset(unique_on[p]) for p in positions]
        owners[name] = (positions, reference_group_rows(source, offsets))
    if shared:
        union = dict.fromkeys(key for _p, groups in owners.values() for key in groups)
        return list(union), owners
    keys = []
    for combo in itertools.product(*(groups for _p, groups in owners.values())):
        key = [None] * len(unique_on)
        for (positions, _groups), part in zip(owners.values(), combo):
            for position, value in zip(positions, part):
                key[position] = value
        keys.append(tuple(key))
    return keys, owners


def reference_partitions(keys, owners, bound):
    """Per key, per bound table (in firing order): the raw rows it receives."""
    partitions = []
    for key in keys:
        partition = {}
        for name, source in bound.items():
            if name in owners:
                positions, groups = owners[name]
                partition[name] = list(groups.get(tuple(key[at] for at in positions), []))
            else:
                partition[name] = list(source.scan_raw())
        partitions.append(partition)
    return partitions


def reference_charges(db, keys, owners, bound, pending):
    """The per-firing router's charges, through ``Database.charge`` in its
    order: each owner's rows, then per key its lookup, each non-owner it
    receives, and the absorb (per table) or the task it opens."""
    for name in owners:
        db.charge("partition_row", max(len(bound[name]), 1))
    for key, partition in zip(keys, reference_partitions(keys, owners, bound)):
        db.charge("unique_lookup")
        for name, rows in partition.items():
            if name not in owners:
                db.charge("partition_row", max(len(rows), 1))
        if key in pending:
            for rows in partition.values():
                db.charge("unique_append_row", max(len(rows), 1))
        else:
            db.charge("task_create")


# ---------------------------------------------------------------------------
# Random shapes and rows
# ---------------------------------------------------------------------------

WIDTH = 3  # columns of each base table a pointer slot refers to
VALUES = [None, 0, 1, 2]  # few values: keys collide, NULL keys occur


class Prepared:
    """A firing program's route slot for one rule: resolved at the rule's
    first firing that gets as far as dispatch, kept from then on, and
    handed to ``UniqueManager.dispatch`` with every firing."""

    def __init__(self, db, rule):
        self.db, self.rule, self.route = db, rule, None

    def dispatch(self, bound, txn):
        if self.route is None:
            self.route = unique.Route(self.rule, bound, self.db.rule_engine.make_action_body)
        return self.db.unique_manager.dispatch(self.route, bound, txn)


@st.composite
def firings(draw):
    """A ``unique on`` rule's bound shape and two firings of it.

    The owners carry the unique columns as one reading draws it: one owner
    with the whole key, a product of owners splitting it, a key shared by
    every owner, or a random subset per table (which also reaches both
    routing errors).  0-2 non-owners ride along.  A column is
    pointer-backed or materialised; a table has 0-5 rows."""
    unique_on = tuple(f"u{at}" for at in range(draw(st.integers(1, 3))))
    reading = draw(st.sampled_from(("one", "product", "shared", "random")))
    if reading == "one":
        carried = [list(unique_on)]
    elif reading == "product":
        cuts = draw(st.sets(st.integers(1, len(unique_on) - 1))) if len(unique_on) > 1 else set()
        bounds = [0, *sorted(cuts), len(unique_on)]
        carried = [list(unique_on[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    elif reading == "shared":
        carried = [list(unique_on)] * draw(st.integers(2, 3))
    else:
        carried = [
            draw(st.lists(st.sampled_from(unique_on), unique=True, max_size=len(unique_on)))
            for _ in range(draw(st.integers(1, 3)))
        ]
    carried += [[]] * draw(st.integers(0, 2))
    specs = []
    for at, columns in enumerate(draw(st.permutations(carried))):
        names = columns + [f"x{i}" for i in range(draw(st.integers(0 if columns else 1, 2)))]
        names = draw(st.permutations(names))
        kinds = [draw(st.sampled_from(("ptr", "mat"))) for _ in names]
        specs.append((f"t{at}", names, kinds))
    sizes = [[draw(st.integers(0, 5)) for _ in specs] for _firing in range(2)]
    return unique_on, specs, sizes, draw(st.randoms(use_true_random=False))


class Shapes:
    """Builds bound tables of the drawn shape: one schema and static map
    object per table, as one bind spec per plan gives a rule's firings."""

    def __init__(self, specs, rng):
        self.specs = specs
        self.bases = [
            Table(f"base{slot}", Schema([Column(f"b{i}", ColumnType.INT) for i in range(WIDTH)]))
            for slot in range(2)
        ]
        self.shapes = {}
        for name, names, kinds in specs:
            sources, mats = [], 0
            for at, kind in enumerate(kinds):
                if kind == "ptr":
                    sources.append(ColumnSource("ptr", at % 2, at % WIDTH))
                else:
                    sources.append(ColumnSource("mat", mats))
                    mats += 1
            schema = Schema([Column(column, ColumnType.INT) for column in names])
            self.shapes[name] = (schema, StaticMap(sources))
        self.rng = rng
        self.records = []

    def bound(self, sizes):
        tables = {}
        for (name, _names, _kinds), size in zip(self.specs, sizes):
            schema, static_map = self.shapes[name]
            table = TempTable(name, schema, static_map)
            for _ in range(size):
                ptrs = [
                    base.insert([self.rng.choice(VALUES) for _ in range(WIDTH)])
                    for base in self.bases[: static_map.ptr_slots]
                ]
                self.records.extend(ptrs)
                mats = [self.rng.choice(VALUES) for _ in range(static_map.mat_slots)]
                table.append_row(ptrs, mats)
            tables[name] = table
        return tables


def ids(rows):
    """Rows by the records they point at (kept alive by the test) and their
    inline values: a copied row is a new tuple of the same pointers."""
    return [(tuple(map(id, ptrs)), mats) for ptrs, mats in rows]


@settings(max_examples=200, deadline=None)
@given(firings())
def test_prepared_dispatch_routes_as_the_per_firing_router(firing):
    unique_on, specs, sizes, rng = firing
    db = Database()
    db.register_function("f", lambda ctx: None)
    rule = Rule(
        name="r", table="t", events=(ast.Event("inserted"),), function="f",
        unique=True, unique_on=unique_on,
    )
    prepared = Prepared(db, rule)
    shapes = Shapes(specs, rng)
    txn = db.begin()
    txn.commit_time = 0.0
    pending = {}  # key -> expected raw rows per table of its pending task
    for size in sizes:
        bound = shapes.bound(size)
        try:
            keys, owners = reference_route(unique_on, bound)
        except RuleError as expected:
            with pytest.raises(RuleError) as raised:
                prepared.dispatch(bound, txn)
            assert str(raised.value) == str(expected)
            assert prepared.route is None  # a failed preparation is not kept
            for table in bound.values():
                table.retire()
            continue
        expected_partitions = reference_partitions(keys, owners, bound)
        db.background_meter = oracle = Meter()
        reference_charges(db, keys, owners, bound, pending)
        db.background_meter = meter = Meter()
        route = prepared.route
        new = prepared.dispatch(bound, txn)

        assert [task.unique_key for task in new] == [key for key in keys if key not in pending]
        assert meter.ops == oracle.ops
        assert meter.total.hex() == oracle.total.hex()
        for key, partition in zip(keys, expected_partitions):
            rows = pending.setdefault(key, {name: [] for name in bound})
            for name, raws in partition.items():
                rows[name] += ids(raws)
        assert route in (None, prepared.route)  # the second firing reused the first's route
    tasks = db.unique_manager.pending_tasks("f")
    assert [task.unique_key for task in tasks] == list(pending)
    for task in tasks:
        assert {
            name: ids(table.scan_raw()) for name, table in task.bound_tables.items()
        } == pending[task.unique_key]
        task.retire_bound_tables()
    assert all(record.pins == 0 for record in shapes.records)


def test_a_firing_of_another_shape_prepares_its_own_route():
    """One downstream rule fired under two namespace shapes: it reads ``m``,
    which two upstream rules bind from tables storing ``k`` at different
    offsets, so its bound table reads the key through two static maps.
    Each shape runs its own program with its own route; a route trusted
    across shapes would group by the wrong column."""
    db = Database()
    db.execute_script(
        "create table p (k int, v int); create table q (v int, k int); create table w (n int)"
    )
    db.register_function("f", lambda ctx: ctx.execute("insert into w values (1)"))
    db.register_function("g", lambda ctx: None)
    for table in ("p", "q"):
        db.execute(f"create rule r{table} on {table} when inserted "
                   "if select * from inserted bind as m then execute f writes w")
    db.execute("create rule down on w when inserted if select k, v from m bind as seen "
               "then execute g unique on k after 100 seconds")
    for table, row in [("p", (1, 10)), ("q", (20, 2)), ("p", (3, 30)), ("q", (40, 4))]:
        db.execute(f"insert into {table} values {row}")
        db.drain(until=db.now + 1.0)  # runs f, whose commit fires ``down``
    assert [task.unique_key for task in db.unique_manager.pending_tasks("g")] == [
        (1,), (2,), (3,), (4,)
    ]
    program = db.rule_engine.programs()[db.catalog.table("w")]
    assert len(program.fires) == 2  # one per shape of ``m``
    groupers = [route.owners[0][2] for (route,) in program.routes.values()]
    assert len(groupers) == 2 and groupers[0] is not groupers[1]  # ``k`` read at two offsets


# ---------------------------------------------------------------------------
# Counted: prepared once per (rule, bound shape), again after DDL
# ---------------------------------------------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """Calls of ``core/unique._owners`` and the sources of every grouper
    compiled while the test runs."""
    counts = {"owners": 0, "groupers": []}
    owners, generate = unique._owners, temptable.generate

    def counting_owners(rule, has_column):
        counts["owners"] += 1
        return owners(rule, has_column)

    def recording(lines, name, filename, names):
        if filename == "<grouper>":
            counts["groupers"].append("\n".join(lines))
        return generate(lines, name, filename, names)

    monkeypatch.setattr(unique, "_owners", counting_owners)
    monkeypatch.setattr(temptable, "generate", recording)
    temptable._grouper.cache_clear()
    return counts


OPTIONS_RULE = (
    "create rule r on stocks when updated price "
    "if select option_symbol, stock_symbol, new.price as price "
    "from options_list, new where options_list.stock_symbol = new.symbol bind as matches "
    "then execute f unique on stock_symbol after 1 seconds"
)


def options_db():
    db = Database()
    db.execute("create table stocks (symbol text, price real)")
    db.execute("create table options_list (option_symbol text, stock_symbol text)")
    db.execute("create index stocks_symbol on stocks (symbol)")
    for at in range(4):
        db.execute(f"insert into stocks values ('S{at}', {10.0 + at})")
        for option in range(3):
            db.execute(f"insert into options_list values ('O{at}_{option}', 'S{at}')")
    db.register_function("f", lambda ctx: None)
    db.execute(OPTIONS_RULE)
    return db


def fire(db, *symbols, price=1.0):
    with db.begin() as txn:
        for symbol in symbols:
            db.execute_in_txn(f"update stocks set price = {price} where symbol = '{symbol}'", txn)


def routes(db):
    """Every route the firing programs resolved, per program and rule."""
    return [route for program in db.rule_engine.programs().values()
            for slots in program.routes.values() for route in slots if route is not None]


def test_the_options_workload_prepares_one_route(counted):
    db = VIEW.run(scale=Scale.tiny(), view="options", variant="on_symbol").run.db
    assert db.rule_engine.firing_count > 100
    assert len(routes(db)) == 1
    assert counted["owners"] == 2  # CREATE RULE's check, then the one route
    assert len(counted["groupers"]) == 1


def test_a_route_is_prepared_once_per_rule_and_shape(counted):
    db = options_db()
    counted["owners"] = 0  # CREATE RULE's check_columns ran once
    for at in range(6):
        fire(db, f"S{at % 4}", price=2.0 + at)
    fire(db, "S0", "S1", price=9.0)  # two keys in one firing: same shape
    assert counted["owners"] == 1
    assert len(routes(db)) == 1
    assert len(counted["groupers"]) == 1
    other = options_db()  # a second database with the same shape reuses the grouper
    fire(other, "S2")
    assert len(counted["groupers"]) == 1


@pytest.mark.parametrize(
    "ddl",
    [
        ["drop index stocks_symbol", "create index stocks_symbol on stocks (symbol)"],
        [
            "drop table options_list",
            "create table options_list (option_symbol text, stock_symbol text)",
            "insert into options_list values ('O9', 'S1')",
        ],
    ],
    ids=["index", "bound-query-table"],
)
def test_ddl_prepares_the_route_again(counted, ddl):
    db = options_db()
    fire(db, "S1")
    before = routes(db)
    assert len(before) == 1 and counted["owners"] == 2  # CREATE RULE, then the route
    for statement in ddl:
        db.execute(statement)
    fire(db, "S1", price=3.0)
    after = routes(db)
    assert len(after) == 1 and after[0] is not before[0]
    assert counted["owners"] == 3
    assert [task.unique_key for task in db.unique_manager.pending_tasks("f")][-1] == ("S1",)


def test_an_unchecked_routing_error_is_raised_by_every_firing(counted):
    """A downstream rule reads an upstream task's bound table, which CREATE
    RULE cannot resolve, so its ``unique on`` column is checked by its
    firings: each raises the same RuleError, and none keeps a route."""
    db = Database()
    db.execute("create table out (k int)")
    db.register_function("up", lambda ctx: None)
    db.register_function("down", lambda ctx: None)
    db.execute(
        "create rule down on out when inserted "
        "if select k from up_rows bind as seen then execute down unique on nosuch"
    )
    errors = []
    for attempt in range(2):
        task_rows = TempTable("up_rows", Schema([Column("k", ColumnType.INT)]))
        task_rows.append_values([attempt])
        upstream = Task(lambda _task: None, function_name="up", bound_tables={"up_rows": task_rows})
        with pytest.raises(RuleError) as raised:
            with db.begin(upstream) as txn:
                txn.insert("out", (attempt,))
        errors.append(str(raised.value))
        task_rows.retire()
    assert errors == ["rule 'down': unique column 'nosuch' is in no bound table"] * 2
    assert routes(db) == []
    assert counted["owners"] == 2
