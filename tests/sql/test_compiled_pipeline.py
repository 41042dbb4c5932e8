"""The fused loop nest against the generator pipeline it was written from.

``CompiledSelect.execute`` / ``.bind`` run generated code with inline
metering; ``execute_reference`` is the step-by-step generator pipeline with
one ``Database.charge`` call per charge.  They must agree on rows, column
order, bound ``(ptrs, mats)`` rows, every record's pin count, ``meter.ops``
and — bit for bit — ``meter.total``.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.transition import TRANSITION_NAMES, TransitionShape
from repro.database import Database
from repro.errors import ExecutionError
from repro.pta.rules import install_comp_rule
from repro.pta.tables import Scale
from repro.pta.workload import populate_trace, trace_tasks
from repro.sim.clock import Meter
from repro.sim.simulator import Simulator
from repro.sql import executor
from repro.sql.parser import parse_statement
from repro.sql.planner import plan_select
from repro.storage.schema import ColumnType, Schema
from repro.storage.temptable import TempTable
from repro.storage.tuples import Record
from tests.integration.test_golden_virtual import task_meters

PSEUDO = {"commit_time": 12.5, "commit_seq": 7}
PARAMS = {"p": 1}

#: Columns each source offers beyond the join key ``k``.
VALUE_COLUMN = {"a": "v", "b": "w", "m": "z", "t": "x", "new": "v", "old": "v", "wide_b": "w"}

keys = st.sampled_from([None, 1, 1, 2, 2, 3])
small = st.integers(min_value=-1, max_value=3)


@st.composite
def worlds(draw):
    """Table contents, index choices and which rows one transaction updates."""
    return {
        "a": draw(st.lists(st.tuples(keys, small, st.sampled_from(["x", "y", None])), max_size=6)),
        "b": draw(st.lists(st.tuples(keys, small), max_size=6)),
        "t": draw(st.lists(st.tuples(keys, small), max_size=4)),
        "a_index": draw(st.sampled_from([None, "hash_k", "hash_k", "rbtree_v", "rbtree_v"])),
        "b_index": draw(st.sampled_from([None, "hash_k", "hash_k", "hash_kw"])),
        "updates": draw(st.lists(st.integers(min_value=0, max_value=5), max_size=3)),
    }


@st.composite
def queries(draw):
    """A 1-3 table SELECT over standard, bound, transition and view sources."""
    tables = draw(
        st.lists(
            st.sampled_from(["a", "a", "b", "b", "m", "t", "new", "old", "wide_b"]),
            min_size=1, max_size=3, unique=True,
        )
    )
    where = []
    for left, right in zip(tables, tables[1:]):
        joined = draw(st.sampled_from(["k", "k", "order", "none", "both"]))
        if joined == "order" and {left, right} == {"new", "old"}:
            where.append("new.execute_order = old.execute_order")
        elif joined == "both" and "b" in (left, right):
            other = left if right == "b" else right
            where.append(f"b.k = {other}.k")
            where.append(f"b.w = {other}.{VALUE_COLUMN[other]}")
        elif joined != "none":
            where.append(f"{left}.k = {right}.k")
    first, last = tables[0], tables[-1]
    extras = {
        "param": f"{first}.k = :p",
        "literal": f"{last}.k = 1",
        "range": f"{first}.{VALUE_COLUMN[first]} >= 0 and {first}.{VALUE_COLUMN[first]} < 3",
        "function": f"abs({last}.k) >= 1",
        "cross": f"{first}.k + {last}.k < 5",
        "null": f"{last}.k is not null",
        "subquery": f"{first}.k in (select k from b)",
        "pseudo": "commit_seq > 3",
    }
    for name in draw(st.lists(st.sampled_from(sorted(extras)), max_size=2, unique=True)):
        where.append(extras[name])
    items = {
        "key": f"{first}.k",
        "value": f"{last}.{VALUE_COLUMN[last]} as val",
        "same_record": f"{first}.{VALUE_COLUMN[first]} as again",  # a second column of one pointer slot
        "star": f"{last}.*" if len(tables) == 1 else f"{last}.k as k2",
        "sum": f"{first}.k + 1 as e",
        "pseudo": "commit_time",
        "param": ":p as q",
        "function": f"abs({last}.k) as f",
        "literal": "7 as seven",
    }
    chosen = draw(st.lists(st.sampled_from(sorted(items)), min_size=1, max_size=4, unique=True))
    if "star" in chosen and len(tables) == 1:
        chosen = ["star"]  # beside a.*, any other column of a is a duplicate name
    shape = draw(st.sampled_from(["plain"] * 4 + ["order", "limit", "distinct", "group"]))
    select_list = ", ".join(items[name] for name in chosen)
    tail = ""
    if shape == "group":
        select_list = f"{first}.k, count(*) as n, sum({last}.{VALUE_COLUMN[last]}) as total"
        tail = f" group by {first}.k"
    elif shape == "order":
        tail = f" order by {first}.k desc"
    elif shape == "limit":
        tail = f" order by {first}.k limit 2"
    sql = f"select {'distinct ' if shape == 'distinct' else ''}{select_list} from {', '.join(tables)}"
    if where:
        sql += " where " + " and ".join(where)
    return sql + tail, shape != "group"


class World:
    """A database, a namespace of temporary tables, and every record in play."""

    def __init__(self, spec: dict) -> None:
        db = self.db = Database()
        db.execute("create table a (k int, v int, s text)")
        db.execute("create table b (k int, w int)")
        db.execute("create view wide_b as select k, w from b where w >= 0")
        if spec["a_index"] == "hash_k":
            db.execute("create index a_k on a (k)")
        elif spec["a_index"] == "rbtree_v":
            db.execute("create index a_v on a (v) using rbtree")
        if spec["b_index"] == "hash_k":
            db.execute("create index b_k on b (k)")
        elif spec["b_index"] == "hash_kw":
            db.execute("create index b_kw on b (k, w)")
        a, b = db.catalog.table("a"), db.catalog.table("b")
        for row in spec["a"]:
            a.insert(list(row))
        for row in spec["b"]:
            b.insert(list(row))
        # m: a pointer-backed bound table (two pointer slots, one inline value).
        self.m = db.query(
            "select a.k as k, b.w as w, a.v + 1 as z from a, b where a.k = b.k"
        ).bind("m", db)
        t = TempTable("t", Schema.of(("k", ColumnType.INT), ("x", ColumnType.INT)))
        for row in spec["t"]:
            t.append_values(row)
        # new / old: real transition tables of one updating transaction.
        self.txn = db.begin()
        live = list(a.scan())
        for position in spec["updates"]:
            if position < len(live):
                record = live[position]
                values = list(record.values)
                values[1] = (values[1] or 0) + 1
                live[position] = self.txn.update_record(a, record, values)
        self.transitions = TransitionShape(a).build(db, self.txn.log.for_table("a"), TRANSITION_NAMES)
        self.namespace = {**self.transitions, "m": self.m, "t": t}
        self.records: list[Record] = [*a.scan(), *b.scan()]
        for table in self.namespace.values():
            self.records.extend(record for ptrs, _mats in table.scan_raw() for record in ptrs)

    def pins(self) -> list[int]:
        return [record.pins for record in self.records]

    def metered(self, run):
        return metered(self.db, run)

    def close(self) -> None:
        for table in self.transitions.values():
            table.retire()
        self.m.retire()
        self.txn.abort()


def metered(db: Database, run):
    """``run()`` under a fresh meter that starts off zero, so every addition
    rounds; returns (result — or the ExecutionError raised —, meter)."""
    meter = Meter()
    meter.total = 0.1234567
    db.clock.activate(meter, 0.0)
    try:
        result = run()
    except ExecutionError as exc:
        result = exc
    finally:
        db.clock.deactivate()
    return result, meter


def same_meter(got: Meter, want: Meter) -> None:
    assert got.ops == want.ops
    assert got.total.hex() == want.total.hex()


def outcome(result):
    if isinstance(result, ExecutionError):
        return ("error", str(result))
    return (result.column_names, result.rows())


def raw_rows(table: TempTable) -> list:
    return [(tuple(id(record) for record in ptrs), mats) for ptrs, mats in table.scan_raw()]


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(worlds(), queries())
def test_compiled_nest_matches_reference(spec, query):
    sql, bindable = query
    world = World(spec)
    db, namespace = world.db, world.namespace
    try:
        plan = plan_select(db, parse_statement(sql), namespace)
        args = (db, None, PARAMS, PSEUDO, namespace)
        got, got_meter = world.metered(lambda: outcome(plan.execute(*args)))
        want, want_meter = world.metered(lambda: outcome(plan.execute_reference(*args)))
        assert got == want
        same_meter(got_meter, want_meter)
        if not bindable or ":p" in sql:  # rule queries take no parameters
            return

        before = world.pins()
        bound, got_meter = world.metered(
            lambda: plan.bind("bt", plan.state(db, None, None, PSEUDO, namespace))
        )
        reference, want_meter = world.metered(
            lambda: plan.execute_reference(db, None, None, PSEUDO, namespace).bind("bt", db)
        )
        same_meter(got_meter, want_meter)
        if isinstance(bound, ExecutionError):
            assert str(bound) == str(reference)
        else:
            assert bound.schema == reference.schema
            assert bound.static_map.signature() == reference.static_map.signature()
            assert raw_rows(bound) == raw_rows(reference)
            held = world.pins()  # by both tables
            bound.retire()
            by_reference = world.pins()
            reference.retire()
            # Each table held exactly the same pins on exactly the same records.
            assert [h - r for h, r in zip(held, by_reference)] == [
                r - b for r, b in zip(by_reference, before)
            ]
        assert world.pins() == before
    finally:
        world.close()


# ------------------------------------------------------------ fixed shapes


@pytest.fixture
def db():
    database = Database()
    database.execute_script(
        """
        create table a (k int, v int);
        create index a_k on a (k);
        create table b (k int, w int);
        insert into a values (1, 10);
        insert into a values (2, 20);
        insert into a values (3, 30);
        insert into b values (1, 100);
        insert into b values (2, 200);
        insert into b values (3, 300);
        """
    )
    return database


def test_view_source_and_hash_build_order(db):
    """A derived (view) source runs its subplan where the generator would,
    and hash builds run last step first."""
    db.execute("create view big_b as select k, w from b where w > 100")
    stmt = db.parse("select a.v, big_b.w, c.w as cw from a, big_b, b c where a.k = big_b.k and c.k = a.k")
    plan = plan_select(db, stmt, None)
    got, got_meter = metered(db, lambda: plan.execute(db, None).rows())
    want, want_meter = metered(db, lambda: plan.execute_reference(db, None).rows())
    assert got == want and sorted(got) == [[20, 200, 200], [30, 300, 300]]
    same_meter(got_meter, want_meter)


def test_function_raising_mid_loop_leaves_everything_balanced(db):
    """``meter.ops`` is flushed, pins are balanced, the half-built table is
    retired — and the meter stands where the reference's stands."""

    def boom(value):
        if value == 20:
            raise ValueError("boom")
        return value

    db.register_scalar("boom", boom)
    stmt = db.parse("select a.k, b.w from a, b where a.k = b.k and boom(a.v) > 0")
    plan = plan_select(db, stmt, None)
    records = [*db.catalog.table("a").scan(), *db.catalog.table("b").scan()]

    error, got = metered(db, lambda: plan.bind("bt", plan.state(db, None, None, None, None)))
    reference_error, want = metered(db, lambda: plan.execute_reference(db, None).bind("bt", db))
    assert "boom" in str(error) and str(error) == str(reference_error)
    same_meter(got, want)
    # b drives, a is probed by index: the second probe's residual raised, after
    # one row was bound.  The counts reached meter.ops through the finally.
    assert got.ops == {"cursor_open": 1, "row_scan": 2, "index_probe": 2, "cursor_fetch": 2,
                       "expr_eval": 4}
    assert all(record.pins == 0 for record in records)


def plan_builds(monkeypatch) -> list:
    """Every plan the executor builds from here on (each statement's memo
    and each prepared rule query call its ``plan_select``), in order."""
    builds: list = []
    build = executor.plan_select

    def counted(db, select, namespace):
        builds.append(build(db, select, namespace))
        return builds[-1]

    monkeypatch.setattr(executor, "plan_select", counted)
    return builds


def test_dropped_index_replans_same_rows_other_charges(db, monkeypatch):
    sql = "select a.v, b.w from b, a where a.k = b.k"
    first, first_meter = metered(db, lambda: db.query(sql).rows())
    stale = plan_select(db, db.parse(sql), None)
    builds = plan_builds(monkeypatch)
    db.execute("drop index a_k")
    second, second_meter = metered(db, lambda: db.query(sql).rows())
    assert sorted(first) == sorted(second) == [[10, 100], [20, 200], [30, 300]]
    assert len(builds) == 1  # the DDL moved Catalog.version, which stamps the memo
    assert first_meter.ops["index_probe"] == 3 and "join_probe" not in first_meter.ops
    assert second_meter.ops["join_probe"] == 3 and "index_probe" not in second_meter.ops
    # A plan object held across the DDL is refused, not silently degraded.
    for run in (stale.execute, stale.execute_reference):
        with pytest.raises(ExecutionError, match="plan is stale"):
            run(db, None).rows()


# -------------------------------------------------- per-row work, counted


def comps_run(monkeypatch, scale: Scale):
    """A ``unique`` comps run (the pta_comps_unique shape) with every
    ``Database.charge`` call and every pin / unpin counted from outside."""
    calls: Counter = Counter()
    pins: Counter = Counter()
    charge = Database.charge

    def counting(self, op, count=1):
        calls[op] += 1
        charge(self, op, count)

    monkeypatch.setattr(Database, "charge", counting)
    for name in ("pin", "unpin"):
        method = getattr(Record, name)
        monkeypatch.setattr(
            Record, name, lambda self, _m=method, _n=name: (pins.update([_n]), _m(self))[1]
        )
    db = Database()
    db.metrics.set_keep_records(False)
    _trace, events = populate_trace(db, scale)
    function = install_comp_rule(db, "unique", 1.0)
    calls.clear()
    with task_meters() as meters:
        Simulator(db).run(arrivals=trace_tasks(db, events))
    ops: Counter = Counter()
    for meter in meters[id(db)].values():
        ops.update(meter.ops)
    return calls, pins, ops, db.metrics.by_class[f"recompute:{function}"].total_bound_rows


def test_row_loops_do_not_call_charge(monkeypatch):
    """No ``Database.charge`` call per bound row — the loops meter inline —
    while ``meter.ops`` still counts every occurrence."""
    calls, _pins, ops, rows = comps_run(monkeypatch, Scale.tiny())
    assert rows > 1000
    for op in ("join_probe", "row_output", "bind_row", "user_row"):
        assert calls[op] == 0, op
        assert ops[op] == rows, op


def test_per_bound_row_work_on_the_comps_workload(monkeypatch):
    """At the benchmark's size: the charge calls left per bound row are the
    user function's own plus the per-firing ones spread over ~24 rows (the
    parent made 7.6), and each of a row's three pointers is pinned once and
    unpinned once (the parent: twice each, 12 per row) plus transition rows."""
    calls, pins, _ops, rows = comps_run(monkeypatch, Scale.small())
    assert sum(calls.values()) / rows <= 3.0
    assert pins["pin"] == pins["unpin"]
    assert (pins["pin"] + pins["unpin"]) / rows <= 7.0
