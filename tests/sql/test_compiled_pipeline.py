"""The fused loop nest against the generator pipeline it was written from.

``CompiledSelect.execute`` and a rule query's ``CompiledSelect.firing``
run generated code with inline metering; ``execute_reference`` is the
step-by-step generator pipeline with one ``Database.charge`` call per
charge.  They must agree on rows, column order, bound ``(ptrs, mats)``
rows, every record's pin count, ``meter.ops`` and — bit for bit —
``meter.total``.
"""

from __future__ import annotations

import inspect
import io
import re
import tokenize
from ast import literal_eval
from collections import Counter
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from typing import Iterator

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
from repro.sql import ast, executor, expressions, planner
from repro.sql.parser import parse_statement
from repro.sql.planner import ExecState, plan_select
from repro.storage.schema import ColumnType, Schema
from repro.storage import temptable
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
    """A 1-3 table SELECT over standard, bound, transition and view sources,
    and whether its collect runs with the pseudo columns' values."""
    tables = draw(
        st.lists(
            st.sampled_from(["a", "a", "b", "b", "m", "t", "new", "old", "wide_b"]),
            min_size=1, max_size=3, unique=True,
        )
    )
    where = []
    for left, right in zip(tables, tables[1:]):
        joined = draw(st.sampled_from(["k", "k", "order", "none", "both", "nested"]))
        if joined == "order" and {left, right} == {"new", "old"}:
            where.append("new.execute_order = old.execute_order")
        elif joined == "both" and "b" in (left, right):
            other = left if right == "b" else right
            where.append(f"b.k = {other}.k")
            where.append(f"b.w = {other}.{VALUE_COLUMN[other]}")
        elif joined == "nested":  # a join key of nested arithmetic
            where.append(f"{right}.k = ({left}.k + 1) * 2 - {left}.k - 1")
        elif joined != "none":
            where.append(f"{left}.k = {right}.k")
    first, last = tables[0], tables[-1]
    first_v, last_v = VALUE_COLUMN[first], VALUE_COLUMN[last]
    extras = {
        "param": f"{first}.k = :p",
        "literal": f"{last}.k = 1",  # joined: a probe key that reads no handle
        "param_key": f"{last}.k = :p",
        "missing": f"{first}.{first_v} < {first}.k + :nope",  # raises after a NULL k too
        "missing_key": f"{last}.k = :nope",
        "range": f"{first}.{first_v} >= 0 and {first}.{first_v} < 3",
        "function": f"abs({last}.k) >= 1",
        "cross": f"{first}.k + {last}.k < 5",
        "divide": f"{first}.k / {last}.{last_v} >= 1",  # a zero divisor raises
        "modulo": f"{last}.k % {first}.{first_v} = 0",
        "three_valued": f"({first}.k is null or {last}.k > 1) or not ({first}.{first_v} = 2)",
        "negated": f"-{last}.k < -1",
        "type_mix": "a.s < 1" if "a" in tables else f"{first}.k < 'x'",
        "text": f"{last}.k != 'x) or 1 or (1'",
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
        "nested": f"({first}.k + 1) * 2 - {last}.k as n2",
        "negated": f"-{last}.k as neg",
        "three_valued": f"{first}.k is null or not ({last}.k = 1) as flag",
        "seq": "commit_seq as seq",
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
    pseudo = draw(st.sampled_from([PSEUDO, PSEUDO, PSEUDO, None]))
    return sql + tail, shape != "group", pseudo


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


def fire(plan, db: Database, txn, bind_as, pseudo, namespace):
    """``plan`` run as a rule query inside a firing of ``txn`` (its compiled
    ``CompiledSelect.firing``); the caller's ``holding_every_lock(txn)``
    takes none, as the reference, run without a transaction, takes none."""
    meter, cost = db.metering()
    state = ExecState(db, txn, {}, dict(pseudo or {}), namespace)
    return plan.firing(db, bind_as)(state, meter, cost)


def holding_every_lock(db: Database, txn):
    """``txn``, marked as holding the S-lock of every catalog table."""
    txn.read_locked_tables.update(table.name for table in db.catalog.tables())
    return txn


def outcome(result):
    """A result's column names and rows, or the error it raised, comparable."""
    if isinstance(result, ExecutionError):
        return ("error", str(result))
    return (result.column_names, result.rows())


def raw_rows(table: TempTable) -> list:
    return [(tuple(id(record) for record in ptrs), mats) for ptrs, mats in table.scan_raw()]


def statement_words(node) -> set:
    """What a statement spells that generated source must not: every table,
    column, parameter and pseudo-column name and every text literal (not
    operators, aliases or function names)."""
    words: set = set()

    def walk(value) -> None:
        if isinstance(value, str):
            words.add(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                walk(item)
        elif is_dataclass(value):
            for field in fields(value):
                skipped = field.name in ("op", "alias", "plan_memo")
                if not skipped and not (isinstance(value, ast.FuncCall) and field.name == "name"):
                    walk(getattr(value, field.name))

    walk(node)
    return words


def spelled(source: str) -> set:
    """Every name, string value and comment word of generated ``source``."""
    out = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME:
            out.add(token.string)
        elif token.type == tokenize.STRING:
            out.add(literal_eval(token.string))
        elif token.type == tokenize.COMMENT:
            out.update(re.findall(r"\w+", token.string))
    return out


@contextmanager
def generated(module, prefix: str) -> Iterator[list]:
    """Every ``(source, globals)`` that ``module`` compiles through
    ``generate`` under a filename starting with ``prefix``, in order."""
    captured: list = []
    generate = module.generate

    def capturing(lines, name, filename, names):
        if filename.startswith(prefix):
            captured.append(("\n".join(lines), names))
        return generate(lines, name, filename, names)

    module.generate = capturing
    try:
        yield captured
    finally:
        module.generate = generate


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(worlds(), queries())
def test_compiled_nest_matches_reference(spec, query):
    sql, bindable, pseudo = query
    world = World(spec)
    db, namespace = world.db, world.namespace
    with generated(planner, "<nest") as nests:
        compare_with_reference(world, sql, bindable, pseudo)
    words = statement_words(parse_statement(sql)) | {*PARAMS, "nope", *PSEUDO}
    for source, _names in nests:  # no statement text became source
        assert not words & spelled(source), words & spelled(source)


def compare_with_reference(world: World, sql: str, bindable: bool, pseudo) -> None:
    db, namespace = world.db, world.namespace
    try:
        plan = plan_select(db, parse_statement(sql), namespace)
        args = (db, None, PARAMS, pseudo, namespace)
        got, got_meter = world.metered(lambda: outcome(plan.execute(*args)))
        want, want_meter = world.metered(lambda: outcome(plan.execute_reference(*args)))
        assert outcome(got) == outcome(want) if isinstance(want, ExecutionError) else got == want
        same_meter(got_meter, want_meter)
        if not bindable or ":p" in sql:  # rule queries take no parameters
            return

        before = world.pins()
        txn = holding_every_lock(db, world.txn)
        bound, got_meter = world.metered(lambda: fire(plan, db, txn, "bt", PSEUDO, namespace))
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

    txn = holding_every_lock(db, db.begin())
    error, got = metered(db, lambda: fire(plan, db, txn, "bt", None, None))
    txn.abort()
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


@pytest.mark.parametrize(
    "sql", ["select a.v, b.w from b, a where a.k = b.k", "select v from a where k = 2"]
)
def test_a_plan_run_then_held_across_drop_index_is_stale(db, sql):
    """A plan resolves its index objects once per catalog version, at its
    first run: held across DROP INDEX it refuses its next run, and across a
    re-created index it probes the new one."""
    plan = plan_select(db, db.parse(sql), None)
    rows = plan.execute(db, None).rows()
    assert rows
    db.execute("drop index a_k")
    with pytest.raises(ExecutionError, match="plan is stale"):
        plan.execute(db, None).rows()
    db.execute("create index a_k on a (k)")
    db.execute("insert into a values (2, 21)")
    again = plan.execute(db, None).rows()
    assert len(again) == len(rows) + 1


def loop_line(source: str, text: str) -> tuple[int, int]:
    """(line number, indentation) of the one line of ``source`` holding ``text``."""
    lines = [(at, line) for at, line in enumerate(source.splitlines()) if text in line]
    assert len(lines) == 1, lines
    at, line = lines[0]
    return at, len(line) - len(line.lstrip())


def test_the_comps_condition_probes_old_once_per_new_row(monkeypatch):
    """The hash probe of ``old`` reads only ``new``, so it sits in the loop
    over ``new``, before the ``comps_list`` index loop; ``join_probe`` is
    still charged per ``comps_list`` row."""
    with generated(planner, "<nest") as nests:
        calls, _pin_samples, ops, rows = comps_run(monkeypatch, Scale.tiny())
    ((source, _names),) = nests
    probe, probe_indent = loop_line(source, ".get(")
    lookup, lookup_indent = loop_line(source, ".lookup(")
    assert probe < lookup and probe_indent == lookup_indent
    assert source.splitlines()[lookup].lstrip().startswith("for h")
    assert ops["join_probe"] == rows and calls["join_probe"] == 0


@pytest.mark.parametrize("key, probed, rows", [
    ("t.k", "per t row", 5),
    ("1", "once", 6),
    ("t.k + 1", "where it stands", 2),
    ("abs(t.k)", "where it stands", 5),
], ids=["t.k-True", "1-True", "t.k + 1-False", "abs(t.k)-False"])  # hoisted or not
def test_only_an_inline_probe_key_is_hoisted(db, key, probed, rows):
    """``u`` is hash-joined on a key of ``t`` below the index join into
    ``a``.  A plain column key is probed once per ``t`` row, and a literal
    one once, before the loops.  A key that can raise (arithmetic) or
    charge (a scalar function call, charged per call) is probed per
    ``(t, a)`` row where it stands — the reference's charges either way."""
    db.execute("insert into a values (1, 11)")  # two a rows for t.k = 1
    t = TempTable("t", Schema.of(("k", ColumnType.INT), ("x", ColumnType.INT)))
    u = TempTable("u", Schema.of(("k", ColumnType.INT), ("y", ColumnType.INT)))
    for row in ([1, 0], [2, 0], [-1, 0]):
        t.append_values(row)
    for row in ([1, 5], [2, 6], [1, 7]):
        u.append_values(row)
    namespace = {"t": t, "u": u}
    sql = f"select t.k, a.v, u.y from t, a, u where a.k = t.k and u.k = {key}"
    plan = plan_select(db, parse_statement(sql), namespace)
    args = (db, None, None, PSEUDO, namespace)
    with generated(planner, "<nest") as nests:
        got, got_meter = metered(db, lambda: outcome(plan.execute(*args)))
    want, want_meter = metered(db, lambda: outcome(plan.execute_reference(*args)))
    assert got == want and len(got[1]) == rows
    same_meter(got_meter, want_meter)
    ((source, _names),) = nests
    probe, probe_indent = loop_line(source, ".get(")
    lookup, lookup_indent = loop_line(source, ".lookup(")
    first_loop = next(at for at, line in enumerate(source.splitlines()) if "for h1 in" in line)
    where = {
        "once": probe < first_loop,
        "per t row": first_loop < probe < lookup and probe_indent == lookup_indent,
        "where it stands": probe > lookup,
    }
    assert [name for name, holds in where.items() if holds] == [probed]
    assert got_meter.ops["expr_eval"] == (3 if "abs" in key else 0)


# -------------------------------------------------- per-row work, counted


def comps_run(monkeypatch, scale: Scale):
    """A ``unique`` comps run (the pta_comps_unique shape) with every
    ``Database.charge`` call counted from outside, and every record ever
    made kept: at the start of each recompute — its batch at its peak — the
    pins on all of them, against the pointers every live bound table
    holds."""
    calls: Counter = Counter()
    charge = Database.charge

    def counting(self, op, count=1):
        calls[op] += 1
        charge(self, op, count)

    monkeypatch.setattr(Database, "charge", counting)
    records: list[Record] = []
    made = Record.__init__

    def kept(self, values):
        made(self, values)
        records.append(self)

    monkeypatch.setattr(Record, "__init__", kept)
    db = Database()
    db.metrics.set_keep_records(False)
    _trace, events = populate_trace(db, scale)
    function = install_comp_rule(db, "unique", 1.0)
    recompute = db.functions.get(function)
    samples: list[tuple[int, int]] = []  # (pins on every record, pointers held)

    def sampled(ctx) -> None:
        manager = db.task_manager
        live = [ctx.task, *manager.delay, *manager.ready, *manager.held]
        pointers = sum(
            len(ptrs)
            for task in live
            for table in task.bound_tables.values()
            for ptrs, _mats in table.scan_raw()
        )
        samples.append((sum(record.pins for record in records), pointers))
        recompute(ctx)

    db.register_function(function, sampled, replace=True)
    calls.clear()
    with task_meters() as meters:
        Simulator(db).run(arrivals=trace_tasks(db, events))
    ops: Counter = Counter()
    for meter in meters[id(db)].values():
        ops.update(meter.ops)
    rows = db.metrics.by_class[f"recompute:{function}"].total_bound_rows
    return calls, (samples, records), ops, rows


def test_row_loops_do_not_call_charge(monkeypatch):
    """No ``Database.charge`` call per bound row — the loops meter inline —
    while ``meter.ops`` still counts every occurrence."""
    calls, _pin_samples, ops, rows = comps_run(monkeypatch, Scale.tiny())
    assert rows > 1000
    for op in ("join_probe", "row_output", "bind_row", "user_row", "user_group_row"):
        assert calls[op] == 0, op
        assert ops[op] == rows, op


def test_per_bound_row_work_on_the_comps_workload(monkeypatch):
    """At the benchmark's size: the charge calls left per bound row are the
    per-firing and per-task ones spread over the rows (0.48; the user
    function's ``user_group_row`` rides in its reader, no call), and
    pins are counted inline yet exactly — at every batch's peak the records
    carry one pin per pointer a live bound table holds (a pin dropped or
    doubled anywhere shows here), and at quiescence none is left pinned."""
    calls, (samples, records), _ops, rows = comps_run(monkeypatch, Scale.small())
    assert sum(calls.values()) / rows <= 0.5
    assert len(samples) > 100
    assert all(pins == pointers for pins, pointers in samples)
    assert max(pointers for _pins, pointers in samples) >= 3 * 100  # three per bound row
    assert not any(record.pins for record in records)


def sql_smoke() -> None:
    """One repetition of the ``sql_views_mixed`` benchmark at its smoke size."""
    from benchmarks.e2e.workloads import WORKLOADS

    workload = WORKLOADS["sql_views_mixed"]
    rep = workload.setup(workload.inputs(0, True), None)
    workload.run(rep)
    assert workload.verify(rep) == 0
    workload.teardown(rep)


def test_the_sql_smoke_calls_a_getter_only_where_it_can_charge(monkeypatch):
    """In the ``sql_views_mixed`` smoke every ``g<n>`` global of every loop
    nest wraps an expression that can charge — a function call or a
    subquery — and everything else is written in line; no nest and no
    generated statement spells a name or a text value of its statement."""
    compiled: dict = {}  # getter -> the expression it was compiled from
    compile_expr = expressions.compile_expr

    def recording(expr, ctx):
        getter = compile_expr(expr, ctx)
        compiled[getter] = expr
        return getter

    for module in (expressions, planner, executor):
        monkeypatch.setattr(module, "compile_expr", recording)
    words: set = set()  # of every statement planned or prepared
    for module, name in ((planner, "plan_select"), (executor, "plan_select"),
                         (executor, "_prepare_write")):
        original = getattr(module, name)

        def noting(db, stmt, namespace, original=original):
            words.update(statement_words(stmt))
            return original(db, stmt, namespace)

        monkeypatch.setattr(module, name, noting)
    with generated(planner, "<nest") as nests, generated(executor, "<dml") as writes:
        sql_smoke()
    assert len(nests) > 20 and len(writes) == 2 and {"shares", "commit_seq"} <= words
    for source, names in nests:
        for name in names:
            if re.fullmatch(r"g\d+", name):
                assert ast.calls_out(compiled[names[name]]), (name, source)
    for source, _names in nests + writes:
        assert not words & spelled(source), (words & spelled(source), source)


def test_the_sql_smoke_batches_bound_tables_by_identity(monkeypatch):
    """A view's stock-side and position-side rules bind tables of one shape
    into one pending task.  Bind specs of one value share their ``Schema``
    and ``StaticMap`` objects, so every ``move_from`` that absorbs a firing
    is an identity check, never the by-value comparison."""
    counts: Counter = Counter()
    move_from, check = TempTable.move_from, TempTable._check_identical

    def moving(self, other):
        counts["moves"] += 1
        return move_from(self, other)

    def checking(self, other):
        counts["by_value"] += other.schema is not self.schema or other.static_map is not self.static_map
        return check(self, other)

    monkeypatch.setattr(TempTable, "move_from", moving)
    monkeypatch.setattr(TempTable, "_check_identical", checking)
    sql_smoke()
    assert counts["moves"] > 1000 and counts["by_value"] == 0


def test_the_one_exec_is_generate():
    assert "exec(compile(" in inspect.getsource(temptable.generate), "the one exec is not in generate()"
    assert planner.generate is temptable.generate, "the planner compiles its nests elsewhere"
