"""Planning and execution of SELECT statements.

A compiled plan is a left-deep pipeline of steps over an *environment*: a
list ``[state, h1, h2, ..., hn]`` with one handle per planned table.  A
handle is a :class:`~repro.storage.tuples.Record` for standard tables, a raw
``(ptrs, mats)`` row for temporary tables, or a plain value list for derived
(view) sources.  Expressions are compiled once per plan into closures
indexed by environment position and, when they cannot charge, into source
forms over the nest's handles.  The pipeline itself runs as one *fused
loop nest* per plan: each step writes its loop into generated source
(``emit``), compiled once and cached with the plan, with two sinks — collect
environments, or append ``(ptrs, mats)`` rows straight into a bound table —
and every charge made inline, in the order the generator pipeline (each
step's ``start`` / ``run``, kept as the tests' oracle) makes it.

Join order: temporary tables (transition and bound tables are small) come
first, then tables reachable through equi-join predicates — via an index
probe when the standard table has a matching index, otherwise a hash join —
and finally any unconnected tables as nested-loop cross products (these
appear when rule semantics call for a product of bound tables, Appendix A).

Projection preserves provenance: an output column that is a direct column
reference keeps a pointer to the contributing record, so a result bound as
a temporary table stores record pointers instead of copied values (paper
section 6.1).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple, Optional, Sequence

from repro.errors import ExecutionError, PlanError
from repro.sql import ast
from repro.sql.expressions import Getter, Inline, compile_expr, truthy
from repro.storage.schema import Column, ColumnType, Schema
from repro.storage.temptable import ColumnSource, StaticMap, TempTable, generate

# --------------------------------------------------------------------------
# Source descriptions
# --------------------------------------------------------------------------

STD = "std"
TMP = "tmp"
DERIVED = "derived"


@dataclass
class SourceDesc:
    """One FROM-clause table as seen by the planner."""

    name: str  # catalog / namespace name
    binding: str  # alias used in the query
    kind: str  # STD / TMP / DERIVED
    schema: Schema
    map_sources: Optional[tuple[ColumnSource, ...]] = None  # TMP only
    subplan: Optional["CompiledSelect"] = None  # DERIVED only
    from_pos: int = 0  # position in the original FROM list
    env_pos: int = 0  # position in the environment (1-based; 0 is state)


class ExecState:
    """Per-execution state threaded through the environment at slot 0."""

    __slots__ = ("db", "txn", "params", "pseudo", "instances", "namespace", "subqueries")

    def __init__(
        self,
        db: Any,
        txn: Any,
        params: dict[str, Any],
        pseudo: dict[str, Any],
        namespace: Optional[dict[str, Any]] = None,
    ):
        self.db = db
        self.txn = txn
        self.params = params
        self.pseudo = pseudo
        self.namespace = namespace
        self.instances: list[Any] = []  # one per planned source, filled by the caller
        self.subqueries: dict[int, list] = {}  # per-execution subquery cache


# --------------------------------------------------------------------------
# Output columns
# --------------------------------------------------------------------------


@dataclass
class OutputColumn:
    """One column of the result: how to read its value and, when possible,
    which record/offset provides it (for pointer-based binding)."""

    name: str
    type: ColumnType
    value: Getter  # env -> value
    ptr_record: Optional[Getter] = None  # env -> Record (None => materialize)
    ptr_offset: int = 0
    ptr_key: Optional[tuple] = None  # identity of the pointer slot


# --------------------------------------------------------------------------
# The compiled plan
# --------------------------------------------------------------------------


class CompiledSelect:
    """An executable SELECT plan (kept by its statement's memo per
    namespace shape, or by a rule's prepared query)."""

    def __init__(
        self,
        select: ast.Select,
        sources: list[SourceDesc],
        steps: list["_Step"],
        output: "_OutputSpec",
        inline: Inline,
    ) -> None:
        self.select = select
        self.sources = sources  # planned order
        self.steps = steps
        self.output = output
        self.inline = inline  # the getters' sources over the nest's handles
        #: (environment position, columns, method) of each index the nest probes.
        self.probes = [(step.desc.env_pos, *step.index) for step in steps if step.index]
        self._indexes: tuple = (None, -1, [])  # (catalog, version, index objects)
        self._nest: Optional[Callable] = None  # the compiled collecting loop nest

    def state(self, db: Any, txn: Any, params: Any, pseudo: Any, namespace: Any) -> ExecState:
        """One execution's state, each source looked up by name in plan order
        (``namespace``, else the catalog, S-locking a standard table); a rule
        query's firing function resolves its own (:meth:`firing`)."""
        state = ExecState(db, txn, dict(params or {}), dict(pseudo or {}), namespace)
        state.instances = [
            _fetch_instance(desc, db, txn, namespace, state) for desc in self.sources
        ]
        return state

    def indexes(self, catalog: Any, instances: list) -> list:
        """The index objects the nest probes, resolved once per catalog
        version.  Index DDL moves the version, so a plan reached through a
        statement's memo or a prepared firing is never stale here; a plan
        object held across the DDL resolves again, and raises if its index
        is gone."""
        stamp = self._indexes
        if stamp[0] is not catalog or stamp[1] != catalog.version:
            resolved = []
            for pos, columns, method in self.probes:
                table = instances[pos - 1]
                index = table.index_on(columns)
                if index is None or not hasattr(index, method):
                    stale = f"index on {table.name!r} {columns} changed; plan is stale"
                    raise ExecutionError(stale)
                resolved.append(index)
            stamp = self._indexes = (catalog, catalog.version, resolved)
        return stamp[2]

    def _run(self, state: ExecState, emit: Callable) -> None:
        """One execution of the collecting nest: the active meter and the
        cost table are read now, not when the nest was compiled."""
        nest = self._nest
        if nest is None:
            nest = self._nest = _build_nest(self, "collect")
        db, instances = state.db, state.instances
        meter, cost = db.metering()
        nest(state, instances, self.indexes(db.catalog, instances), meter, cost, emit)

    def execute(
        self,
        db: Any,
        txn: Any,
        params: Optional[dict[str, Any]] = None,
        pseudo: Optional[dict[str, Any]] = None,
        namespace: Optional[dict[str, Any]] = None,
    ) -> "SelectResult":
        return self.collect(self.state(db, txn, params, pseudo, namespace))

    def collect(self, state: ExecState) -> "SelectResult":
        """Run the plan over ``state``'s instances into a result set."""
        emit, finish = self.output.collector(state)
        self._run(state, emit)
        return finish()

    def firing(self, db: Any, bind_as: Optional[str]) -> Callable:
        """This plan as a rule query runs it inside a firing, compiled now:
        ``fire(state, meter, cost)`` returns the query's bound table
        ``bind_as`` — or its result set, without ``bind as``.

        The function is the plan's loop nest with the firing written round
        it (``_build_nest``, sink ``fire``): it S-locks each standard table
        in plan order that ``state.txn`` does not hold yet, reads each
        transition or bound table from ``state.namespace`` by name, and
        holds the catalog tables, view subplans and index objects resolved
        here, so the caller drops it when ``Catalog.version`` moves.  When
        the output is the join's rows as they come, the nest appends them to
        the bound table itself — each row is touched once — and charges
        ``row_output`` and ``bind_row`` after its loops, in the order
        ``collect`` + ``SelectResult.bind`` make them; any other output
        collects, finishes and binds through ``SelectResult.bind``."""
        return _build_nest(self, "fire", db, bind_as)

    def execute_reference(
        self,
        db: Any,
        txn: Any,
        params: Optional[dict[str, Any]] = None,
        pseudo: Optional[dict[str, Any]] = None,
        namespace: Optional[dict[str, Any]] = None,
    ) -> "SelectResult":
        """The generator pipeline the fused nest was written from, one
        ``Database.charge`` call per charge.  Nothing in the library calls
        it; tests hold ``execute`` and ``bind`` to it row for row and bit
        for bit (tests/sql/test_compiled_pipeline.py)."""
        state = self.state(db, txn, params, pseudo, namespace)
        emit, finish = self.output.collector(state)
        envs = self.steps[0].start(state)
        for step in self.steps[1:]:
            envs = step.run(envs, state)
        for env in envs:
            emit(env)
        return finish()


class _Nest:
    """The source of one plan's loop nest while its steps write it."""

    def __init__(self, inline: Inline, slots: int) -> None:
        self.inline = inline.text
        self.raising = inline.raising
        self.slots = slots  # handles per environment
        self.body: list[str] = []
        self.tails: list[Callable[[], None]] = []  # written after the innermost body
        self.names: dict[str, Any] = dict(inline.names)  # the nest's globals
        self.counters: list[tuple[str, ...]] = []  # ops counted by n0, n1, ...
        #: Per bound handle h<pos>: where, and at which depth, its loop's
        #: body ends so far — the place for a line that reads no later handle
        #: (h0: before the loops, once the hash builds are written).
        self.ends: dict[int, list[int]] = {}

    def line(self, depth: int, text: str) -> None:
        self.body.append("    " * depth + text)

    def hoist(self, level: int, text: str) -> None:
        """Write ``text`` at the end of the body of h<level>'s loop so far."""
        at, depth = self.ends[level]
        self.body.insert(at, "    " * depth + text)
        for end in self.ends.values():
            if end[0] >= at:
                end[0] += 1

    def charge(self, depth: int, *ops: str) -> None:
        """Charge each of ``ops`` once, here, in this order."""
        for op in ops:
            self.line(depth, f"meter.total += c_{op}")
        self.line(depth, f"n{len(self.counters)} += 1")
        self.counters.append(ops)

    def env(self, level: int) -> str:
        """The environment list once ``level`` handles are bound."""
        handles = [f"h{p}" if p <= level else "None" for p in range(1, self.slots + 1)]
        return "[" + ", ".join(["state", *handles]) + "]"

    def value(self, getter: Getter, level: int) -> str:
        """Source evaluating ``getter``: its source form where it has one
        (everything that cannot charge: columns, literals, parameters,
        pseudo columns and the operators over them), else a call of the
        compiled closure on a fresh environment list."""
        source = self.inline.get(getter)
        if source is None:
            name = f"g{len(self.names)}"
            self.names[name] = getter
            source = f"{name}({self.env(level)})"
        return source

    def residual(self, depth: int, getter: Optional[Getter], level: int, *ops: str) -> None:
        """Skip the row unless ``getter`` holds (if there is one), charging ``ops`` first."""
        if getter is not None:
            if ops:
                self.charge(depth, *ops)
            self.line(depth, f"if not {self.value(getter, level)}: continue")

    def loop(self, depth: int, pos: int, rows: str, *ops: str) -> None:
        """Open ``for h<pos> in <rows>:``, charging ``ops`` per handle."""
        self.line(depth, f"for h{pos} in {rows}:")
        if ops:
            self.charge(depth + 1, *ops)

    def scan(self, depth: int, desc: SourceDesc) -> Callable[[], None]:
        """Open a loop over every handle of ``desc`` with ``_source_rows``'s
        charges; returns what writes the loop's tail."""
        pos = desc.env_pos
        if desc.kind == STD:
            self.charge(depth, "cursor_open")
            self.loop(depth, pos, f"i{pos}.scan()", "row_scan")
            return lambda: self.charge(depth, "cursor_close")
        rows = f"i{pos}.scan_raw()"
        if desc.kind == DERIVED:
            rows = f"i{pos}.execute(state.db, state.txn, state.params, state.pseudo).rows()"
        self.loop(depth, pos, rows, "row_scan")
        return lambda: None

    def gather(self, desc: SourceDesc, statement: str) -> None:
        """A build loop: run ``statement`` on every handle of ``desc``."""
        close = self.scan(2, desc)
        self.line(3, statement)
        close()


def _tuple_source(parts: Sequence[str]) -> str:
    return "(" + "".join(part + ", " for part in parts) + ")"


def _build_nest(
    plan: CompiledSelect, sink: str, db: Any = None, bind_as: Optional[str] = None
) -> Callable:
    """Write, compile and return ``plan``'s fused loop nest for one sink:
    ``collect`` is ``nest(state, instances, indexes, meter, cost, emit)``
    and calls ``emit(env)`` per joined row; ``fire`` is a rule query's
    ``fire(state, meter, cost)`` (:meth:`CompiledSelect.firing`), whose
    prologue takes the S-locks and reads the instances itself and which, for
    a streaming ``bind as``, pins a row's records and appends ``(ptrs,
    mats)`` to the bound table it returns, then charges ``row_output`` and
    ``bind_row`` once per row bound.

    Charges are float additions on ``meter.total`` in exactly the generator
    pipeline's order — generators start last step first, so hash builds run
    in reverse step order before the driving scan — with occurrences counted
    in local ints that reach ``meter.ops`` in a ``finally``.  Each index is
    the object ``indexes`` holds (``CompiledSelect.indexes``), probed per
    call through it (``x2.lookup(key)``), never through a method captured
    at compile time.  What charges nothing, raises nothing and reads one
    handle — an inline hash-probe key, a bound row's pointer — is read once
    per row of that handle's loop (``_Nest.hoist``), and a probe key that
    reads no handle once before the loops; no charge moves."""
    nest = _Nest(plan.inline, len(plan.sources))
    for step in reversed(plan.steps):
        step.prelude(nest)
    nest.ends[0] = [len(nest.body), 2]
    depth = 2
    for step in plan.steps:
        depth = step.emit(nest, depth)
        nest.ends[step.desc.env_pos] = [len(nest.body), depth]
    fire = sink == "fire"
    bound = fire and bind_as is not None and plan.output.streams
    if not bound:
        nest.line(depth, f"emit({nest.env(nest.slots)})")
    else:
        spec = plan.output.bind_spec()
        records = []  # per pointer slot: a standard handle, or a bound row's pointer
        for at, (_kind, pos, *slot) in enumerate(spec.ptr_keys):
            records.append(f"p{at}" if slot else f"h{pos}")
            if slot:
                nest.hoist(pos, f"p{at} = h{pos}[0][{slot[0]}]")
        mats = [nest.value(column.value, nest.slots) for column in spec.mat_columns]
        nest.line(depth, f"row = ({_tuple_source(records)}, {_tuple_source(mats)})")
        for record in records:
            nest.line(depth, f"{record}.pins += 1")
        nest.line(depth, "emit(row)")
        nest.line(depth, "n += 1")
    for tail in reversed(nest.tails):
        tail()
    ops = dict.fromkeys(op for counter in nest.counters for op in counter)
    if bound:
        ops.update(dict.fromkeys(("row_output", "bind_row")))
    if fire:
        lines = ["def nest(state, meter, cost):", *_firing_prologue(plan, db, nest.names)]
        nest.names["BIND"] = bind_as
        if bound:
            # One bind spec fixes the table's shape and the rows' arity, so
            # no ``row_sink`` check per firing.
            nest.names.update(SCHEMA=spec.schema, MAP=spec.static_map, TempTable=TempTable)
            lines.append("    table, emit = TempTable.shaped(BIND, SCHEMA, MAP)")
            result = "table"
        else:
            nest.names["OUTPUT"] = plan.output
            lines.append("    emit, finish = OUTPUT.collector(state)")
            result = "finish()" if bind_as is None else "finish().bind(BIND, state.db)"
    else:
        lines = ["def nest(state, instances, indexes, meter, cost, emit):"]
        lines += [f"    i{p + 1} = instances[{p}]" for p in range(nest.slots)]
        lines += [f"    x{pos} = indexes[{at}]" for at, (pos, *_index) in enumerate(plan.probes)]
    lines += [f"    {read} = state.{read}" for read in sorted(plan.inline.reads)]
    lines += [f"    c_{op} = cost[{op!r}]" for op in ops]
    lines += [f"    n{k} = 0" for k in range(len(nest.counters))]
    if bound:
        lines.append("    n = 0")
    lines += ["    try:", *nest.body]
    if bound:  # a half-built table gives its pins back
        lines += ["    except BaseException:", "        table.retire()", "        raise"]
    lines += ["    finally:", "        ops = meter.ops"]
    for k, counter in enumerate(nest.counters):
        lines += [f"        if n{k}:"] + [f"            ops[{op!r}] += n{k}" for op in counter]
    if bound:  # n additions of each, op after op, as n charge calls would make
        lines += ["    if n:", "        total = meter.total"]
        for op in ("row_output", "bind_row"):
            lines += ["        for _ in range(n):", f"            total += c_{op}"]
        lines += ["        meter.total = total"]
        lines += [f"        ops[{op!r}] += n" for op in ("row_output", "bind_row")]
    if fire:
        lines.append(f"    return {result}")
    return generate(lines, "nest", f"<nest {sink}>", nest.names)


def _firing_prologue(plan: CompiledSelect, db: Any, names: dict[str, Any]) -> list[str]:
    """A rule query's instances and S-locks, read where a firing runs it:
    each standard table's S-lock in plan order, unless ``state.txn`` holds
    it (``Transaction.lock_table_shared`` takes and charges it); then each
    transition or bound table out of ``state.namespace`` by name, and the
    catalog tables, view subplans and index objects resolved now, as
    globals."""
    locks = dict.fromkeys(desc.name for desc in plan.sources if desc.kind == STD)
    lines = ["    txn = state.txn", "    locked = txn.read_locked_tables"] if locks else []
    for at, name in enumerate(locks):
        names[f"LOCK{at}"] = name
        lines += [f"    if LOCK{at} not in locked:", f"        txn.lock_table_shared(LOCK{at})"]
    if any(desc.kind == TMP for desc in plan.sources):
        lines.append("    namespace = state.namespace")
    recipe = []  # per source: the object it reads, None for a namespace slot
    for pos, desc in enumerate(plan.sources, start=1):
        if desc.kind == TMP:
            names[f"NAME{pos}"] = desc.name
            lines.append(f"    i{pos} = namespace[NAME{pos}]")
            recipe.append(None)
            continue
        names[f"SOURCE{pos}"] = instance = desc.subplan or db.catalog.table(desc.name)
        lines.append(f"    i{pos} = SOURCE{pos}")
        recipe.append(instance)
    for (pos, *_index), index in zip(plan.probes, plan.indexes(db.catalog, recipe)):
        names[f"INDEX{pos}"] = index
        lines.append(f"    x{pos} = INDEX{pos}")
    return lines


def _fetch_instance(
    desc: SourceDesc, db: Any, txn: Any, namespace: Optional[dict[str, Any]], state: ExecState
) -> Any:
    if desc.kind == DERIVED:
        return desc.subplan
    instance = None
    if namespace and desc.name in namespace:
        instance = namespace[desc.name]
    elif db.catalog.has_table(desc.name):
        instance = db.catalog.table(desc.name)
    if instance is None:
        raise ExecutionError(f"table {desc.name!r} disappeared between planning and execution")
    if desc.kind == STD:
        if instance.schema is not desc.schema and instance.schema != desc.schema:
            raise ExecutionError(f"schema of {desc.name!r} changed; plan is stale")
        if txn is not None:
            txn.lock_table_shared(desc.name)
    return instance


# --------------------------------------------------------------------------
# Pipeline steps
# --------------------------------------------------------------------------


class _Step:
    """One pipeline operator, twice: ``start``/``run`` is the reference
    generator, ``prelude``/``emit`` writes the same loop — same charges,
    same order — into the fused nest."""

    #: ``(columns, method)`` of the index the nest probes, or None.
    index: Optional[tuple[tuple[str, ...], str]] = None

    def start(self, state: ExecState) -> Iterator[list[Any]]:  # first step only
        raise NotImplementedError

    def run(self, envs: Iterator[list[Any]], state: ExecState) -> Iterator[list[Any]]:
        raise NotImplementedError

    def prelude(self, nest: _Nest) -> None:
        """Work a generator does before it pulls its first outer row."""

    def emit(self, nest: _Nest, depth: int) -> int:
        """Write this step's loop at ``depth``; returns its body's depth."""
        raise NotImplementedError


def _source_rows(desc: SourceDesc, instance: Any, state: ExecState) -> Iterator[Any]:
    """Iterate raw handles of one source, charging scan costs."""
    charge = state.db.charge
    if desc.kind == STD:
        charge("cursor_open")
        for record in instance.scan():
            charge("row_scan")
            yield record
        charge("cursor_close")
    elif desc.kind == TMP:
        for raw in instance.scan_raw():
            charge("row_scan")
            yield raw
    else:  # DERIVED: run the subplan, yield value lists
        result = instance.execute(state.db, state.txn, state.params, state.pseudo)
        for values in result.rows():
            charge("row_scan")
            yield values


class _ScanStep(_Step):
    """First pipeline step: scan (or index-probe) the driving table."""

    def __init__(
        self,
        desc: SourceDesc,
        n_slots: int,
        residual: Optional[Getter],
        eq_columns: Optional[tuple[str, ...]] = None,
        eq_key: Optional[Getter] = None,
        range_column: Optional[str] = None,
        range_spec: Optional[tuple] = None,  # (low_getter, high_getter, incl_low, incl_high)
    ) -> None:
        self.desc = desc
        self.n_slots = n_slots
        self.residual = residual
        self.eq_columns = eq_columns
        self.eq_key = eq_key
        self.range_column = range_column
        self.range_spec = range_spec
        if desc.kind == STD and (eq_columns or range_column):
            self.index = (eq_columns, "lookup") if eq_columns else ((range_column,), "range")

    def start(self, state: ExecState) -> Iterator[list[Any]]:
        instance = state.instances[self.desc.env_pos - 1]
        charge = state.db.charge
        pos = self.desc.env_pos
        template: list[Any] = [None] * (self.n_slots + 1)
        template[0] = state
        rows = None
        if self.desc.kind == STD and self.eq_columns is not None:
            index = instance.index_on(self.eq_columns)
            if index is not None:
                rows = index.lookup(self.eq_key(list(template)))
        elif self.desc.kind == STD and self.range_column is not None:
            index = instance.index_on((self.range_column,))
            if index is not None and hasattr(index, "range"):
                probe_env = list(template)
                low_getter, high_getter, include_low, include_high = self.range_spec
                low = low_getter(probe_env) if low_getter is not None else None
                high = high_getter(probe_env) if high_getter is not None else None
                rows = index.range(low, high, include_low, include_high)
        if rows is not None:
            charge("index_probe")
            for record in rows:
                charge("cursor_fetch")
                env = list(template)
                env[pos] = record
                if self.residual is None or truthy(self.residual(env)):
                    yield env
            return
        for handle in _source_rows(self.desc, instance, state):
            env = list(template)
            env[pos] = handle
            if self.residual is not None:
                charge("expr_eval")
                if not truthy(self.residual(env)):
                    continue
            yield env

    def emit(self, nest: _Nest, depth: int) -> int:
        pos = self.desc.env_pos
        if self.index is None:
            nest.tails.append(nest.scan(depth, self.desc))
            nest.residual(depth + 1, self.residual, pos, "expr_eval")
            return depth + 1
        if self.eq_columns is not None:
            nest.line(depth, f"rows = x{pos}.lookup({nest.value(self.eq_key, 0)})")
        else:
            low, high, *inclusive = self.range_spec
            bounds = ["None" if g is None else nest.value(g, 0) for g in (low, high)]
            nest.line(
                depth, f"rows = x{pos}.range({', '.join(bounds)}, {inclusive[0]}, {inclusive[1]})"
            )
        nest.charge(depth, "index_probe")
        nest.loop(depth, pos, "rows", "cursor_fetch")
        nest.residual(depth + 1, self.residual, pos)  # probed rows filter uncharged
        return depth + 1


class _IndexJoinStep(_Step):
    """Probe a standard table's index once per outer row."""

    def __init__(
        self,
        desc: SourceDesc,
        index_columns: tuple[str, ...],
        key: Getter,
        residual: Optional[Getter],
    ) -> None:
        self.desc = desc
        self.index_columns = index_columns
        self.key = key
        self.residual = residual
        self.index = (index_columns, "lookup")

    def run(self, envs: Iterator[list[Any]], state: ExecState) -> Iterator[list[Any]]:
        instance = state.instances[self.desc.env_pos - 1]
        index = instance.index_on(self.index_columns)
        charge = state.db.charge
        pos = self.desc.env_pos
        residual = self.residual
        if index is None:  # a plan held across index DDL (Catalog.version moved)
            raise ExecutionError(f"index on {self.desc.name!r} changed; plan is stale")
        for env in envs:
            charge("index_probe")
            for record in index.lookup(self.key(env)):
                charge("cursor_fetch")
                out = list(env)
                out[pos] = record
                if residual is not None:
                    charge("expr_eval")
                    if not truthy(residual(out)):
                        continue
                yield out

    def emit(self, nest: _Nest, depth: int) -> int:
        pos = self.desc.env_pos
        nest.charge(depth, "index_probe")
        nest.loop(depth, pos, f"x{pos}.lookup({nest.value(self.key, pos - 1)})", "cursor_fetch")
        nest.residual(depth + 1, self.residual, pos, "expr_eval")
        return depth + 1


class _HashJoinStep(_Step):
    """Build a hash table over the inner source, probe per outer row."""

    def __init__(
        self, desc: SourceDesc, build_key: Getter, probe_key: Getter, residual: Optional[Getter]
    ) -> None:
        self.desc = desc
        self.build_key = build_key  # over an environment holding only this source
        self.probe_key = probe_key
        self.residual = residual

    def run(self, envs: Iterator[list[Any]], state: ExecState) -> Iterator[list[Any]]:
        instance = state.instances[self.desc.env_pos - 1]
        charge = state.db.charge
        buckets: dict[Any, list[Any]] = {}
        pos = self.desc.env_pos
        build_env: list[Any] = [state] + [None] * pos
        for handle in _source_rows(self.desc, instance, state):
            build_env[pos] = handle
            buckets.setdefault(self.build_key(build_env), []).append(handle)
        residual = self.residual
        for env in envs:
            charge("join_probe")
            for handle in buckets.get(self.probe_key(env), ()):
                out = list(env)
                out[pos] = handle
                if residual is not None:
                    charge("expr_eval")
                    if not truthy(residual(out)):
                        continue
                yield out

    def prelude(self, nest: _Nest) -> None:
        pos = self.desc.env_pos
        key = nest.inline[self.build_key]  # plain columns of this source: always inline
        nest.line(2, f"b{pos} = {{}}")
        nest.gather(self.desc, f"b{pos}.setdefault({key}, []).append(h{pos})")

    def emit(self, nest: _Nest, depth: int) -> int:
        """The probe of a key written inline that cannot raise charges
        nothing and fails nowhere, so it moves out to the loop binding the
        last handle the key reads — before the loops if it reads none — and
        runs once per row of that loop; ``join_probe`` stays charged per
        outer row.  A key that can charge (a function call) or raise (a
        parameter, arithmetic) is probed where it stands."""
        pos = self.desc.env_pos
        key = nest.inline.get(self.probe_key)
        if key is None or self.probe_key in nest.raising:
            rows = f"b{pos}.get({nest.value(self.probe_key, pos - 1)}, ())"
        else:  # the last handle a key reads: h3 in ``h3[1][0]``
            level = max((int(h) for h in re.findall(r"\bh(\d+)\b", key)), default=0)
            nest.hoist(level, f"m{pos} = b{pos}.get({key}, ())")
            rows = f"m{pos}"
        nest.charge(depth, "join_probe")
        nest.loop(depth, pos, rows)
        nest.residual(depth + 1, self.residual, pos, "expr_eval")
        return depth + 1


class _NestedJoinStep(_Step):
    """Cross product with an optional residual filter (no join predicate)."""

    def __init__(self, desc: SourceDesc, residual: Optional[Getter]) -> None:
        self.desc = desc
        self.residual = residual

    def run(self, envs: Iterator[list[Any]], state: ExecState) -> Iterator[list[Any]]:
        instance = state.instances[self.desc.env_pos - 1]
        charge = state.db.charge
        handles = list(_source_rows(self.desc, instance, state))
        pos = self.desc.env_pos
        residual = self.residual
        for env in envs:
            for handle in handles:
                charge("join_probe")
                out = list(env)
                out[pos] = handle
                if residual is not None:
                    charge("expr_eval")
                    if not truthy(residual(out)):
                        continue
                yield out

    def prelude(self, nest: _Nest) -> None:
        pos = self.desc.env_pos
        nest.line(2, f"r{pos} = []")
        nest.gather(self.desc, f"r{pos}.append(h{pos})")

    def emit(self, nest: _Nest, depth: int) -> int:
        pos = self.desc.env_pos
        nest.loop(depth, pos, f"r{pos}", "join_probe")
        nest.residual(depth + 1, self.residual, pos, "expr_eval")
        return depth + 1


# --------------------------------------------------------------------------
# Output: plain and aggregate
# --------------------------------------------------------------------------


@dataclass
class _AggSpec:
    kind: str  # sum / count / avg / min / max
    arg: Optional[Getter]  # None for count(*)
    distinct: bool = False


class _OutputSpec:
    columns: list[OutputColumn]
    #: True when the result is the join's rows as they come, so a bound
    #: table can be filled by the nest itself (CompiledSelect.firing).
    streams = False
    _bind_spec = None

    def collector(self, state: ExecState) -> tuple[Callable[[list[Any]], None], Callable]:
        """``(emit, finish)``: the pipeline calls ``emit(env)`` per joined
        row, as it produces it; ``finish()`` returns the SelectResult."""
        raise NotImplementedError

    def bind_spec(self) -> "BindSpec":
        """The (cached, shared) schema / static map / extractors used when
        binding this result shape as a temporary table, so bound tables from
        successive firings share Schema and StaticMap objects."""
        if self._bind_spec is None:
            self._bind_spec = BindSpec(self.columns)
        return self._bind_spec


class _PlainOutput(_OutputSpec):
    def __init__(
        self,
        columns: list[OutputColumn],
        order_keys: list[tuple[Callable[[Any], tuple], bool]],  # (row key, descending)
        limit: Optional[int],
        distinct: bool,
        charge_free: bool,
    ) -> None:
        self.columns = columns
        self.order_keys = order_keys
        self.limit = limit
        self.distinct = distinct
        # A column that can charge (a function call, a subquery) is evaluated
        # at bind time, after every row_output charge: not while joining.
        self.streams = charge_free and not order_keys and limit is None and not distinct

    def collector(self, state: ExecState) -> tuple[Callable[[list[Any]], None], Callable]:
        envs: list[list[Any]] = []
        return envs.append, lambda: self._finish(envs, state)

    def _finish(self, env_list: list[list[Any]], state: ExecState) -> "SelectResult":
        charge = state.db.charge
        env_list = _ordered(
            env_list, self.order_keys, self.limit, self.distinct,
            lambda rows: charge("sort_row", max(rows, 1)),
        )
        meter, cost = state.db.metering()
        seconds = cost["row_output"]
        result_envs: list[list[Any]] = []
        seen: set[tuple] = set()
        try:
            for env in env_list:
                if self.limit is not None and len(result_envs) >= self.limit:
                    break
                if self.distinct:
                    key = tuple(column.value(env) for column in self.columns)
                    if key in seen:
                        continue
                    seen.add(key)
                meter.total += seconds
                result_envs.append(env)
        finally:
            if result_envs:
                meter.ops["row_output"] += len(result_envs)
        return SelectResult(self.columns, self, envs=result_envs)


class _AggregateOutput(_OutputSpec):
    def __init__(
        self,
        columns: list[OutputColumn],  # getters over the group env
        group_keys: list[Getter],  # over row envs
        agg_specs: list[_AggSpec],
        having: Optional[Getter],
        order_keys: list[tuple[Callable[[Any], tuple], bool]],
        limit: Optional[int],
        distinct: bool,
    ) -> None:
        self.columns = columns
        self.group_keys = group_keys
        self.agg_specs = agg_specs
        self.having = having
        self.order_keys = order_keys
        self.limit = limit
        self.distinct = distinct
        self._materialized_columns = [
            OutputColumn(c.name, c.type, _item_getter(i)) for i, c in enumerate(columns)
        ]

    def collector(self, state: ExecState) -> tuple[Callable[[list[Any]], None], Callable]:
        first_env: dict[tuple, Optional[list[Any]]] = {}
        accums: dict[tuple, list[Any]] = {}
        group_keys, agg_specs = self.group_keys, self.agg_specs
        meter, cost = state.db.metering()
        ops, c_group, c_update = meter.ops, cost["group_row"], cost["agg_update"]

        def emit(env: list[Any]) -> None:
            # Rows are folded as the join produces them, so these charges
            # interleave with the join's own, row by row.
            meter.total += c_group
            ops["group_row"] += 1
            key = tuple([getter(env) for getter in group_keys])
            acc = accums.get(key)
            if acc is None:
                acc = accums[key] = [_agg_init(spec) for spec in agg_specs]
                first_env[key] = env
            for spec, slot in zip(agg_specs, acc):
                meter.total += c_update
                ops["agg_update"] += 1
                _agg_step(spec, slot, env)

        return emit, lambda: self._finish(accums, first_env, state)

    def _finish(self, accums: dict, first_env: dict, state: ExecState) -> "SelectResult":
        charge = state.db.charge
        # Global aggregate over an empty input still yields one row; there
        # is no representative row, so row-scoped getters must see None.
        if not accums and not self.group_keys:
            accums[()] = [_agg_init(spec) for spec in self.agg_specs]
            first_env[()] = None
        group_envs = []
        for key, acc in accums.items():
            finals = [_agg_final(spec, a) for spec, a in zip(self.agg_specs, acc)]
            genv = (state, list(key), finals, first_env[key])
            if self.having is not None:
                charge("expr_eval")
                if not truthy(self.having(genv)):
                    continue
            group_envs.append(genv)
        group_envs = _ordered(group_envs, self.order_keys, self.limit, self.distinct)
        rows: list[list[Any]] = []
        seen: set[tuple] = set()
        for genv in group_envs:
            if self.limit is not None and len(rows) >= self.limit:
                break
            values = [column.value(genv) for column in self.columns]
            if self.distinct:
                key = tuple(values)
                if key in seen:
                    continue
                seen.add(key)
            charge("row_output")
            rows.append(values)
        return SelectResult(self._materialized_columns, self, value_rows=rows)


def _item_getter(i: int) -> Getter:
    return lambda row: row[i]


def _ordered(
    items: list,
    order_keys: list[tuple[Callable[[Any], tuple], bool]],
    limit: Optional[int],
    distinct: bool,
    charge: Optional[Callable[[int], None]] = None,
) -> list:
    """``items`` in ORDER BY order: one stable pass per key, last key
    first, each after ``charge(len(items))`` (``sort_row``).  With a LIMIT
    and no DISTINCT the first key's pass keeps only the first ``limit`` —
    ``heapq.nsmallest`` / ``nlargest``, documented equal to ``sorted(...)[:
    limit]``, ties included — the rows the output loop would stop after."""
    last = len(order_keys) - 1
    for at, (key, descending) in enumerate(reversed(order_keys)):
        if charge is not None:
            charge(len(items))
        if at == last and limit is not None and not distinct:
            return (heapq.nlargest if descending else heapq.nsmallest)(limit, items, key=key)
        items.sort(key=key, reverse=descending)
    return items


def _row_key(
    getter: Getter, inline: Optional[Inline] = None, slots: int = 0
) -> Callable[[Any], tuple]:
    """An ORDER BY key as one call per row: NULLs last, text after numbers,
    a bool as its int, so values of two types never meet in a comparison.
    The getter's source form is written in, over the environment's handles,
    when it has one; otherwise the key calls the getter (a group-scoped
    item, an expression that can charge)."""
    source = inline.text.get(getter) if inline is not None else None
    names = dict(inline.names) if inline is not None else {}
    if source is None:
        names["GETTER"] = getter
        lines = ["def key(env):", "    out = GETTER(env)"]
    else:
        handles = "".join(f"h{pos}, " for pos in range(1, slots + 1))
        lines = ["def key(env):", f"    (state, {handles}) = env"]
        lines += [f"    {read} = state.{read}" for read in sorted(inline.reads)]
        lines.append(f"    out = {source}")
    lines += [
        "    if out is None:",
        "        return (2, 0)",
        "    if isinstance(out, str):",
        "        return (1, out)",
        "    if isinstance(out, bool):",
        "        return (0, int(out))",
        "    return (0, out)",
    ]
    return generate(lines, "key", "<sort key>", names)


def _agg_init(spec: _AggSpec) -> Any:
    if spec.distinct:
        return {"seen": set(), "acc": _agg_init(_AggSpec(spec.kind, spec.arg))}
    if spec.kind == "count":
        return [0]
    if spec.kind == "sum":
        return [None]
    if spec.kind == "avg":
        return [0.0, 0]
    return [None]  # min / max


def _agg_step(spec: _AggSpec, acc: Any, env: Any) -> None:
    if spec.distinct:
        value = spec.arg(env) if spec.arg is not None else None
        if value in acc["seen"]:
            return
        acc["seen"].add(value)
        _agg_step(_AggSpec(spec.kind, lambda _e, v=value: v), acc["acc"], env)
        return
    if spec.kind == "count":
        if spec.arg is None or spec.arg(env) is not None:
            acc[0] += 1
        return
    value = spec.arg(env)
    if value is None:
        return
    if spec.kind == "sum":
        acc[0] = value if acc[0] is None else acc[0] + value
    elif spec.kind == "avg":
        acc[0] += value
        acc[1] += 1
    elif spec.kind == "min":
        acc[0] = value if acc[0] is None or value < acc[0] else acc[0]
    elif spec.kind == "max":
        acc[0] = value if acc[0] is None or value > acc[0] else acc[0]


def _agg_final(spec: _AggSpec, acc: Any) -> Any:
    if spec.distinct:
        return _agg_final(_AggSpec(spec.kind, spec.arg), acc["acc"])
    if spec.kind == "count":
        return acc[0]
    if spec.kind == "avg":
        return acc[0] / acc[1] if acc[1] else None
    return acc[0]


# --------------------------------------------------------------------------
# The result set
# --------------------------------------------------------------------------


@functools.lru_cache(maxsize=512)
def _bound_shape(
    columns: tuple[Column, ...], sources: tuple[ColumnSource, ...], n_ptrs: int
) -> tuple[Schema, StaticMap]:
    """One ``Schema`` and ``StaticMap`` object per bound shape, shared by
    every bind spec of that value: the tables two rules bind into one
    pending task — a view's stock-side and position-side deltas — are then
    defined identically by identity, and ``TempTable.move_from`` takes its
    fast path instead of comparing them by value."""
    return Schema(list(columns)), StaticMap(sources, ptr_labels=[f"p{i}" for i in range(n_ptrs)])


class BindSpec:
    """Shared binding shape for one result-column list: schema, static map,
    and per-row extractors (pointer slots assigned per distinct source)."""

    __slots__ = ("schema", "static_map", "ptr_getters", "ptr_keys", "mat_columns")

    def __init__(self, columns: list[OutputColumn]) -> None:
        slot_of_key: dict[tuple, int] = {}  # pointer slot per distinct source
        self.ptr_getters: list[Getter] = []
        sources: list[ColumnSource] = []
        self.mat_columns: list[OutputColumn] = []
        for column in columns:
            if column.ptr_record is not None and column.ptr_key is not None:
                slot = slot_of_key.get(column.ptr_key)
                if slot is None:
                    slot = slot_of_key[column.ptr_key] = len(self.ptr_getters)
                    self.ptr_getters.append(column.ptr_record)
                sources.append(ColumnSource("ptr", slot, column.ptr_offset))
            else:
                sources.append(ColumnSource("mat", len(self.mat_columns)))
                self.mat_columns.append(column)
        self.ptr_keys = list(slot_of_key)
        self.schema, self.static_map = _bound_shape(
            tuple([Column(c.name, c.type) for c in columns]), tuple(sources), len(self.ptr_keys)
        )


class SelectResult:
    """Materialized result of a SELECT, bindable as a temporary table."""

    def __init__(
        self,
        columns: list[OutputColumn],
        spec_home: "_OutputSpec",
        envs: Optional[list[list[Any]]] = None,
        value_rows: Optional[list[list[Any]]] = None,
    ) -> None:
        self.columns = columns
        self._envs = envs
        self._value_rows = value_rows
        self._spec_home = spec_home  # the plan's output: owns the binding shape

    @property
    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def rows(self) -> list[list[Any]]:
        if self._value_rows is None:
            self._value_rows = [
                [column.value(env) for column in self.columns] for env in self._envs or []
            ]
        return self._value_rows

    def dicts(self) -> list[dict[str, Any]]:
        names = self.column_names
        return [dict(zip(names, row)) for row in self.rows()]

    def scalar(self) -> Any:
        rows = self.rows()
        if not rows or not rows[0]:
            return None
        return rows[0][0]

    def first(self) -> Optional[dict[str, Any]]:
        dicts = self.dicts()
        return dicts[0] if dicts else None

    def __len__(self) -> int:
        if self._value_rows is not None:
            return len(self._value_rows)
        return len(self._envs or [])

    def __iter__(self):
        return iter(self.dicts())

    # ----------------------------------------------------------- binding

    def bind(self, name: str, db: Any) -> TempTable:
        """Build a temporary table from this result, sharing record pointers
        for direct-column outputs (paper section 6.1).  Each row charges
        ``bind_row`` to ``db`` before its values are extracted."""
        spec = self._spec_home.bind_spec()
        table = TempTable(name, spec.schema, spec.static_map)
        append = table.row_sink(len(spec.ptr_keys), len(spec.mat_columns))
        # An aggregate's rows are values already: its own columns index them.
        items, mat_columns = (
            (self.rows(), self.columns) if self._envs is None else (self._envs, spec.mat_columns)
        )
        ptr_getters = spec.ptr_getters
        meter, cost = db.metering()
        seconds, count = cost["bind_row"], 0
        try:
            for item in items:
                meter.total += seconds
                count += 1
                ptrs = tuple([getter(item) for getter in ptr_getters])
                mats = tuple([column.value(item) for column in mat_columns])
                for record in ptrs:
                    record.pins += 1
                append((ptrs, mats))
        except BaseException:
            table.retire()
            raise
        finally:
            if count:
                meter.ops["bind_row"] += count
        return table


# --------------------------------------------------------------------------
# Plan construction
# --------------------------------------------------------------------------


#: What reading ``:name`` with no value for it raises.
MISSING_PARAM = "missing parameter :{}"


class _SelectResolution:
    """Column / param / function resolution for one SELECT's sources.

    ``state`` is the source that yields the execution's ``ExecState`` where
    the inline sources run: ``state`` in a loop nest; the generated DML
    builds one, and only on the path where a source calls its getter to
    raise the getter's error."""

    def __init__(
        self,
        db: Any,
        descs: list[SourceDesc],
        namespace: Optional[dict[str, Any]] = None,
        state: str = "state",
    ) -> None:
        self.db = db
        self.descs = descs
        self.by_binding = {desc.binding: desc for desc in descs}
        self.namespace = namespace
        self.state = state
        #: The source forms a fused nest writes instead of calling a getter.
        self.inline = Inline()

    # -- ResolutionContext protocol --

    def resolve_subtree(self, expr: ast.Expr) -> None:
        """Row scope answers no subtree: every node compiles as itself."""
        return None

    def resolve_column(self, table: Optional[str], name: str) -> Getter:
        getter, _ptr = self.resolve_output(table, name)
        return getter

    def resolve_param(self, name: str) -> Getter:
        return self._state_value("params", name, MISSING_PARAM.format(name))

    def resolve_function(self, name: str) -> tuple[Callable[..., Any], Callable[[], None]]:
        return self.db.resolve_scalar_function(name)

    def resolve_subquery(self, select: ast.Select) -> Getter:
        """Plan an uncorrelated subquery now; run it once per execution."""
        subplan = plan_select(self.db, select, self.namespace)
        key = id(subplan)

        def rows(env: Any) -> list:
            state = env[0]
            cached = state.subqueries.get(key)
            if cached is None:
                result = subplan.execute(
                    state.db, state.txn, state.params, state.pseudo, state.namespace
                )
                cached = state.subqueries[key] = result.rows()
            return cached

        return rows

    # -- richer resolution used for output columns --

    def resolve_output(
        self, table: Optional[str], name: str
    ) -> tuple[Getter, Optional[tuple[Getter, int, tuple]]]:
        """(value getter, pointer spec) where pointer spec is
        (record getter, offset, slot key) or None for materialized values."""
        desc = self._find(table, name)
        if desc is None:
            if name in ("commit_time", "commit_seq"):
                return self._pseudo_getter(name), None
            where = f"table {table!r}" if table else "any table in scope"
            raise PlanError(f"unknown column {name!r} in {where}")
        return self.column_of(desc, name)

    def _find(self, table: Optional[str], name: str) -> Optional[SourceDesc]:
        if table is not None:
            desc = self.by_binding.get(table)
            if desc is None:
                raise PlanError(f"unknown table alias {table!r}")
            if not desc.schema.has_column(name):
                raise PlanError(f"table {table!r} has no column {name!r}")
            return desc
        matches = [desc for desc in self.descs if desc.schema.has_column(name)]
        if not matches:
            return None
        if len(matches) > 1:
            names = ", ".join(desc.binding for desc in matches)
            raise PlanError(f"column {name!r} is ambiguous (in {names})")
        return matches[0]

    def column_of(
        self, desc: SourceDesc, name: str
    ) -> tuple[Getter, Optional[tuple[Getter, int, tuple]]]:
        offset = desc.schema.offset(name)
        pos = desc.env_pos
        ptr = None
        if desc.kind == STD:
            getter = lambda env, p=pos, o=offset: env[p].values[o]
            ptr = ((lambda env, p=pos: env[p]), offset, ("std", pos))
            inline = f"h{pos}.values[{offset}]"
        elif desc.kind == TMP:
            source = desc.map_sources[offset]
            if source.kind == "ptr":
                slot, inner = source.slot, source.offset
                getter = lambda env, p=pos, s=slot, o=inner: env[p][0][s].values[o]
                ptr = ((lambda env, p=pos, s=slot: env[p][0][s]), inner, ("tmp", pos, slot))
            else:
                getter = lambda env, p=pos, s=source.slot: env[p][1][s]
            inline = source.text(f"h{pos}[0]", f"h{pos}[1]")  # handle = (ptrs, mats)
        else:
            getter = lambda env, p=pos, o=offset: env[p][o]
            inline = f"h{pos}[{offset}]"
        self.inline.text[getter] = inline  # the same read, over the nest's handle h<pos>
        return getter, ptr

    def key(self, parts: list[Getter]) -> Getter:
        """One getter for a join key of one or several parts (a tuple)."""
        if len(parts) == 1:
            return parts[0]
        key = lambda env, parts=tuple(parts): tuple(part(env) for part in parts)
        self.inline.record(key, tuple(parts), lambda *texts: _tuple_source(texts))
        return key

    def _pseudo_getter(self, name: str) -> Getter:
        missing = f"pseudo column {name!r} is only available during rule binding"
        return self._state_value("pseudo", name, missing)

    def _state_value(self, read: str, name: str, missing: str) -> Getter:
        """A getter of ``name`` in the execution's ``params`` or ``pseudo``
        (``read``) that raises ``ExecutionError(missing)`` where it is not
        there, and its source: the local ``read``, else the getter itself."""

        def _value(env: Any) -> Any:
            try:
                return getattr(env[0], read)[name]
            except KeyError:
                raise ExecutionError(missing) from None

        inline = self.inline
        key = inline.const(name)
        inline.reads.add(read)
        fallback = f"{inline.const(_value)}([{self.state}])"
        inline.text[_value] = f"({read}[{key}] if {key} in {read} else {fallback})"
        inline.raising.add(_value)
        return _value


class _GroupResolution:
    """Resolution of an aggregate SELECT's items, HAVING and ORDER BY over
    the group environment ``(state, key values, aggregate values,
    representative row env)``: a GROUP BY expression is its key slot, an
    earlier output's unqualified name that output (a common SQL extension
    that paper-era systems also allowed), an aggregate call a new slot, and
    an aggregate-free, alias-free subtree its row value: over the
    representative row if it reads a column (NULL where there is none: a
    global aggregate over no rows), else as it stands.  ``compile_expr``
    compiles every operator above those answers; functions and
    (uncorrelated) subqueries resolve as in row scope."""

    def __init__(self, rows: _SelectResolution, group_by: Sequence[ast.Expr]) -> None:
        self.rows = rows
        self.group_by = list(group_by)
        self.aliases: dict[str, Getter] = {}  # output name -> its group getter
        self.agg_specs: list[_AggSpec] = []
        self.inline = Inline()  # a group getter is called per group, never written in line
        self.resolve_function = rows.resolve_function
        self.resolve_subquery = rows.resolve_subquery

    def resolve_subtree(self, expr: ast.Expr) -> Optional[Getter]:
        if expr in self.group_by:
            return lambda genv, k=self.group_by.index(expr): genv[1][k]
        if isinstance(expr, ast.ColumnRef) and expr.table is None and expr.name in self.aliases:
            return self.aliases[expr.name]
        if isinstance(expr, ast.FuncCall) and expr.name in ast.AGGREGATE_NAMES:
            if expr.star or (not expr.args and expr.name == "count"):
                arg = None
            elif len(expr.args) == 1:
                arg = compile_expr(expr.args[0], self.rows)
            else:
                raise PlanError(f"aggregate {expr.name.upper()} takes one argument")
            self.agg_specs.append(_AggSpec(expr.name, arg, expr.distinct))
            return lambda genv, s=len(self.agg_specs) - 1: genv[2][s]
        refs = ast.column_refs(expr)
        if ast.contains_aggregate(expr) or any(
            ref.table is None and ref.name in self.aliases for ref in refs
        ):
            return None
        row_getter = compile_expr(expr, self.rows)
        if not refs:  # reads only genv[0], the state: no row needed
            return row_getter
        return lambda genv: row_getter(genv[3]) if genv[3] is not None else None


def _describe_source(db: Any, ref: ast.TableRef, namespace: Optional[dict[str, Any]]) -> SourceDesc:
    name = ref.name
    if namespace and name in namespace:
        instance = namespace[name]
        return SourceDesc(
            name=name,
            binding=ref.binding,
            kind=TMP,
            schema=instance.schema,
            map_sources=instance.static_map.sources,
        )
    if db.catalog.has_table(name):
        table = db.catalog.table(name)
        return SourceDesc(name=name, binding=ref.binding, kind=STD, schema=table.schema)
    if db.catalog.has_view(name):
        view = db.catalog.view(name)
        subplan = plan_select(db, view.select, None)
        schema = Schema(
            [Column(column.name, column.type) for column in subplan.output.columns]
        )
        return SourceDesc(
            name=name, binding=ref.binding, kind=DERIVED, schema=schema, subplan=subplan
        )
    raise PlanError(f"unknown table or view {name!r}")


# --------------------------------------------------------------------------
# The WHERE clause, classified once: what every access path is chosen from
# --------------------------------------------------------------------------


def split_conjuncts(expr: Optional[ast.Expr]) -> list[ast.Expr]:
    """The top-level AND conjuncts of a WHERE clause, in order."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def combine(exprs: Sequence[ast.Expr], op: str = "and") -> Optional[ast.Expr]:
    """``exprs`` folded left under ``op`` (None for none)."""
    return functools.reduce(lambda a, b: ast.BinaryOp(op, a, b), exprs) if exprs else None


def _owners(name: str, schemas: dict[str, Schema]) -> list[str]:
    return [binding for binding, schema in schemas.items() if schema.has_column(name)]


def column_source(expr: ast.Expr, schemas: dict[str, Schema]) -> Optional[tuple[str, str]]:
    """``(binding, column)`` when ``expr`` is a bare column of one of the
    sources ``schemas`` (by binding): of its qualifier, if that source has
    it, else of the one source that has it — None for none or several."""
    if not isinstance(expr, ast.ColumnRef):
        return None
    if expr.table is None:
        owners = _owners(expr.name, schemas)
    else:
        owners = [expr.table] if expr.table in _owners(expr.name, schemas) else []
    return (owners[0], expr.name) if len(owners) == 1 else None


def bindings_read(expr: ast.Expr, schemas: dict[str, Schema]) -> frozenset[str]:
    """The sources ``expr`` reads: each column's qualifier, else the one
    source that has the column.  A name no source has (a pseudo column such
    as ``commit_seq``) reads none; a name several have raises."""
    out: set[str] = set()
    for ref in ast.column_refs(expr):
        owners = [ref.table] if ref.table is not None else _owners(ref.name, schemas)
        if len(owners) > 1:
            raise PlanError(f"column {ref.name!r} is ambiguous")
        out.update(owners)
    return frozenset(out)


class Side(NamedTuple):
    """An operand of a comparison conjunct that is a bare column."""

    binding: str
    column: str
    op: str  # the comparison, read with this column on its left
    other: ast.Expr  # the other operand
    reads: frozenset[str]  # the sources ``other`` reads


class Conjunct(NamedTuple):
    """One top-level AND conjunct of a WHERE clause, classified."""

    expr: ast.Expr
    reads: frozenset[str]  # the sources it reads
    closed: bool  # every column it names is a column of one source
    sides: tuple[Side, ...]  # one per operand that is a bare column, left first


_FLIPPED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def classify(where: Optional[ast.Expr], schemas: dict[str, Schema]) -> list[Conjunct]:
    """Each conjunct of ``where`` with what an access path is chosen from:
    SELECT's join order, join keys and scan probe, UPDATE / DELETE's probe
    and a maintained view's mark queries all read this, and only this."""
    out = []
    for expr in split_conjuncts(where):
        sides = []
        if isinstance(expr, ast.BinaryOp) and expr.op in _FLIPPED:
            pairs = ((expr.left, expr.right, expr.op), (expr.right, expr.left, _FLIPPED[expr.op]))
            for side, other, op in pairs:
                source = column_source(side, schemas)
                if source is not None:
                    sides.append(Side(*source, op, other, bindings_read(other, schemas)))
        closed = all(column_source(ref, schemas) for ref in ast.column_refs(expr))
        out.append(Conjunct(expr, bindings_read(expr, schemas), closed, tuple(sides)))
    return out


def probe_of(
    conjuncts: Sequence[Conjunct], binding: str, table: Any
) -> Optional[tuple[int, Side, Any]]:
    """``(position, side, index)`` of the first conjunct ``column = <an
    expression reading no source>`` whose column of ``binding`` ``table``
    indexes alone: the one probe of a SELECT's first table and of an
    UPDATE / DELETE.  None: no such conjunct."""
    for position, conjunct in enumerate(conjuncts):
        for side in conjunct.sides:
            if side.op == "=" and side.binding == binding and not side.reads:
                index = table.index_on((side.column,))
                if index is not None:
                    return position, side, index
    return None


def plan_select(
    db: Any, select: ast.Select, namespace: Optional[dict[str, Any]]
) -> CompiledSelect:
    """Compile ``select`` against the database catalog plus ``namespace``
    (the running task's bound/transition tables, if any)."""
    descs = [_describe_source(db, ref, namespace) for ref in select.tables]
    for from_pos, desc in enumerate(descs):
        desc.from_pos = from_pos
    schemas = {desc.binding: desc.schema for desc in descs}
    if len(schemas) != len(descs):
        raise PlanError("duplicate table alias in FROM")

    conjuncts = classify(select.where, schemas)
    used = [False] * len(conjuncts)
    kind_rank = {TMP: 0, DERIVED: 1, STD: 2}

    def probed(desc: SourceDesc, columns: tuple[str, ...]) -> Any:
        """The index a probe of ``desc`` on ``columns`` reads — a catalog
        table's index on exactly those columns — or None: it cannot probe.
        Presence, not truthiness: an empty table or index probes alike."""
        return db.catalog.table(desc.name).index_on(columns) if desc.kind == STD else None

    def equalities(desc: SourceDesc):
        """(conjunct, side) per ``column = ...`` side on a column of ``desc``."""
        for conjunct in conjuncts:
            for side in conjunct.sides:
                if side.op == "=" and side.binding == desc.binding:
                    yield conjunct, side

    # ---- choose the join order -------------------------------------------
    def _start_score(desc: SourceDesc) -> tuple:
        # A local equality on an index probes; an equi-join that could probe
        # an index of ``desc`` says: join it *into* the pipeline, not first.
        local_eq = any(
            conjunct.reads == {desc.binding} and not side.reads
            and probed(desc, (side.column,)) is not None
            for conjunct, side in equalities(desc)
        )
        probeable = any(
            len(conjunct.reads) >= 2 and probed(desc, (side.column,)) is not None
            for conjunct, side in equalities(desc)
        )
        return (kind_rank[desc.kind] - local_eq, int(probeable), desc.from_pos)

    remaining = list(descs)
    start = min(remaining, key=_start_score)
    order = [start]
    remaining.remove(start)
    join_specs: list[Optional[list[tuple[str, ast.Expr]]]] = [None]  # per planned table

    while remaining:
        placed = {desc.binding for desc in order}
        best: Optional[tuple[tuple, SourceDesc, list[tuple[int, Side]]]] = None
        for desc in remaining:
            binding = desc.binding
            keys: list[tuple[int, Side]] = []  # (conjunct position, key side)
            for position, conjunct in enumerate(conjuncts):
                if used[position] or not conjunct.reads - {binding} <= placed:
                    continue
                for side in conjunct.sides:
                    if side.op == "=" and side.binding == binding and side.reads <= placed:
                        keys.append((position, side))
                        break
            if keys:
                # Scored as indexed exactly when the step will probe an index.
                index = probed(desc, tuple(side.column for _position, side in keys))
                score = (0 if index is None else -1, kind_rank[desc.kind], desc.from_pos)
                if best is None or score < best[0]:
                    best = (score, desc, keys)
        if best is not None:
            _score, desc, keys = best
            for position, _side in keys:
                used[position] = True
            order.append(desc)
            join_specs.append([(side.column, side.other) for _position, side in keys])
            remaining.remove(desc)
        else:
            desc = remaining.pop(0)
            order.append(desc)
            join_specs.append(None)

    for env_pos, desc in enumerate(order, start=1):
        desc.env_pos = env_pos

    resolution = _SelectResolution(db, order, namespace)

    def conjunction(assigned: list[Conjunct]) -> Optional[Getter]:
        """One getter for the AND of ``assigned`` in order (None for none)."""
        return compile_expr(combine([c.expr for c in assigned]), resolution) if assigned else None

    # ---- assign residual conjuncts to pipeline positions ------------------
    # Each to the first step that placed every source it reads.  None does
    # only when one of them is unknown: compiling the conjunct anywhere
    # raises the PlanError saying so.
    residuals: list[list[Conjunct]] = [[] for _ in order]
    placed_sets = list(itertools.accumulate(({desc.binding} for desc in order), set.union))
    for position, conjunct in enumerate(conjuncts):
        if not used[position]:
            steps_placed = enumerate(placed_sets)
            target = next((at for at, placed in steps_placed if conjunct.reads <= placed), -1)
            residuals[target].append(conjunct)

    # ---- build the pipeline steps -----------------------------------------
    steps: list[_Step] = []
    first = order[0]
    scan_residuals = residuals[0]
    eq_columns = eq_key = range_column = range_spec = None
    if first.kind == STD:
        table = db.catalog.table(first.name)
        probe = probe_of(scan_residuals, first.binding, table)
        if probe is not None:
            eq_columns, eq_key = (probe[1].column,), compile_expr(probe[1].other, resolution)
        else:  # a range probe: the first column bounded, by its last bounds
            bounds: dict[str, list] = {}  # column -> [low, high, incl. low, incl. high]
            for conjunct in scan_residuals:
                for side in conjunct.sides:
                    if side.op == "=" or side.binding != first.binding or side.reads:
                        continue
                    index = table.index_on((side.column,))
                    if index is None or not hasattr(index, "range"):
                        continue
                    entry = bounds.setdefault(side.column, [None, None, True, True])
                    upper = side.op in ("<", "<=")
                    entry[upper] = compile_expr(side.other, resolution)
                    entry[upper + 2] = side.op in ("<=", ">=")
                    break
            if bounds:
                range_column, entry = next(iter(bounds.items()))
                range_spec = tuple(entry)
    steps.append(
        _ScanStep(
            first,
            n_slots=len(order),
            residual=conjunction(scan_residuals),
            eq_columns=eq_columns,
            eq_key=eq_key,
            range_column=range_column,
            range_spec=range_spec,
        )
    )
    for step_idx in range(1, len(order)):
        desc = order[step_idx]
        keys = join_specs[step_idx]
        residual = conjunction(residuals[step_idx])
        if keys:
            columns = tuple(column for column, _ in keys)
            probe_key = resolution.key([compile_expr(other, resolution) for _, other in keys])
            if probed(desc, columns) is not None:
                steps.append(_IndexJoinStep(desc, columns, probe_key, residual))
            else:
                build_key = resolution.key([resolution.column_of(desc, c)[0] for c in columns])
                steps.append(_HashJoinStep(desc, build_key, probe_key, residual))
        else:
            steps.append(_NestedJoinStep(desc, residual))

    output = _build_output(db, select, order, resolution)
    return CompiledSelect(select, order, steps, output, resolution.inline)


# --------------------------------------------------------------------------
# Output construction
# --------------------------------------------------------------------------


def _infer_type(expr: ast.Expr, resolution: _SelectResolution) -> ColumnType:
    if isinstance(expr, ast.ColumnRef):
        try:
            desc = resolution._find(expr.table, expr.name)
        except PlanError:
            return ColumnType.REAL
        if desc is None:
            if expr.name == "commit_time":
                return ColumnType.TIME
            return ColumnType.INT if expr.name == "commit_seq" else ColumnType.REAL
        return desc.schema.column(expr.name).type
    if isinstance(expr, ast.Literal):
        if isinstance(expr.value, bool):
            return ColumnType.BOOL
        if isinstance(expr.value, int):
            return ColumnType.INT
        if isinstance(expr.value, str):
            return ColumnType.TEXT
        return ColumnType.REAL
    if isinstance(expr, ast.FuncCall):
        if expr.name == "count":
            return ColumnType.INT
        if expr.name in ("sum", "min", "max", "avg") and expr.args:
            inner = _infer_type(expr.args[0], resolution)
            return inner if expr.name != "avg" else ColumnType.REAL
        return ColumnType.REAL
    if isinstance(expr, ast.BinaryOp):
        if expr.op in ("and", "or", "=", "!=", "<", "<=", ">", ">="):
            return ColumnType.BOOL
        left = _infer_type(expr.left, resolution)
        right = _infer_type(expr.right, resolution)
        if expr.op != "/" and left is ColumnType.INT and right is ColumnType.INT:
            return ColumnType.INT
        return ColumnType.REAL
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "not":
            return ColumnType.BOOL
        return _infer_type(expr.operand, resolution)
    if isinstance(expr, ast.IsNull):
        return ColumnType.BOOL
    return ColumnType.REAL


def default_name(expr: ast.Expr, index: int) -> str:
    """An unaliased output's name — a column's or a function's own, else
    ``col<index>`` — in a SELECT and a maintained view's backing table alike."""
    if isinstance(expr, (ast.ColumnRef, ast.FuncCall)):
        return expr.name
    return f"col{index}"


def _expand_items(
    select: ast.Select, order: list[SourceDesc]
) -> list[tuple[ast.Expr, Optional[str]]]:
    """Expand ``*`` / ``alias.*`` into explicit column references."""
    by_from = sorted(order, key=lambda desc: desc.from_pos)
    items: list[tuple[ast.Expr, Optional[str]]] = []
    for item in select.items:
        if isinstance(item, ast.StarItem):
            targets = by_from if item.table is None else [
                desc for desc in order if desc.binding == item.table
            ]
            if item.table is not None and not targets:
                raise PlanError(f"unknown table alias {item.table!r} in select list")
            for desc in targets:
                for column in desc.schema.columns:
                    items.append((ast.ColumnRef(desc.binding, column.name), column.name))
        else:
            items.append((item.expr, item.alias))
    return items


def output_names(db: Any, select: ast.Select, shadowing: dict[str, Schema]) -> list[str]:
    """The names of ``select``'s output columns — the columns a ``bind as``
    table of it carries — without planning it.  A FROM name in
    ``shadowing`` has that schema; any other is the catalog's (a
    :class:`PlanError` for a name it does not know)."""
    descs = []
    for from_pos, ref in enumerate(select.tables):
        if ref.name in shadowing:
            desc = SourceDesc(ref.name, ref.binding, TMP, shadowing[ref.name])
        else:
            desc = _describe_source(db, ref, None)
        desc.from_pos = from_pos
        descs.append(desc)
    return [
        alias or default_name(expr, index)
        for index, (expr, alias) in enumerate(_expand_items(select, descs))
    ]


def _build_output(
    db: Any, select: ast.Select, order: list[SourceDesc], resolution: _SelectResolution
) -> _OutputSpec:
    items = _expand_items(select, order)
    has_aggregate = bool(select.group_by) or any(
        ast.contains_aggregate(expr) for expr, _alias in items
    )
    if not has_aggregate:
        columns = []
        for index, (expr, alias) in enumerate(items):
            name = alias or default_name(expr, index)
            col_type = _infer_type(expr, resolution)
            if isinstance(expr, ast.ColumnRef):
                getter, ptr = resolution.resolve_output(expr.table, expr.name)
            else:
                getter, ptr = compile_expr(expr, resolution), None
            if ptr is not None:
                record_getter, offset, key = ptr
                columns.append(
                    OutputColumn(name, col_type, getter, record_getter, offset, key)
                )
            else:
                columns.append(OutputColumn(name, col_type, getter))
        order_keys = [
            (_row_key(compile_expr(item.expr, resolution), resolution.inline, len(order)),
             item.descending)
            for item in select.order_by
        ]
        if select.having is not None:
            raise PlanError("HAVING requires GROUP BY or aggregates")
        charge_free = not any(ast.calls_out(expr) for expr, _alias in items)
        return _PlainOutput(columns, order_keys, select.limit, select.distinct, charge_free)

    # ---- aggregate output --------------------------------------------------
    group_getters = [compile_expr(expr, resolution) for expr in select.group_by]
    groups = _GroupResolution(resolution, select.group_by)
    columns = []
    for index, (expr, alias) in enumerate(items):
        name = alias or default_name(expr, index)
        col_type = _infer_type(expr, resolution)
        getter = compile_expr(expr, groups)
        groups.aliases.setdefault(name, getter)
        columns.append(OutputColumn(name, col_type, getter))
    having = compile_expr(select.having, groups) if select.having is not None else None
    order_keys = [
        (_row_key(compile_expr(item.expr, groups)), item.descending) for item in select.order_by
    ]
    return _AggregateOutput(
        columns,
        group_getters,
        groups.agg_specs,
        having,
        order_keys,
        select.limit,
        select.distinct,
    )
