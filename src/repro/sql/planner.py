"""Planning and execution of SELECT statements.

A compiled plan is a left-deep pipeline of steps over an *environment*: a
list ``[state, h1, h2, ..., hn]`` with one handle per planned table.  A
handle is a :class:`~repro.storage.tuples.Record` for standard tables, a raw
``(ptrs, mats)`` row for temporary tables, or a plain value list for derived
(view) sources.  Column getters are compiled once per plan into closures
indexed by environment position.  The pipeline itself runs as one *fused
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

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.errors import ExecutionError, PlanError
from repro.sql import ast
from repro.sql.expressions import Getter, compile_expr, truthy
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
        inline: dict[Getter, str],
    ) -> None:
        self.select = select
        self.sources = sources  # planned order
        self.steps = steps
        self.output = output
        self.inline = inline  # getter -> its source over the nest's handles
        self._nests: dict[str, Callable] = {}  # sink -> compiled loop nest

    def state(self, db: Any, txn: Any, params: Any, pseudo: Any, namespace: Any) -> ExecState:
        """One execution's state, each source looked up by name in plan order
        (``namespace``, else the catalog, S-locking a standard table); a
        prepared rule query builds its own (``sql.executor.PreparedSelect``)."""
        state = ExecState(db, txn, dict(params or {}), dict(pseudo or {}), namespace)
        state.instances = [
            _fetch_instance(desc, db, txn, namespace, state) for desc in self.sources
        ]
        return state

    def _run(self, sink: str, state: ExecState, emit: Callable) -> None:
        """One execution of the fused nest: the active meter and the cost
        table are read now, not when the nest was compiled."""
        nest = self._nests.get(sink)
        if nest is None:
            nest = self._nests[sink] = _build_nest(self, sink)
        meter, cost = state.db.metering()
        nest(state, state.instances, meter, cost, emit)

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
        self._run("collect", state, emit)
        return finish()

    def bind(self, name: str, state: ExecState) -> TempTable:
        """Run the plan over ``state``'s instances and bind its rows as
        temporary table ``name`` (a rule query's ``bind as``).  When the
        output is the join's rows as they come, the nest appends them to the
        table itself — each row is touched once — and the ``row_output`` and
        ``bind_row`` charges follow in the order ``collect`` +
        ``SelectResult.bind`` make them."""
        db = state.db
        if not self.output.streams:
            return self.collect(state).bind(name, db)
        spec = self.output.bind_spec()
        table = TempTable(name, spec.schema, spec.static_map)
        try:
            self._run("bind", state, table.row_sink(len(spec.ptr_keys), len(spec.mat_columns)))
        except BaseException:
            table.retire()
            raise
        db.charge_each(len(table), "row_output", "bind_row")
        return table

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

    def __init__(self, inline: dict[Getter, str], slots: int) -> None:
        self.inline = inline
        self.slots = slots  # handles per environment
        self.head: list[str] = []  # per-execution set-up, before any charge
        self.body: list[str] = []
        self.tails: list[Callable[[], None]] = []  # written after the innermost body
        self.names: dict[str, Any] = {"_index": _live_index}  # the nest's globals
        self.counters: list[tuple[str, ...]] = []  # ops counted by k0, k1, ...

    def line(self, depth: int, text: str) -> None:
        self.body.append("    " * depth + text)

    def charge(self, depth: int, *ops: str) -> None:
        """Charge each of ``ops`` once, here, in this order."""
        for op in ops:
            self.line(depth, f"meter.total += c_{op}")
        self.line(depth, f"k{len(self.counters)} += 1")
        self.counters.append(ops)

    def env(self, level: int) -> str:
        """The environment list once ``level`` handles are bound."""
        handles = [f"h{p}" if p <= level else "None" for p in range(1, self.slots + 1)]
        return "[" + ", ".join(["state", *handles]) + "]"

    def value(self, getter: Getter, level: int) -> str:
        """Source evaluating ``getter``: inline for plain columns, else a
        call of the compiled closure on a fresh environment list."""
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


def _live_index(table: Any, columns: tuple[str, ...], method: str) -> Callable:
    """``table``'s index on ``columns``, by its probe method.  Index DDL
    moves ``Catalog.version``, so a plan reached through a statement's memo
    or a prepared firing never gets here stale; a plan object held across
    the DDL does."""
    index = table.index_on(columns)
    if index is None or not hasattr(index, method):
        raise ExecutionError(f"index on {table.name!r} {columns} changed; plan is stale")
    return getattr(index, method)


def _build_nest(plan: CompiledSelect, sink: str) -> Callable:
    """Write, compile and return ``plan``'s fused loop nest for one sink:
    ``collect`` calls ``emit(env)`` per joined row, ``bind`` pins a row's
    records and calls ``emit((ptrs, mats))``.

    Charges are float additions on ``meter.total`` in exactly the generator
    pipeline's order — generators start last step first, so hash builds run
    in reverse step order before the driving scan — with occurrences counted
    in local ints that reach ``meter.ops`` in a ``finally``."""
    nest = _Nest(plan.inline, len(plan.sources))
    for step in reversed(plan.steps):
        step.prelude(nest)
    depth = 2
    for step in plan.steps:
        depth = step.emit(nest, depth)
    if sink == "collect":
        nest.line(depth, f"emit({nest.env(nest.slots)})")
    else:
        spec = plan.output.bind_spec()
        records = [f"p{slot}" for slot in range(len(spec.ptr_keys))]
        for record, (_kind, pos, *slot) in zip(records, spec.ptr_keys):
            nest.line(depth, f"{record} = h{pos}" + (f"[0][{slot[0]}]" if slot else ""))
        mats = [nest.value(column.value, nest.slots) for column in spec.mat_columns]
        nest.line(depth, f"row = ({_tuple_source(records)}, {_tuple_source(mats)})")
        for record in records:
            nest.line(depth, f"{record}.pin()")
        nest.line(depth, "emit(row)")
    for tail in reversed(nest.tails):
        tail()
    ops = dict.fromkeys(op for counter in nest.counters for op in counter)
    lines = ["def nest(state, instances, meter, cost, emit):"]
    lines += [f"    i{p + 1} = instances[{p}]" for p in range(nest.slots)]
    lines += [f"    c_{op} = cost[{op!r}]" for op in ops]
    lines += ["    " + line for line in nest.head]
    lines += [f"    k{k} = 0" for k in range(len(nest.counters))]
    lines += ["    try:", *nest.body, "    finally:", "        ops = meter.ops"]
    for k, counter in enumerate(nest.counters):
        lines += [f"        if k{k}:"] + [f"            ops[{op!r}] += k{k}" for op in counter]
    return generate(lines, "nest", f"<nest {sink}>", nest.names)


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
        if self.desc.kind != STD or (self.eq_columns is None and self.range_column is None):
            nest.tails.append(nest.scan(depth, self.desc))
            nest.residual(depth + 1, self.residual, pos, "expr_eval")
            return depth + 1
        if self.eq_columns is not None:
            nest.head.append(f"x{pos} = _index(i{pos}, {self.eq_columns!r}, 'lookup')")
            nest.line(depth, f"rows = x{pos}({nest.value(self.eq_key, 0)})")
        else:
            low, high, *inclusive = self.range_spec
            bounds = ["None" if g is None else nest.value(g, 0) for g in (low, high)]
            nest.head.append(f"x{pos} = _index(i{pos}, {(self.range_column,)!r}, 'range')")
            nest.line(depth, f"rows = x{pos}({', '.join(bounds)}, {inclusive[0]}, {inclusive[1]})")
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
        nest.head.append(f"x{pos} = _index(i{pos}, {self.index_columns!r}, 'lookup')")
        nest.charge(depth, "index_probe")
        nest.loop(depth, pos, f"x{pos}({nest.value(self.key, pos - 1)})", "cursor_fetch")
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
        pos = self.desc.env_pos
        nest.charge(depth, "join_probe")
        nest.loop(depth, pos, f"b{pos}.get({nest.value(self.probe_key, pos - 1)}, ())")
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
    #: table can be filled by the nest itself (CompiledSelect.bind).
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
        order_keys: list[tuple[Getter, bool]],
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
        for getter, descending in reversed(self.order_keys):
            state.db.charge("sort_row", max(len(env_list), 1))
            env_list.sort(key=lambda env: _null_safe_key(getter(env)), reverse=descending)
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
        order_keys: list[tuple[Getter, bool]],
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
        if self.order_keys:
            for getter, descending in reversed(self.order_keys):
                group_envs.sort(key=lambda g: _null_safe_key(getter(g)), reverse=descending)
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


def _null_safe_key(value: Any) -> tuple:
    """Sort key placing NULLs last and avoiding cross-type comparisons."""
    if value is None:
        return (2, 0)
    if isinstance(value, str):
        return (1, value)
    if isinstance(value, bool):
        return (0, int(value))
    return (0, value)


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


class BindSpec:
    """Shared binding shape for one result-column list: schema, static map,
    and per-row extractors (pointer slots assigned per distinct source)."""

    __slots__ = ("schema", "static_map", "ptr_getters", "ptr_keys", "mat_columns")

    def __init__(self, columns: list[OutputColumn]) -> None:
        self.schema = Schema([Column(c.name, c.type) for c in columns])
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
        self.static_map = StaticMap(
            sources, ptr_labels=[f"p{i}" for i in range(len(self.ptr_getters))]
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
                    record.pin()
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


class _SelectResolution:
    """Column / param / function resolution for one SELECT's sources."""

    def __init__(
        self,
        db: Any,
        descs: list[SourceDesc],
        namespace: Optional[dict[str, Any]] = None,
    ) -> None:
        self.db = db
        self.descs = descs
        self.by_binding = {desc.binding: desc for desc in descs}
        self.namespace = namespace
        #: Getters a fused nest can write inline instead of calling.
        self.inline: dict[Getter, str] = {}

    # -- ResolutionContext protocol --

    def resolve_column(self, table: Optional[str], name: str) -> Getter:
        getter, _ptr = self.resolve_output(table, name)
        return getter

    def resolve_param(self, name: str) -> Getter:
        def _param(env: Any) -> Any:
            try:
                return env[0].params[name]
            except KeyError:
                raise ExecutionError(f"missing parameter :{name}") from None

        return _param

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
        self.inline[getter] = inline  # the same read, over the nest's handle h<pos>
        return getter, ptr

    def key(self, parts: list[Getter]) -> Getter:
        """One getter for a join key of one or several parts (a tuple)."""
        if len(parts) == 1:
            return parts[0]
        key = lambda env, parts=tuple(parts): tuple(part(env) for part in parts)
        if all(part in self.inline for part in parts):
            self.inline[key] = _tuple_source([self.inline[part] for part in parts])
        return key

    def _pseudo_getter(self, name: str) -> Getter:
        def _pseudo(env: Any) -> Any:
            try:
                return env[0].pseudo[name]
            except KeyError:
                raise ExecutionError(
                    f"pseudo column {name!r} is only available during rule binding"
                ) from None

        return _pseudo


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


def _split_conjuncts(expr: Optional[ast.Expr]) -> list[ast.Expr]:
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "and":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _compile_conjunction(
    exprs: list[ast.Expr], resolution: "_SelectResolution"
) -> Optional[Getter]:
    """One getter for the AND of ``exprs`` in order (None for none)."""
    if not exprs:
        return None
    combined = exprs[0]
    for expr in exprs[1:]:
        combined = ast.BinaryOp("and", combined, expr)
    return compile_expr(combined, resolution)


def _aliases_in(expr: ast.Expr, resolution_aliases: dict[str, SourceDesc]) -> set[str]:
    """Bindings referenced by ``expr`` (unqualified names resolved uniquely)."""
    out: set[str] = set()
    for ref in ast.column_refs(expr):
        if ref.table is not None:
            out.add(ref.table)
        else:
            matches = [
                binding
                for binding, desc in resolution_aliases.items()
                if desc.schema.has_column(ref.name)
            ]
            if len(matches) == 1:
                out.add(matches[0])
            elif len(matches) > 1:
                raise PlanError(f"column {ref.name!r} is ambiguous")
            # zero matches: pseudo column (commit_time) — no alias dependency
    return out


def _single_column_of(
    expr: ast.Expr, binding: str, desc: SourceDesc, aliases: dict[str, SourceDesc]
) -> Optional[str]:
    """If ``expr`` is a bare column of ``binding``, return the column name."""
    if not isinstance(expr, ast.ColumnRef):
        return None
    if expr.table is not None:
        return expr.name if expr.table == binding and desc.schema.has_column(expr.name) else None
    matches = [b for b, d in aliases.items() if d.schema.has_column(expr.name)]
    if matches == [binding]:
        return expr.name
    return None


def plan_select(
    db: Any, select: ast.Select, namespace: Optional[dict[str, Any]]
) -> CompiledSelect:
    """Compile ``select`` against the database catalog plus ``namespace``
    (the running task's bound/transition tables, if any)."""
    descs = [_describe_source(db, ref, namespace) for ref in select.tables]
    for from_pos, desc in enumerate(descs):
        desc.from_pos = from_pos
    bindings = {desc.binding: desc for desc in descs}
    if len(bindings) != len(descs):
        raise PlanError("duplicate table alias in FROM")

    conjuncts = _split_conjuncts(select.where)
    conjunct_aliases = [_aliases_in(conjunct, bindings) for conjunct in conjuncts]
    used = [False] * len(conjuncts)

    # ---- choose the join order -------------------------------------------
    remaining = list(descs)

    def _has_probeable_join_index(desc: SourceDesc) -> bool:
        """True if some equi-join conjunct could probe an index of ``desc``
        — such tables should be *joined into* the pipeline, not scanned."""
        if desc.kind != STD:
            return False
        table = db.catalog.table(desc.name)
        for i, conjunct in enumerate(conjuncts):
            if not isinstance(conjunct, ast.BinaryOp) or conjunct.op != "=":
                continue
            if desc.binding not in conjunct_aliases[i] or len(conjunct_aliases[i]) < 2:
                continue
            for side in (conjunct.left, conjunct.right):
                column = _single_column_of(side, desc.binding, desc, bindings)
                if column and table.index_on((column,)) is not None:
                    return True
        return False

    def _start_score(desc: SourceDesc) -> tuple:
        kind_rank = {TMP: 0, DERIVED: 1, STD: 2}[desc.kind]
        has_local_eq = 0
        if desc.kind == STD:
            table = db.catalog.table(desc.name)
            for i, conjunct in enumerate(conjuncts):
                if conjunct_aliases[i] == {desc.binding} and isinstance(conjunct, ast.BinaryOp):
                    if conjunct.op == "=":
                        for side, other in (
                            (conjunct.left, conjunct.right),
                            (conjunct.right, conjunct.left),
                        ):
                            column = _single_column_of(side, desc.binding, desc, bindings)
                            if column and not _aliases_in(other, bindings):
                                if table.index_on((column,)) is not None:
                                    has_local_eq = -1
        probeable = 1 if _has_probeable_join_index(desc) else 0
        return (kind_rank + has_local_eq, probeable, desc.from_pos)

    start = min(remaining, key=_start_score)
    order = [start]
    remaining.remove(start)
    join_specs: list[Optional[list[tuple[str, ast.Expr]]]] = [None]  # per planned table

    while remaining:
        placed = {desc.binding for desc in order}
        best: Optional[tuple[tuple, SourceDesc, list[tuple[str, ast.Expr]]]] = None
        for desc in remaining:
            keys: list[tuple[str, ast.Expr]] = []
            for i, conjunct in enumerate(conjuncts):
                if used[i] or not isinstance(conjunct, ast.BinaryOp) or conjunct.op != "=":
                    continue
                refs = conjunct_aliases[i]
                if desc.binding not in refs or not refs - {desc.binding} <= placed:
                    continue
                if not (refs - {desc.binding}) <= placed:
                    continue
                for side, other in (
                    (conjunct.left, conjunct.right),
                    (conjunct.right, conjunct.left),
                ):
                    column = _single_column_of(side, desc.binding, desc, bindings)
                    other_refs = _aliases_in(other, bindings)
                    if column and desc.binding not in other_refs and other_refs <= placed:
                        keys.append((column, other))
                        break
            if keys:
                has_index = 0
                if desc.kind == STD:
                    table = db.catalog.table(desc.name)
                    columns = tuple(k for k, _ in keys)
                    if table.index_on(columns) or (
                        len(keys) > 1 and table.index_on((keys[0][0],))
                    ):
                        has_index = -1
                    elif table.index_on((keys[0][0],)):
                        has_index = -1
                score = (has_index, {TMP: 0, DERIVED: 1, STD: 2}[desc.kind], desc.from_pos)
                if best is None or score < best[0]:
                    best = (score, desc, keys)
        if best is not None:
            _score, desc, keys = best
            # Mark the conjuncts we consumed as join keys.
            for column, other in keys:
                for i, conjunct in enumerate(conjuncts):
                    if used[i]:
                        continue
                    if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
                        sides = (
                            (conjunct.left, conjunct.right),
                            (conjunct.right, conjunct.left),
                        )
                        for side, other_side in sides:
                            if (
                                _single_column_of(side, desc.binding, desc, bindings) == column
                                and other_side is other
                            ):
                                used[i] = True
            order.append(desc)
            join_specs.append(keys)
            remaining.remove(desc)
        else:
            desc = remaining.pop(0)
            order.append(desc)
            join_specs.append(None)

    for env_pos, desc in enumerate(order, start=1):
        desc.env_pos = env_pos

    resolution = _SelectResolution(db, order, namespace)

    # ---- assign residual conjuncts to pipeline positions ------------------
    residuals: list[list[ast.Expr]] = [[] for _ in order]
    placed_sets = []
    running: set[str] = set()
    for desc in order:
        running = running | {desc.binding}
        placed_sets.append(set(running))
    for i, conjunct in enumerate(conjuncts):
        if used[i]:
            continue
        refs = conjunct_aliases[i]
        target = None
        for step_idx, placed in enumerate(placed_sets):
            if refs <= placed:
                target = step_idx
                break
        # No position holds every alias only when one of them is unknown:
        # compiling the conjunct anywhere raises the PlanError saying so.
        residuals[target if target is not None else -1].append(conjunct)

    # ---- build the pipeline steps -----------------------------------------
    steps: list[_Step] = []
    first = order[0]
    eq_columns = None
    eq_key = None
    scan_residuals = list(residuals[0])
    if first.kind == STD:
        table = db.catalog.table(first.name)
        for expr in list(scan_residuals):
            if isinstance(expr, ast.BinaryOp) and expr.op == "=":
                for side, other in ((expr.left, expr.right), (expr.right, expr.left)):
                    column = _single_column_of(side, first.binding, first, bindings)
                    if (
                        column
                        and not _aliases_in(other, bindings)
                        and table.index_on((column,)) is not None
                    ):
                        eq_columns = (column,)
                        eq_key = compile_expr(other, resolution)
                        break
                if eq_columns:
                    break
    range_column = None
    range_spec = None
    if eq_columns is None and first.kind == STD:
        table = db.catalog.table(first.name)
        bounds: dict[str, list] = {}
        for expr in scan_residuals:
            if not (isinstance(expr, ast.BinaryOp) and expr.op in ("<", "<=", ">", ">=")):
                continue
            for side, other, flip in (
                (expr.left, expr.right, False),
                (expr.right, expr.left, True),
            ):
                column = _single_column_of(side, first.binding, first, bindings)
                if not column or _aliases_in(other, bindings):
                    continue
                index = table.index_on((column,))
                if index is None or not hasattr(index, "range"):
                    continue
                op = expr.op
                if flip:  # literal OP column  ==  column OP' literal
                    op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
                getter = compile_expr(other, resolution)
                entry = bounds.setdefault(column, [None, None, True, True])
                if op in ("<", "<="):
                    entry[1] = getter
                    entry[3] = op == "<="
                else:
                    entry[0] = getter
                    entry[2] = op == ">="
                break
        if bounds:
            range_column, entry = next(iter(bounds.items()))
            range_spec = tuple(entry)
    steps.append(
        _ScanStep(
            first,
            n_slots=len(order),
            residual=_compile_conjunction(scan_residuals, resolution),
            eq_columns=eq_columns,
            eq_key=eq_key,
            range_column=range_column,
            range_spec=range_spec,
        )
    )
    for step_idx in range(1, len(order)):
        desc = order[step_idx]
        keys = join_specs[step_idx]
        residual = _compile_conjunction(residuals[step_idx], resolution)
        if keys:
            columns = tuple(column for column, _ in keys)
            probe_key = resolution.key([compile_expr(other, resolution) for _, other in keys])
            if desc.kind == STD and db.catalog.table(desc.name).index_on(columns) is not None:
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


def _infer_type(expr: ast.Expr, order: list[SourceDesc], resolution: _SelectResolution) -> ColumnType:
    if isinstance(expr, ast.ColumnRef):
        if expr.table is None and expr.name == "commit_time":
            for desc in order:
                if desc.schema.has_column("commit_time"):
                    break
            else:
                return ColumnType.TIME
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
            inner = _infer_type(expr.args[0], order, resolution)
            return inner if expr.name != "avg" else ColumnType.REAL
        return ColumnType.REAL
    if isinstance(expr, ast.BinaryOp):
        if expr.op in ("and", "or", "=", "!=", "<", "<=", ">", ">="):
            return ColumnType.BOOL
        left = _infer_type(expr.left, order, resolution)
        right = _infer_type(expr.right, order, resolution)
        if expr.op != "/" and left is ColumnType.INT and right is ColumnType.INT:
            return ColumnType.INT
        return ColumnType.REAL
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "not":
            return ColumnType.BOOL
        return _infer_type(expr.operand, order, resolution)
    if isinstance(expr, ast.IsNull):
        return ColumnType.BOOL
    return ColumnType.REAL


def _default_name(expr: ast.Expr, index: int) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FuncCall):
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
        alias or _default_name(expr, index)
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
            name = alias or _default_name(expr, index)
            col_type = _infer_type(expr, order, resolution)
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
            (compile_expr(item.expr, resolution), item.descending)
            for item in select.order_by
        ]
        if select.having is not None:
            raise PlanError("HAVING requires GROUP BY or aggregates")
        charge_free = not any(ast.calls_out(expr) for expr, _alias in items)
        return _PlainOutput(columns, order_keys, select.limit, select.distinct, charge_free)

    # ---- aggregate output --------------------------------------------------
    group_exprs = list(select.group_by)
    group_getters = [compile_expr(expr, resolution) for expr in group_exprs]
    agg_specs: list[_AggSpec] = []

    alias_getters: dict[str, Getter] = {}

    def compile_group_scoped(expr: ast.Expr) -> Getter:
        """Compile an expression evaluated per *group* environment
        ``(state, key_values, agg_values, representative_row_env)``."""
        for key_index, group_expr in enumerate(group_exprs):
            if expr == group_expr:
                return lambda genv, k=key_index: genv[1][k]
        if (
            isinstance(expr, ast.ColumnRef)
            and expr.table is None
            and expr.name in alias_getters
        ):
            # Output-alias reference in HAVING / ORDER BY (a common SQL
            # extension that paper-era systems also allowed).
            return alias_getters[expr.name]
        if isinstance(expr, ast.FuncCall) and expr.name in ast.AGGREGATE_NAMES:
            if expr.star:
                arg = None
            elif len(expr.args) == 1:
                arg = compile_expr(expr.args[0], resolution)
            elif not expr.args and expr.name == "count":
                arg = None
            else:
                raise PlanError(f"aggregate {expr.name.upper()} takes one argument")
            slot = len(agg_specs)
            agg_specs.append(_AggSpec(expr.name, arg, expr.distinct))
            return lambda genv, s=slot: genv[2][s]
        mentions_alias = any(
            ref.table is None and ref.name in alias_getters
            for ref in ast.column_refs(expr)
        )
        if not ast.contains_aggregate(expr) and not mentions_alias:
            row_getter = compile_expr(expr, resolution)
            # genv[3] is None for a global aggregate over empty input: a
            # non-aggregated item then has no defining row and yields NULL.
            return lambda genv: row_getter(genv[3]) if genv[3] is not None else None
        if isinstance(expr, ast.BinaryOp):
            left = compile_group_scoped(expr.left)
            right = compile_group_scoped(expr.right)
            from repro.sql.expressions import _ARITH, _COMPARE

            if expr.op == "and":
                return lambda genv: (
                    False
                    if left(genv) is False or right(genv) is False
                    else (None if left(genv) is None or right(genv) is None else True)
                )
            if expr.op == "or":
                return lambda genv: (
                    True
                    if left(genv) is True or right(genv) is True
                    else (None if left(genv) is None or right(genv) is None else False)
                )
            fn = _ARITH.get(expr.op) or _COMPARE.get(expr.op)
            if fn is None:
                raise PlanError(f"unknown operator {expr.op!r}")
            return lambda genv: fn(left(genv), right(genv))
        if isinstance(expr, ast.UnaryOp):
            inner = compile_group_scoped(expr.operand)
            if expr.op == "-":
                return lambda genv: None if (v := inner(genv)) is None else -v
            return lambda genv: None if (v := inner(genv)) is None else not v
        if isinstance(expr, ast.IsNull):
            inner = compile_group_scoped(expr.operand)
            if expr.negated:
                return lambda genv: inner(genv) is not None
            return lambda genv: inner(genv) is None
        if isinstance(expr, ast.FuncCall):
            fn, charge = resolution.resolve_function(expr.name)
            arg_getters = [compile_group_scoped(arg) for arg in expr.args]

            def _call(genv: Any) -> Any:
                charge()
                return fn(*[getter(genv) for getter in arg_getters])

            return _call
        raise PlanError(f"cannot compile aggregate expression {type(expr).__name__}")

    columns = []
    for index, (expr, alias) in enumerate(items):
        name = alias or _default_name(expr, index)
        col_type = _infer_type(expr, order, resolution)
        getter = compile_group_scoped(expr)
        alias_getters.setdefault(name, getter)
        columns.append(OutputColumn(name, col_type, getter))
    having = compile_group_scoped(select.having) if select.having is not None else None
    order_keys = [
        (compile_group_scoped(item.expr), item.descending) for item in select.order_by
    ]
    return _AggregateOutput(
        columns,
        group_getters,
        agg_specs,
        having,
        order_keys,
        select.limit,
        select.distinct,
    )
