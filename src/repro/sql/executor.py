"""Statement execution: SELECT dispatch, prepared DML, and the plan cache.

DDL statements (CREATE/DROP) are handled by the :class:`~repro.database.
Database` itself since they mutate the catalog; everything row-touching
lives here and runs inside a transaction, charging virtual-time costs.
UPDATE, DELETE and INSERT are *prepared* on first execution into one closure
per statement, kept on the statement node (DESIGN.md 6a, "Prepared DML").
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Union

from repro.errors import ExecutionError, PlanError
from repro.sql import ast
from repro.sql.expressions import compile_expr
from repro.sql.planner import (
    STD,
    TMP,
    CompiledSelect,
    ExecState,
    SelectResult,
    SourceDesc,
    _compile_conjunction,
    _SelectResolution,
    _split_conjuncts,
    plan_select,
)
from repro.storage.table import Table
from repro.storage.temptable import TempTable
from repro.storage.tuples import Record

#: A prepared statement: ``run(txn, params, namespace) -> rows affected``.
Prepared = Callable[[Any, Optional[dict[str, Any]], Optional[dict[str, Any]]], int]


def _source_shapes(db: Any, select: ast.Select, namespace: Optional[dict[str, Any]]) -> tuple:
    """The *shape* of every source ``select`` names, by value.

    Bound and transition tables are fresh instances per rule firing but keep
    equal schemas and static maps, so plans compiled for one firing are
    reused for the next.  A plan bakes column offsets and pointer slots into
    generated code, so the key is the shape itself, never an ``id()`` a
    later, different shape could come to own.
    """
    shapes = []
    for ref in select.tables:
        name = ref.name
        if namespace and name in namespace:
            instance = namespace[name]
            shapes.append((name, "tmp", instance.schema, instance.static_map.signature()))
        elif db.catalog.has_table(name):
            table = db.catalog.table(name)
            shapes.append((name, "std", table.schema, table.index_version))
        elif db.catalog.has_view(name):
            shapes.append((name, "view", db.view_version(name)))
        else:
            raise PlanError(f"unknown table or view {name!r}")
    return tuple(shapes)


def select_plan(
    db: Any, select: ast.Select, namespace: Optional[dict[str, Any]] = None
) -> CompiledSelect:
    """Fetch (or build and cache) the compiled plan for ``select``."""
    key = (select, _source_shapes(db, select, namespace))
    plan = db.plan_cache.get(key)
    if plan is None:
        plan = db.plan_cache[key] = plan_select(db, select, namespace)
    return plan


class PreparedSelect:
    """A rule's query, planned with its S-locks and sources once per shape of
    what its FROM names resolve to (DESIGN.md 6a, "Prepared firings"): the
    ``fixed`` (transition) names to the namespace, any other to the catalog
    unless the namespace holds it too — a cascade's bound table."""

    __slots__ = ("select", "bind_as", "_loose", "_plans")

    def __init__(self, select: ast.Select, bind_as: Optional[str], fixed: Sequence[str]) -> None:
        self.select, self.bind_as = select, bind_as
        self._loose = [ref.name for ref in select.tables if ref.name not in fixed]
        self._plans: dict[tuple, tuple] = {}  # shadowing shapes -> (plan, locks, sources)

    def run(self, db: Any, txn: Any, pseudo: dict[str, Any], namespace: dict[str, Any]) -> Any:
        """The result set — with ``bind as``, the bound table."""
        key: tuple = ()
        for name in self._loose:
            if name in namespace:  # bound tables shadow catalog names: key on their shapes
                shadowed = [(n, namespace[n]) for n in self._loose if n in namespace]
                key = tuple((n, t.schema, t.static_map.signature()) for n, t in shadowed)
                break
        prepared = self._plans.get(key)
        if prepared is None:
            plan = plan_select(db, self.select, namespace)
            locks = [desc.name for desc in plan.sources if desc.kind == STD]
            # Per source: the table or view plan it reads, or None when the
            # namespace hands it over per firing.
            catalog = db.catalog
            sources = [
                (desc.name, None if desc.kind == TMP else desc.subplan or catalog.table(desc.name))
                for desc in plan.sources
            ]
            prepared = self._plans[key] = plan, locks, sources
        plan, locks, sources = prepared
        for name in locks:
            txn.lock_table_shared(name)
        state = ExecState(db, txn, {}, pseudo, namespace)
        state.instances = [namespace[name] if fixed is None else fixed for name, fixed in sources]
        return plan.collect(state) if self.bind_as is None else plan.bind(self.bind_as, state)


def execute_select(
    db: Any,
    select: Union[ast.Select, PreparedSelect],
    txn: Any,
    params: Optional[dict[str, Any]] = None,
    pseudo: Optional[dict[str, Any]] = None,
    namespace: Optional[dict[str, Any]] = None,
) -> Union[SelectResult, TempTable]:
    """Plan (cached) and execute one SELECT against catalog + namespace.  A
    rule's prepared query runs its own plan, and with ``bind as`` returns
    its rows as that bound table."""
    if isinstance(select, PreparedSelect):
        return select.run(db, txn, pseudo, namespace)
    return select_plan(db, select, namespace).execute(db, txn, params, pseudo, namespace)


# --------------------------------------------------------------------------
# DML: prepared on first execution, then one closure call per statement
# --------------------------------------------------------------------------


def _prepared(
    db: Any,
    stmt: Union[ast.Insert, ast.Update, ast.Delete],
    table: Table,
    namespace: Optional[dict[str, Any]],
    prepare: Callable[..., tuple[Prepared, list[ast.Select]]],
) -> Prepared:
    """``stmt``'s prepared closure, from its one-entry memo when still valid.

    A closure holds the live ``table``, the index it probes and column
    offsets, so it serves while ``table`` is the very object the catalog has
    under that name (a dropped and re-created table is a new object; the
    held reference keeps the old identity from being reused) and no index
    DDL has touched it.  A statement with subqueries also compares their
    sources' shapes, as the SELECT plan cache does; one without (every
    statement of the benchmark workloads) pays nothing for that.
    """
    memo = stmt.plan_memo
    if memo:
        memo_table, index_version, selects, shapes, run = memo
        if (
            memo_table is table
            and index_version == table.index_version
            and (not selects or shapes == [_source_shapes(db, s, namespace) for s in selects])
        ):
            return run
    run, selects = prepare(db, table, stmt, namespace)
    shapes = [_source_shapes(db, select, namespace) for select in selects]
    memo[:] = table, table.index_version, selects, shapes, run
    return run


def _row_scope(db: Any, table: Table, namespace: Optional[dict[str, Any]]) -> _SelectResolution:
    """Name resolution for UPDATE / DELETE: the target's columns at
    environment slot 1; ``namespace`` (a task's bound tables) is what the
    statement's subqueries may read beside the catalog."""
    desc = SourceDesc(name=table.name, binding=table.name, kind=STD, schema=table.schema)
    desc.env_pos = 1
    return _SelectResolution(db, [desc], namespace)


def _prepare_match(
    db: Any, table: Table, where: Optional[ast.Expr], resolution: _SelectResolution
) -> Callable[[ExecState], list[Record]]:
    """Compile a single-table WHERE into ``match(state) -> records``.

    One conjunct of the form ``column = <expression over no column>`` on an
    indexed column becomes an index probe; every other conjunct is the
    residual evaluated per candidate.  The probed conjunct itself holds for
    every candidate of a non-NULL key, so it leaves the residual — unless
    its operand can charge (function call, subquery), when re-evaluating it
    per candidate is part of the statement's cost.  Without such a conjunct
    the table is scanned.  Charges are inline (DESIGN.md 6a), in the order
    cursor_open, index_probe | row_scan (one addition for the whole scan),
    per candidate cursor_fetch then expr_eval, cursor_close.
    """
    conjuncts = residual_of = _split_conjuncts(where)
    index = key_expr = None
    for position, conjunct in enumerate(conjuncts):
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            continue
        for side, other in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if (
                isinstance(side, ast.ColumnRef)
                and (side.table in (None, table.name))
                and table.schema.has_column(side.name)
                and not ast.column_refs(other)
            ):
                index = table.index_on((side.name,))
                if index is not None:
                    key_expr = other
                    if not ast.calls_out(other):
                        residual_of = conjuncts[:position] + conjuncts[position + 1 :]
                    break
        if index is not None:
            break
    residual = _compile_conjunction(residual_of, resolution)
    key_of = compile_expr(key_expr, resolution) if index is not None else None
    filtered = where is not None  # every candidate of a WHERE costs one expr_eval

    def match(state: ExecState) -> list[Record]:
        meter, cost = db.metering()
        ops, fetch_cost, eval_cost = meter.ops, cost["cursor_fetch"], cost["expr_eval"]
        env: list[Any] = [state, None]
        matches: list[Record] = []
        meter.total += cost["cursor_open"]
        ops["cursor_open"] += 1
        if index is not None:
            key = key_of(env)
            meter.total += cost["index_probe"]
            ops["index_probe"] += 1
            candidates = index.lookup(key)
            unknown = key is None  # ``column = NULL`` holds for no row
        else:
            scanned = max(len(table), 1)
            meter.total += cost["row_scan"] * scanned
            ops["row_scan"] += scanned
            candidates = table.scan()
            unknown = False
        fetched = 0
        try:
            for record in candidates:
                meter.total += fetch_cost
                fetched += 1
                if filtered:
                    meter.total += eval_cost
                    if residual is not None:
                        env[1] = record
                        if not residual(env):
                            continue
                    if unknown:
                        continue
                matches.append(record)
        finally:
            if fetched:
                ops["cursor_fetch"] += fetched
                if filtered:
                    ops["expr_eval"] += fetched
        meter.total += cost["cursor_close"]
        ops["cursor_close"] += 1
        return matches

    return match


def _prepare_update(
    db: Any, table: Table, stmt: ast.Update, namespace: Optional[dict[str, Any]]
) -> tuple[Prepared, list[ast.Select]]:
    resolution = _row_scope(db, table, namespace)
    match = _prepare_match(db, table, stmt.where, resolution)
    assignments = [
        (
            table.schema.offset(assignment.column),
            compile_expr(assignment.expr, resolution),
            1 if assignment.increment else -1 if assignment.decrement else 0,
        )
        for assignment in stmt.assignments
    ]

    def run(txn: Any, params: Any, namespace: Any) -> int:
        state = ExecState(db, txn, params or {}, {}, namespace)
        matches = match(state)
        env = [state, None]
        for record in matches:
            env[1] = record
            values = list(record.values)
            for offset, value_of, sign in assignments:
                value = value_of(env)
                if sign:
                    current = values[offset]
                    if current is None or value is None:
                        value = None
                    else:
                        value = current + value if sign > 0 else current - value
                values[offset] = value
            txn.update_record(table, record, values)
        return len(matches)

    return run, resolution.subqueries


def _prepare_delete(
    db: Any, table: Table, stmt: ast.Delete, namespace: Optional[dict[str, Any]]
) -> tuple[Prepared, list[ast.Select]]:
    resolution = _row_scope(db, table, namespace)
    match = _prepare_match(db, table, stmt.where, resolution)

    def run(txn: Any, params: Any, namespace: Any) -> int:
        matches = match(ExecState(db, txn, params or {}, {}, namespace))
        for record in matches:
            txn.delete_record(table, record)
        return len(matches)

    return run, resolution.subqueries


def _prepare_insert(
    db: Any, table: Table, stmt: ast.Insert, namespace: Optional[dict[str, Any]]
) -> tuple[Prepared, list[ast.Select]]:
    schema = table.schema
    width = len(schema)
    if stmt.columns:
        offsets = [schema.offset(column) for column in stmt.columns]
    else:
        offsets = list(range(width))

    if stmt.select is not None:
        select = stmt.select

        def run_select(txn: Any, params: Any, namespace: Any) -> int:
            result = execute_select(db, select, txn, params, namespace=namespace)
            if len(result.columns) != len(offsets):
                raise ExecutionError(
                    f"INSERT ... SELECT arity mismatch: {len(result.columns)} columns "
                    f"for {len(offsets)} targets"
                )
            rows = result.rows()
            for values in rows:
                row: list[Any] = [None] * width
                for offset, value in zip(offsets, values):
                    row[offset] = value
                txn.insert_record(table, row)
            return len(rows)

        return run_select, []

    resolution = _SelectResolution(db, [], namespace)  # INSERT VALUES: no row scope
    rows: list[list[tuple[int, Callable]]] = []
    arity_error = None
    for exprs in stmt.rows:
        if len(exprs) != len(offsets):
            # Raised when a run reaches this row: the rows before it go in.
            arity_error = f"INSERT arity mismatch: {len(exprs)} values for {len(offsets)} targets"
            break
        rows.append(
            [(offset, compile_expr(expr, resolution)) for offset, expr in zip(offsets, exprs)]
        )

    def run_values(txn: Any, params: Any, namespace: Any) -> int:
        env = [ExecState(db, txn, params or {}, {}, namespace)]
        for getters in rows:
            row: list[Any] = [None] * width
            for offset, value_of in getters:
                row[offset] = value_of(env)
            txn.insert_record(table, row)
        if arity_error is not None:
            raise ExecutionError(arity_error)
        return len(rows)

    return run_values, resolution.subqueries


def execute_insert(
    db: Any,
    stmt: ast.Insert,
    txn: Any,
    params: Optional[dict[str, Any]] = None,
    namespace: Optional[dict[str, Any]] = None,
) -> int:
    """Run one INSERT (VALUES or SELECT form); returns rows inserted."""
    table = db.catalog.table(stmt.table)
    return _prepared(db, stmt, table, namespace, _prepare_insert)(txn, params, namespace)


def execute_update(
    db: Any,
    stmt: ast.Update,
    txn: Any,
    params: Optional[dict[str, Any]] = None,
    namespace: Optional[dict[str, Any]] = None,
) -> int:
    """Run one UPDATE (index-accelerated); returns the number of rows
    updated.  ``namespace`` holds the bound tables its subqueries may read."""
    table = db.catalog.table(stmt.table)
    txn.lock_table_shared(table.name)  # before preparing: held even if that fails
    return _prepared(db, stmt, table, namespace, _prepare_update)(txn, params, namespace)


def execute_delete(
    db: Any,
    stmt: ast.Delete,
    txn: Any,
    params: Optional[dict[str, Any]] = None,
    namespace: Optional[dict[str, Any]] = None,
) -> int:
    """Run one DELETE; returns the number of rows deleted."""
    table = db.catalog.table(stmt.table)
    txn.lock_table_shared(table.name)
    return _prepared(db, stmt, table, namespace, _prepare_delete)(txn, params, namespace)
