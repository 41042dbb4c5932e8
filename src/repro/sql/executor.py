"""Statement execution: SELECT dispatch, DML, and the plan cache.

DDL statements (CREATE/DROP) are handled by the :class:`~repro.database.
Database` itself since they mutate the catalog; everything row-touching
lives here and runs inside a transaction, charging virtual-time costs.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from repro.errors import ExecutionError, PlanError
from repro.sql import ast
from repro.sql.expressions import compile_expr, truthy
from repro.sql.planner import (
    STD,
    CompiledSelect,
    SelectResult,
    SourceDesc,
    _SelectResolution,
    plan_select,
)
from repro.storage.table import Table
from repro.storage.temptable import TempTable
from repro.storage.tuples import Record


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
    db: Any, select: Union[ast.Select, ast.RuleQuery], namespace: Optional[dict[str, Any]] = None
) -> CompiledSelect:
    """Fetch (or build and cache) the compiled plan for ``select``.

    A rule's query answers from its own one-entry memo while the shapes
    match: a firing then compares shape tuples (equal schemas are the same
    objects from one firing to the next) instead of hashing the SELECT's AST.
    """
    query = select if isinstance(select, ast.RuleQuery) else None
    if query is not None:
        select = query.select
    shapes = _source_shapes(db, select, namespace)
    if query is not None and query.plan_memo:
        memo_db, memo_shapes, plan = query.plan_memo
        if memo_db is db and memo_shapes == shapes:
            return plan
    key = (select, shapes)
    plan = db.plan_cache.get(key)
    if plan is None:
        plan = plan_select(db, select, namespace)
        db.plan_cache[key] = plan
    if query is not None:
        query.plan_memo[:] = db, shapes, plan
    return plan


def execute_select(
    db: Any,
    select: Union[ast.Select, ast.RuleQuery],
    txn: Any,
    params: Optional[dict[str, Any]] = None,
    pseudo: Optional[dict[str, Any]] = None,
    namespace: Optional[dict[str, Any]] = None,
) -> Union[SelectResult, TempTable]:
    """Plan (cached) and execute one SELECT against catalog + namespace.
    A rule's query with ``bind as`` returns its rows as that bound table."""
    plan = select_plan(db, select, namespace)
    if isinstance(select, ast.RuleQuery) and select.bind_as is not None:
        return plan.bind(select.bind_as, db, txn, pseudo, namespace)
    return plan.execute(db, txn, params, pseudo, namespace)


# --------------------------------------------------------------------------
# DML
# --------------------------------------------------------------------------


def execute_insert(
    db: Any,
    stmt: ast.Insert,
    txn: Any,
    params: Optional[dict[str, Any]] = None,
    namespace: Optional[dict[str, Any]] = None,
) -> int:
    """Run one INSERT (VALUES or SELECT form); returns rows inserted."""
    table = db.catalog.table(stmt.table)
    schema = table.schema
    if stmt.columns:
        offsets = [schema.offset(column) for column in stmt.columns]
    else:
        offsets = list(range(len(schema)))
    inserted = 0
    if stmt.select is not None:
        result = execute_select(db, stmt.select, txn, params, namespace=namespace)
        width = len(result.columns)
        if width != len(offsets):
            raise ExecutionError(
                f"INSERT ... SELECT arity mismatch: {width} columns for {len(offsets)} targets"
            )
        for values in result.rows():
            row: list[Any] = [None] * len(schema)
            for offset, value in zip(offsets, values):
                row[offset] = value
            txn.insert_record(table, row)
            inserted += 1
        return inserted
    resolution = _SelectResolution(db, [])  # INSERT VALUES: no row scope
    from repro.sql.planner import ExecState

    state = ExecState(db, txn, dict(params or {}), {})
    env = [state]
    for exprs in stmt.rows:
        if len(exprs) != len(offsets):
            raise ExecutionError(
                f"INSERT arity mismatch: {len(exprs)} values for {len(offsets)} targets"
            )
        row = [None] * len(schema)
        for offset, expr in zip(offsets, exprs):
            row[offset] = compile_expr(expr, resolution)(env)
        txn.insert_record(table, row)
        inserted += 1
    return inserted


class _CompiledMatcher:
    """Compiled single-table WHERE evaluation with optional index probe."""

    def __init__(self, db: Any, table: Table, where: Optional[ast.Expr]) -> None:
        from repro.sql.planner import _split_conjuncts

        desc = SourceDesc(name=table.name, binding=table.name, kind=STD, schema=table.schema)
        desc.env_pos = 1
        self.resolution = _SelectResolution(db, [desc])
        self.predicate = compile_expr(where, self.resolution) if where is not None else None
        self.index_column: Optional[str] = None
        self.index_key = None
        if where is not None:
            for conjunct in _split_conjuncts(where):
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
                        and table.index_on((side.name,)) is not None
                    ):
                        self.index_column = side.name
                        self.index_key = compile_expr(other, self.resolution)
                        break
                if self.index_column is not None:
                    break

    def matches(self, db: Any, table: Table, state: Any) -> list[Record]:
        charge = db.charge
        charge("cursor_open")
        if self.index_column is not None:
            key = self.index_key([state])
            charge("index_probe")
            candidates = list(table.lookup((self.index_column,), key))
        else:
            candidates = list(table.scan())
            charge("row_scan", max(len(candidates), 1))
        predicate = self.predicate
        matches = []
        env = [state, None]
        for record in candidates:
            charge("cursor_fetch")
            if predicate is not None:
                env[1] = record
                charge("expr_eval")
                if not truthy(predicate(env)):
                    continue
            matches.append(record)
        charge("cursor_close")
        return matches


class _CompiledUpdate:
    def __init__(self, db: Any, table: Table, stmt: ast.Update) -> None:
        self.matcher = _CompiledMatcher(db, table, stmt.where)
        self.assignments = [
            (
                table.schema.offset(assignment.column),
                compile_expr(assignment.expr, self.matcher.resolution),
                assignment.increment,
                assignment.decrement,
            )
            for assignment in stmt.assignments
        ]


def _dml_plan(db: Any, stmt: Any, table: Table, factory) -> Any:
    key = (stmt, table.schema, table.index_version)
    plan = db.plan_cache.get(key)
    if plan is None:
        plan = db.plan_cache[key] = factory()
    return plan


def execute_update(
    db: Any,
    stmt: ast.Update,
    txn: Any,
    params: Optional[dict[str, Any]] = None,
) -> int:
    """Run one UPDATE (index-accelerated, compiled-plan cached); returns
    the number of rows updated."""
    from repro.sql.planner import ExecState

    table = db.catalog.table(stmt.table)
    txn.lock_table_shared(table.name)
    plan: _CompiledUpdate = _dml_plan(db, stmt, table, lambda: _CompiledUpdate(db, table, stmt))
    state = ExecState(db, txn, params or {}, {})
    matches = plan.matcher.matches(db, table, state)
    env = [state, None]
    for record in matches:
        env[1] = record
        values = list(record.values)
        for offset, getter, increment, decrement in plan.assignments:
            value = getter(env)
            if increment:
                current = values[offset]
                values[offset] = None if current is None or value is None else current + value
            elif decrement:
                current = values[offset]
                values[offset] = None if current is None or value is None else current - value
            else:
                values[offset] = value
        txn.update_record(table, record, values)
    return len(matches)


def execute_delete(
    db: Any,
    stmt: ast.Delete,
    txn: Any,
    params: Optional[dict[str, Any]] = None,
) -> int:
    """Run one DELETE; returns the number of rows deleted."""
    from repro.sql.planner import ExecState

    table = db.catalog.table(stmt.table)
    txn.lock_table_shared(table.name)
    plan: _CompiledMatcher = _dml_plan(
        db, stmt, table, lambda: _CompiledMatcher(db, table, stmt.where)
    )
    state = ExecState(db, txn, params or {}, {})
    matches = plan.matches(db, table, state)
    for record in matches:
        txn.delete_record(table, record)
    return len(matches)
