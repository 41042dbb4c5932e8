"""Statement execution: SELECT dispatch, prepared DML, and the memo they share.

DDL statements (CREATE/DROP) are handled by the :class:`~repro.database.
Database` itself since they mutate the catalog; everything row-touching
lives here and runs inside a transaction, charging virtual-time costs.
A SELECT is compiled into its plan and UPDATE, DELETE and INSERT are
*prepared* into one closure, each on first execution, and kept on the
statement node until ``Catalog.version`` moves (DESIGN.md 6a, "Prepared
DML").
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Union

from repro.errors import ExecutionError
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


def namespace_key(names: Sequence[str], namespace: Optional[dict[str, Any]]) -> tuple:
    """What a plan of a statement naming ``names`` (subqueries' FROM names
    included) depends on in ``namespace``: ``()`` when the namespace holds
    none of them, else ``(name, schema, static-map signature)`` per name it
    holds.

    Bound and transition tables shadow catalog names and are fresh instances
    per rule firing, but keep equal schemas and static maps, so what was
    prepared for one firing serves the next.  A plan bakes column offsets and
    pointer slots into generated code, so the key is the shape by value,
    never an ``id()`` a later, different shape could come to own.
    """
    if namespace:
        for name in names:
            if name in namespace:
                shadowed = [(n, namespace[n]) for n in names if n in namespace]
                return tuple((n, t.schema, t.static_map.signature()) for n, t in shadowed)
    return ()


def _memoized(db: Any, stmt: Any, namespace: Optional[dict[str, Any]], prepare: Callable) -> Any:
    """What ``prepare(db, stmt, namespace)`` makes of ``stmt``, from the
    statement's memo while it is valid.

    The memo is ``[catalog, version, names, {namespace key: prepared}]``, a
    list the node owns.  A plan or closure holds what the catalog resolved
    when it was made: tables, indexes, column offsets, view subplans, scalar
    functions.  So it serves while the memo's catalog *is* ``db.catalog``
    (the same node run against another database re-prepares) and
    ``Catalog.version``, which every DDL moves, has not moved; otherwise the
    memo starts over.  Within one stamp only the namespace varies: ``names``
    (walked once per stamp) and :func:`namespace_key` key it.
    """
    memo, catalog = stmt.plan_memo, db.catalog
    if not memo or memo[0] is not catalog or memo[1] != catalog.version:
        memo[:] = catalog, catalog.version, sorted(ast.table_names(stmt)), {}
    key = namespace_key(memo[2], namespace)
    prepared = memo[3].get(key)
    if prepared is None:
        prepared = memo[3][key] = prepare(db, stmt, namespace)
    return prepared


def select_plan(
    db: Any, select: ast.Select, namespace: Optional[dict[str, Any]] = None
) -> CompiledSelect:
    """The compiled plan for ``select``, from its memo or built now."""
    return _memoized(db, select, namespace, plan_select)


class PreparedSelect:
    """A rule's query, planned with its S-locks and sources once per shape of
    the bound tables that shadow its names (DESIGN.md 6a, "Prepared
    firings"): the ``fixed`` (transition) names resolve to the namespace, any
    other to the catalog unless the namespace holds it too — a cascade's
    bound table.  The rule engine rebuilds it when ``Catalog.version`` moves."""

    __slots__ = ("select", "bind_as", "_loose", "_plans")

    def __init__(self, select: ast.Select, bind_as: Optional[str], fixed: Sequence[str]) -> None:
        self.select, self.bind_as = select, bind_as
        self._loose = sorted(ast.table_names(select).difference(fixed))
        #: namespace key -> (plan, locks, instance vector recipe, names handed over)
        self._plans: dict[tuple, tuple] = {}

    def run(self, db: Any, txn: Any, pseudo: dict[str, Any], namespace: dict[str, Any]) -> Any:
        """The result set — with ``bind as``, the bound table."""
        key = namespace_key(self._loose, namespace)
        prepared = self._plans.get(key)
        if prepared is None:
            plan = plan_select(db, self.select, namespace)
            sources, catalog = plan.sources, db.catalog
            # Per source the table or view plan it reads, or None: a slot
            # the namespace fills per firing.
            prepared = self._plans[key] = (
                plan,
                [desc.name for desc in sources if desc.kind == STD],
                [None if d.kind == TMP else d.subplan or catalog.table(d.name) for d in sources],
                [(at, desc.name) for at, desc in enumerate(sources) if desc.kind == TMP],
            )
        plan, locks, recipe, named = prepared
        for name in locks:
            txn.lock_table_shared(name)
        state = ExecState(db, txn, {}, pseudo, namespace)
        instances = state.instances = recipe.copy()
        for at, name in named:
            instances[at] = namespace[name]
        return plan.collect(state) if self.bind_as is None else plan.bind(self.bind_as, state)


def execute_select(
    db: Any,
    select: Union[ast.Select, PreparedSelect],
    txn: Any,
    params: Optional[dict[str, Any]] = None,
    pseudo: Optional[dict[str, Any]] = None,
    namespace: Optional[dict[str, Any]] = None,
) -> Union[SelectResult, TempTable]:
    """Plan (memoised) and execute one SELECT against catalog + namespace.  A
    rule's prepared query runs its own plan, and with ``bind as`` returns
    its rows as that bound table."""
    if isinstance(select, PreparedSelect):
        return select.run(db, txn, pseudo, namespace)
    return select_plan(db, select, namespace).execute(db, txn, params, pseudo, namespace)


# --------------------------------------------------------------------------
# DML: prepared on first execution, then one closure call per statement
# --------------------------------------------------------------------------


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


def _prepare_update(db: Any, stmt: ast.Update, namespace: Optional[dict[str, Any]]) -> Prepared:
    table = db.catalog.table(stmt.table)
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

    return run


def _prepare_delete(db: Any, stmt: ast.Delete, namespace: Optional[dict[str, Any]]) -> Prepared:
    table = db.catalog.table(stmt.table)
    resolution = _row_scope(db, table, namespace)
    match = _prepare_match(db, table, stmt.where, resolution)

    def run(txn: Any, params: Any, namespace: Any) -> int:
        matches = match(ExecState(db, txn, params or {}, {}, namespace))
        for record in matches:
            txn.delete_record(table, record)
        return len(matches)

    return run


def _prepare_insert(db: Any, stmt: ast.Insert, namespace: Optional[dict[str, Any]]) -> Prepared:
    table = db.catalog.table(stmt.table)
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

        return run_select

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

    return run_values


def execute_insert(
    db: Any,
    stmt: ast.Insert,
    txn: Any,
    params: Optional[dict[str, Any]] = None,
    namespace: Optional[dict[str, Any]] = None,
) -> int:
    """Run one INSERT (VALUES or SELECT form); returns rows inserted."""
    return _memoized(db, stmt, namespace, _prepare_insert)(txn, params, namespace)


def execute_update(
    db: Any,
    stmt: ast.Update,
    txn: Any,
    params: Optional[dict[str, Any]] = None,
    namespace: Optional[dict[str, Any]] = None,
) -> int:
    """Run one UPDATE (index-accelerated); returns the number of rows
    updated.  ``namespace`` holds the bound tables its subqueries may read."""
    txn.lock_table_shared(db.catalog.table(stmt.table).name)  # held even if preparing fails
    return _memoized(db, stmt, namespace, _prepare_update)(txn, params, namespace)


def execute_delete(
    db: Any,
    stmt: ast.Delete,
    txn: Any,
    params: Optional[dict[str, Any]] = None,
    namespace: Optional[dict[str, Any]] = None,
) -> int:
    """Run one DELETE; returns the number of rows deleted."""
    txn.lock_table_shared(db.catalog.table(stmt.table).name)
    return _memoized(db, stmt, namespace, _prepare_delete)(txn, params, namespace)
