"""Statement execution: SELECT dispatch, prepared DML, and the memo they share.

DDL statements (CREATE/DROP) are handled by the :class:`~repro.database.
Database` itself since they mutate the catalog; everything row-touching
lives here and runs inside a transaction, charging virtual-time costs.
A SELECT is compiled into its plan, UPDATE and DELETE into one generated
function and INSERT into one closure, each on first execution, and kept on
the statement node until ``Catalog.version`` moves (DESIGN.md 6a, "Prepared
DML").
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Union

from repro.errors import ExecutionError
from repro.sql import ast
from repro.sql.expressions import Getter, compile_expr
from repro.sql.planner import (
    STD,
    TMP,
    CompiledSelect,
    ExecState,
    SelectResult,
    SourceDesc,
    _SelectResolution,
    classify,
    combine,
    plan_select,
    probe_of,
)
from repro.storage.temptable import TempTable, generate

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
# DML: prepared on first execution, then one call per statement
# --------------------------------------------------------------------------


def _prepare_write(
    db: Any, stmt: Union[ast.Update, ast.Delete], namespace: Optional[dict[str, Any]]
) -> Prepared:
    """Write, compile and return one UPDATE or DELETE as a generated
    ``run(txn, params, namespace) -> rows written`` (DESIGN.md 6a).

    The probe is the one a SELECT over the same WHERE takes first
    (``planner.probe_of`` over ``planner.classify``): the first conjunct
    ``column = <expression reading no column of the table>`` on a column
    indexed alone — a pseudo column reads none, so its probe key raises
    before any row is fetched.  Every other conjunct is the residual
    evaluated per candidate.  The probed conjunct holds for every candidate
    of a non-NULL key, so it leaves the residual — unless its operand can
    charge (function call, subquery): then re-evaluating it per candidate is
    part of the cost.  Without such a conjunct the table is scanned.  A NULL
    key still fetches its candidates and matches none.

    Every expression that cannot charge is written in line, in its source
    form (``compile_expr``: own columns, parameters, literals and the
    operators over them, raising the getter's errors in the getter's
    order); any other calls its getter on ``env``, built — with its
    ``ExecState`` — only then.  Names, values and getters reach the source
    through ``names``, never as text.
    Charges are inline, in the order cursor_open, index_probe | row_scan
    (one addition for the scan), per candidate cursor_fetch then expr_eval,
    cursor_close, then the row writes."""
    table = db.catalog.table(stmt.table)
    # The target's columns at environment slot 1; ``namespace`` (a task's
    # bound tables) is what subqueries may read beside the catalog.
    desc = SourceDesc(name=table.name, binding=table.name, kind=STD, schema=table.schema)
    desc.env_pos = 1
    resolution = _SelectResolution(db, [desc], namespace, "ExecState(db, txn, params, {}, namespace)")
    conjuncts = classify(stmt.where, {table.name: table.schema})
    residual_of = [conjunct.expr for conjunct in conjuncts]
    probe = probe_of(conjuncts, table.name, table)
    index = key_expr = None
    if probe is not None:
        position, side, index = probe
        key_expr = side.other
        if not ast.calls_out(key_expr):
            del residual_of[position]
    inline = resolution.inline
    calls: list[Getter] = []  # getters the source calls on env

    def value(expr: ast.Expr) -> str:
        getter = compile_expr(expr, resolution)
        source = inline.text.get(getter)
        if source is None:
            calls.append(getter)
            source = f"{inline.const(getter)}(env)"
        return source

    residual = value(combine(residual_of)) if residual_of else None
    residual_calls = bool(calls)
    key = value(key_expr) if index is not None else None
    where_calls = len(calls)
    write = []  # the body of the write loop
    if isinstance(stmt, ast.Update):
        write.append("        values = list(h1.values)")
        for assignment in stmt.assignments:
            offset = table.schema.offset(assignment.column)
            source = value(assignment.expr)
            sign = "+" if assignment.increment else "-" if assignment.decrement else ""
            if not sign:
                write.append(f"        values[{offset:d}] = {source}")
                continue
            write += [
                f"        v = {source}",
                f"        c = values[{offset:d}]",
                f"        values[{offset:d}] = None if c is None or v is None else c {sign} v",
            ]
        write.append("        txn.update_record(table, h1, values)")
    else:
        write.append("        txn.delete_record(table, h1)")
    if len(calls) > where_calls:  # a getter reads the row being written
        write.insert(0, "        env[1] = h1")

    filtered = stmt.where is not None  # every candidate of a WHERE costs one expr_eval
    lines = ["def run(txn, params, namespace):"]
    if calls or "params" in inline.reads:
        lines.append("    params = params or {}")
    if "pseudo" in inline.reads:
        lines.append("    pseudo = {}")  # the ExecState's: no pseudo column outside rule binding
    if calls:
        lines.append("    env = [ExecState(db, txn, params, {}, namespace), None]")
    lines += [
        "    meter, cost = db.metering()",
        "    ops = meter.ops",
        "    c_fetch, c_eval = cost['cursor_fetch'], cost['expr_eval']",
        "    matches = []",
        "    meter.total += cost['cursor_open']",
        "    ops['cursor_open'] += 1",
    ]
    if index is not None:
        lines += [
            f"    key = {key}",
            "    meter.total += cost['index_probe']",
            "    ops['index_probe'] += 1",
            "    rows = x1.lookup(key)",
        ]
    else:
        lines += [
            "    scanned = len(table) or 1",
            "    meter.total += cost['row_scan'] * scanned",
            "    ops['row_scan'] += scanned",
            "    rows = table.scan()",
        ]
    lines += [
        "    fetched = 0",
        "    try:",
        "        for h1 in rows:",
        "            meter.total += c_fetch",
        "            fetched += 1",
    ]
    if filtered:
        lines.append("            meter.total += c_eval")
    if residual_calls:
        lines.append("            env[1] = h1")
    if residual is not None:
        lines.append(f"            if not {residual}: continue")
    if index is not None:
        lines.append("            if key is None: continue")
    lines += [
        "            matches.append(h1)",
        "    finally:",
        "        if fetched:",
        "            ops['cursor_fetch'] += fetched",
    ]
    if filtered:
        lines.append("            ops['expr_eval'] += fetched")
    lines += [
        "    meter.total += cost['cursor_close']",
        "    ops['cursor_close'] += 1",
        "    for h1 in matches:",
        *write,
        "    return len(matches)",
    ]
    names = {"db": db, "table": table, "x1": index, "ExecState": ExecState, **inline.names}
    return generate(lines, "run", f"<dml {type(stmt).__name__.lower()}>", names)


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
    return _memoized(db, stmt, namespace, _prepare_write)(txn, params, namespace)


def execute_delete(
    db: Any,
    stmt: ast.Delete,
    txn: Any,
    params: Optional[dict[str, Any]] = None,
    namespace: Optional[dict[str, Any]] = None,
) -> int:
    """Run one DELETE; returns the number of rows deleted."""
    txn.lock_table_shared(db.catalog.table(stmt.table).name)
    return _memoized(db, stmt, namespace, _prepare_write)(txn, params, namespace)
