"""Materialize a view and generate the STRIP rules that maintain it.

The paper cites [CW91] for automatically deriving maintenance rules from
view definitions (sections 1 and 8).  This module implements that idea for
the two view classes the paper's workload uses, which cover a broad span of
monitoring applications:

* **Aggregate views** — ``SELECT g1..gk, AGG(e) AS a FROM T1..Tn WHERE
  joins GROUP BY g1..gk`` with SUM/COUNT/AVG maintained *incrementally*
  (deltas applied per group, with a hidden contribution counter so empty
  groups disappear) and MIN/MAX maintained by recomputing only the affected
  groups.

* **Projection views** — ``SELECT k, e1 AS c1, ... FROM T1..Tn WHERE
  joins`` (no aggregation), maintained by recomputing exactly the output
  rows whose inputs changed (the option-pricing pattern: non-incremental
  per row, but narrowly targeted).

For every base table one rule is generated, triggered by
``inserted deleted updated``; its ``evaluate`` queries bind the
plus/minus delta rows derived from the transition tables, and the
generated user function applies them.  The ``unique``/``unique on``/
``after`` batching knobs are passed straight through to the generated
rules — this is exactly the hook the paper's conclusion proposes for an
automatic view manager, and :mod:`repro.views.advisor` chooses them from
statistics when asked.  Projection views can additionally opt into
``compact`` (delta compaction keyed on the projection key): their apply
function is last-write-wins per key, so folding the pending batch is
invisible to the result.

Maintenance strategies
======================

Deletions are the weak spot of pure delta maintenance: the delta queries
join a transition table against the *surviving* base data, so when a
deleted row's join partner died in the same transaction the join is empty
and the derived row it supported is never retracted.  Three strategies are
generated, chosen per view by ``maintenance=`` (or by the
:class:`~repro.views.advisor.MaintenanceAdvisor` under ``auto`` with a
deletion mix):

* ``incremental`` — the classical delta fold.  On multi-table views it is
  hardened with the DRed *mark* queries below so the empty-join deletion
  anomaly cannot leave stale rows behind.
* ``dred`` — delete-and-rederive.  Deletions (and the delete half of
  key-column updates) do not attempt delta arithmetic at all: an
  *overdeletion* pass marks every derived key the removed base rows could
  have supported, then a *rederivation* pass re-queries only the marked
  keys against the surviving base data, restoring rows that still have an
  alternative derivation.  Insertions and value updates stay incremental.
* ``recompute`` — every maintenance task truncates and repopulates the
  backing table (the paper's wholesale recomputation, kept as the
  baseline the benchmarks compare against).

The mark queries are *anchored*: the first base table whose columns cover
every view key through the WHERE clause's equality classes becomes the
anchor.  The anchor's own rule marks keys straight from its transition
table (no join — this is what makes the scheme airtight when the join
partner died too), and every other table's rule marks keys by joining its
transition against the live anchor table.  Views whose keys cannot be
anchored fall back to a *wild* mark that triggers a full recompute of the
view — over-deletion in the extreme, always safe.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from repro.core.rules import Rule
from repro.core.transition import EXECUTE_ORDER
from repro.errors import StripError
from repro.sql import ast
from repro.storage.schema import Column, ColumnType, Schema
from repro.storage.temptable import generate
from repro.views.advisor import MaintenanceAdvisor, MaintenanceProfile, MaintenanceReport
from repro.views.definition import ViewDefinition

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.functions import FunctionContext
    from repro.database import Database

HIDDEN_COUNT = "maint_cnt"
#: Mark-row flag column: 0 for an anchored key mark, 1 for the wild
#: fallback (recompute the whole view).
WILD_MARK = "maint_wild"
#: Commit-sequence column stamped onto delta rows.  A marked key's
#: rederivation requery is ground truth for *every* commit made so far,
#: including commits whose own maintenance tasks are still pending — their
#: folded aggregate deltas for that key must be discarded or they would
#: apply on top of a requery that already reflected them.  Projection
#: deltas replay their events in commit order by it, then by
#: ``ORDER_ORD``, the execute order within the transaction.
MAINT_SEQ = "maint_seq"
ORDER_ORD = "maint_ord"

#: Strategies a view's generated rules can implement.
STRATEGIES = ("incremental", "dred", "recompute")


class UnsupportedViewError(StripError):
    """The view shape is outside the generator's supported classes."""


@dataclass
class MaintenanceStats:
    """Apply-side counters for one maintained view (virtual-time free)."""

    tasks: int = 0
    deletions_seen: int = 0
    keys_marked: int = 0
    rows_overdeleted: int = 0
    rows_rederived: int = 0
    rows_touched: int = 0
    full_recomputes: int = 0

    def row(self) -> dict:
        return {
            "tasks": self.tasks,
            "deletions_seen": self.deletions_seen,
            "keys_marked": self.keys_marked,
            "rows_overdeleted": self.rows_overdeleted,
            "rows_rederived": self.rows_rederived,
            "rows_touched": self.rows_touched,
            "full_recomputes": self.full_recomputes,
        }


@dataclass
class MaintenancePlan:
    """What :func:`materialize` built for one view."""

    view: ViewDefinition
    backing_table: str
    rules: list[Rule] = field(default_factory=list)
    function_name: str = ""
    kind: str = ""  # "aggregate" | "projection"
    incremental: bool = False
    compact: bool = False  # generated rules use the delta-compaction path
    #: Output columns identifying a backing-table row: the GROUP BY names
    #: for aggregates, the caller's ``key`` for projections.  The fault
    #: subsystem's convergence oracle keys its row diff on these.
    key_columns: tuple = ()
    #: Resolved maintenance strategy ("incremental" | "dred" | "recompute")
    #: and what the caller asked for (may be "auto").
    maintenance: str = "incremental"
    requested: str = "auto"
    stats: MaintenanceStats = field(default_factory=MaintenanceStats)
    advice: Optional[MaintenanceReport] = None


# --------------------------------------------------------------------------
# AST helpers
# --------------------------------------------------------------------------


def _substitute_table(expr: ast.Expr, old: str, new: str) -> ast.Expr:
    """Rewrite qualified column references ``old.c`` to ``new.c``."""
    if isinstance(expr, ast.ColumnRef):
        if expr.table == old:
            return ast.ColumnRef(new, expr.name)
        return expr
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(
            expr.op,
            _substitute_table(expr.left, old, new),
            _substitute_table(expr.right, old, new),
        )
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, _substitute_table(expr.operand, old, new))
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(_substitute_table(expr.operand, old, new), expr.negated)
    if isinstance(expr, ast.FuncCall):
        return ast.FuncCall(
            expr.name,
            tuple(_substitute_table(arg, old, new) for arg in expr.args),
            expr.star,
            expr.distinct,
        )
    return expr


def _delta_select(
    select: ast.Select,
    base: ast.TableRef,
    transition: str,
    items: Sequence[ast.SelectItem],
) -> ast.Select:
    """The view's FROM/WHERE with ``base`` replaced by a transition table,
    projecting ``items`` (already rewritten)."""
    tables = tuple(
        ast.TableRef(transition, None) if ref is base else ref for ref in select.tables
    )
    where = (
        _substitute_table(select.where, base.binding, transition)
        if select.where is not None
        else None
    )
    return ast.Select(items=tuple(items), tables=tables, where=where)


def _analyze(select: ast.Select) -> dict:
    """Classify the view and extract its pieces; raise if unsupported."""
    if select.distinct or select.having is not None or select.order_by or select.limit:
        raise UnsupportedViewError(
            "materialized views cannot use DISTINCT/HAVING/ORDER BY/LIMIT"
        )
    group_items: list[tuple[ast.Expr, str]] = []
    agg_items: list[tuple[ast.FuncCall, str]] = []
    plain_items: list[tuple[ast.Expr, str]] = []
    for index, item in enumerate(select.items):
        if isinstance(item, ast.StarItem):
            raise UnsupportedViewError("materialized views need explicit select items")
        name = item.alias or (
            item.expr.name if isinstance(item.expr, ast.ColumnRef) else f"col{index}"
        )
        expr = item.expr
        if ast.contains_aggregate(expr):
            if not (isinstance(expr, ast.FuncCall) and expr.name in ast.AGGREGATE_NAMES):
                raise UnsupportedViewError(
                    "aggregates must be top-level select items (e.g. SUM(e) AS a)"
                )
            agg_items.append((expr, name))
        elif select.group_by and expr in select.group_by:
            group_items.append((expr, name))
        elif select.group_by:
            raise UnsupportedViewError(
                f"non-aggregated column {name!r} is not in GROUP BY"
            )
        else:
            plain_items.append((expr, name))
    if select.group_by or agg_items:
        if not agg_items:
            raise UnsupportedViewError("GROUP BY views need at least one aggregate")
        for agg, name in agg_items:
            if agg.name == "count" and agg.args and not agg.star:
                raise UnsupportedViewError(
                    f"{name!r}: COUNT(column) deltas are NULL-sensitive and not "
                    "supported; use COUNT(*) or SUM(...) instead"
                )
        if {expr for expr, _n in group_items} != set(select.group_by):
            # every group-by expression must be projected so the backing
            # table rows can be addressed.
            raise UnsupportedViewError("every GROUP BY expression must be selected")
        return {"kind": "aggregate", "groups": group_items, "aggs": agg_items}
    if not plain_items:
        raise UnsupportedViewError("view selects nothing")
    return {"kind": "projection", "items": plain_items}


def _columns_of_table(exprs: Iterable[ast.Expr], binding: str, schema: Schema) -> set[str]:
    """Columns of the base table ``binding`` referenced by ``exprs``."""
    out: set[str] = set()
    for expr in exprs:
        for ref in ast.column_refs(expr):
            if ref.table == binding and schema.has_column(ref.name):
                out.add(ref.name)
            elif ref.table is None and schema.has_column(ref.name):
                out.add(ref.name)
    return out


# --------------------------------------------------------------------------
# Anchored overdeletion marks
# --------------------------------------------------------------------------


def _conjuncts(where: Optional[ast.Expr]) -> list[ast.Expr]:
    """Flatten a WHERE clause into its top-level AND conjuncts."""
    if where is None:
        return []
    if isinstance(where, ast.BinaryOp) and where.op == "and":
        return _conjuncts(where.left) + _conjuncts(where.right)
    return [where]


def _and_all(parts: Sequence[ast.Expr]) -> Optional[ast.Expr]:
    combined: Optional[ast.Expr] = None
    for part in parts:
        combined = part if combined is None else ast.BinaryOp("and", combined, part)
    return combined


def _or_all(parts: Sequence[ast.Expr]) -> Optional[ast.Expr]:
    combined: Optional[ast.Expr] = None
    for part in parts:
        combined = part if combined is None else ast.BinaryOp("or", combined, part)
    return combined


class _UnionFind:
    """Equality classes over (binding, column) pairs."""

    def __init__(self) -> None:
        self.parent: dict[tuple, tuple] = {}

    def find(self, item: tuple) -> tuple:
        self.parent.setdefault(item, item)
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:  # path compression
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a: tuple, b: tuple) -> None:
        self.parent[self.find(a)] = self.find(b)

    def members(self, item: tuple) -> list[tuple]:
        root = self.find(item)
        return [other for other in self.parent if self.find(other) == root]


def _resolve_ref(
    ref: ast.ColumnRef, bindings: dict[str, Schema]
) -> Optional[tuple[str, str]]:
    """Resolve a column reference to its (binding, column) source."""
    if ref.table is not None:
        schema = bindings.get(ref.table)
        if schema is not None and schema.has_column(ref.name):
            return (ref.table, ref.name)
        return None
    owners = [b for b, schema in bindings.items() if schema.has_column(ref.name)]
    if len(owners) == 1:
        return (owners[0], ref.name)
    return None


def _equality_classes(
    conjuncts: Sequence[ast.Expr], bindings: dict[str, Schema]
) -> _UnionFind:
    """Union-find of columns linked by ``a.x = b.y`` WHERE conjuncts."""
    uf = _UnionFind()
    for conj in conjuncts:
        if (
            isinstance(conj, ast.BinaryOp)
            and conj.op == "="
            and isinstance(conj.left, ast.ColumnRef)
            and isinstance(conj.right, ast.ColumnRef)
        ):
            left = _resolve_ref(conj.left, bindings)
            right = _resolve_ref(conj.right, bindings)
            if left is not None and right is not None:
                uf.union(left, right)
    return uf


def _refs_within(expr: ast.Expr, bindings: dict[str, Schema], allowed: set[str]) -> bool:
    """True when every column reference of ``expr`` resolves inside ``allowed``."""
    for ref in ast.column_refs(expr):
        source = _resolve_ref(ref, bindings)
        if source is None or source[0] not in allowed:
            return False
    return True


def _select_anchor(
    select: ast.Select,
    key_exprs: Sequence[tuple[str, ast.Expr]],
    bindings: dict[str, Schema],
) -> tuple[Optional[ast.TableRef], dict[str, str]]:
    """Pick the first base table covering every view key via equality classes.

    Returns ``(anchor_ref, {key_name: anchor_column})`` or ``(None, {})``
    when no table covers all keys (the wild-mark fallback).
    """
    sources: list[tuple[str, tuple[str, str]]] = []
    for key_name, expr in key_exprs:
        if not isinstance(expr, ast.ColumnRef):
            return None, {}
        source = _resolve_ref(expr, bindings)
        if source is None:
            return None, {}
        sources.append((key_name, source))
    uf = _equality_classes(_conjuncts(select.where), bindings)
    for ref in select.tables:
        mapping: dict[str, str] = {}
        for key_name, source in sources:
            candidates = sorted(
                column
                for binding, column in uf.members(source)
                if binding == ref.binding
            )
            if not candidates:
                mapping = {}
                break
            mapping[key_name] = candidates[0]
        if mapping:
            return ref, mapping
    return None, {}


def _mark_queries(
    select: ast.Select,
    base: ast.TableRef,
    anchor: Optional[ast.TableRef],
    anchor_map: dict[str, str],
    key_names: Sequence[str],
    danger_columns: Sequence[str],
    bindings: dict[str, Schema],
) -> list[ast.RuleQuery]:
    """The overdeletion mark queries for one base table's rule.

    ``marks_del`` projects the candidate derived keys of every deleted base
    row; ``marks_old`` does the same for the *old* image of updates that
    changed a membership- or key-affecting (``danger``) column, identified
    by the old-by-new ``execute_order`` self-join.  Both project a
    ``maint_wild`` flag: 0 for anchored key marks, 1 for the wild fallback
    that recomputes the whole view.

    Where the keys come from is the only thing that varies.  The anchor's
    own rule reads them off its transition table alone — no join, so it
    still marks correctly when every join partner died too.  Any other
    table's rule joins its transition against the live anchor through the
    WHERE conjuncts that mention only the two of them (conjuncts routed
    through third tables are dropped — that over-marks, never under-marks).
    Without an anchor there are no keys to project, only the wild flag.
    """
    own = anchor is not None and base.binding == anchor.binding
    joined = () if anchor is None or own else (anchor,)
    within = {base.binding} | {ref.binding for ref in joined}
    conjuncts = _conjuncts(select.where) if anchor is not None else []
    kept = [conj for conj in conjuncts if _refs_within(conj, bindings, within)]

    def marks(transition: str, tables: tuple, guards: list[ast.Expr]) -> ast.Select:
        if anchor is None:
            items = [ast.SelectItem(ast.Literal(1), WILD_MARK)]
        else:
            source = transition if own else anchor.binding
            items = [
                ast.SelectItem(ast.ColumnRef(source, anchor_map[k]), k) for k in key_names
            ]
            items.append(ast.SelectItem(ast.Literal(0), WILD_MARK))
        moved = [_substitute_table(conj, base.binding, transition) for conj in kept]
        return ast.Select(
            items=tuple(items),
            tables=tuple(ast.TableRef(name, None) for name in tables) + joined,
            where=_and_all(moved + guards if own else guards + moved),
        )

    queries = [ast.RuleQuery(marks("deleted", ("deleted",), []), "marks_del")]
    changed = _or_all(
        [
            ast.BinaryOp("!=", ast.ColumnRef("old", column), ast.ColumnRef("new", column))
            for column in danger_columns
        ]
    )
    if changed is not None:
        order_join = ast.BinaryOp(
            "=",
            ast.ColumnRef("old", EXECUTE_ORDER),
            ast.ColumnRef("new", EXECUTE_ORDER),
        )
        queries.append(
            ast.RuleQuery(marks("old", ("old", "new"), [order_join, changed]), "marks_old")
        )
    return queries


@functools.lru_cache(maxsize=256)
def _fold(loop: str, sources: tuple, at: tuple) -> Callable:
    """The generated row loop ``loop`` over a bound table whose columns, in
    the order the loop reads them, live at ``sources`` (None: the table
    lacks it, read as None); ``at`` are the view key's positions among them.
    Cached by its sources, as the row readers are (DESIGN.md 6a "The view
    folds"): it reads each raw row's columns inline, charges per row to a
    local copy of ``meter.total`` and lands the total and counts once."""
    reads = ["None" if source is None else source.text("ptrs", "mats") for source in sources]
    key = "(" + "".join(reads[i] + ", " for i in at) + ")"
    charges, result = ["user_row"], "None"
    if loop == "marks":  # (*keys, flag): a wild mark's keys are not looked at
        params, charges, result = "marked", ["user_row", "dred_mark"], "wild"
        body = [f"if {reads[-1]}:", "    wild = True", "else:", f"    marked.add({key})"]
    elif loop == "aggregate":  # (*keys, *arguments, seq): signed sums per key
        params, arguments = "changes, sign, recomputed_at, rederived_at", reads[len(at):-1]
        body = [
            f"key, seq = {key}, {reads[-1]}",
            "if seq and seq <= max(recomputed_at, rederived_at.get(key, 0)):",
            "    continue  # a requery already reflected this commit",
            "entry = changes.get(key)",
            "if entry is None:",
            f"    entry = changes[key] = [0{', 0.0' * len(arguments)}]",
            "entry[0] += sign",
        ]
        for i, read in enumerate(arguments, 1):
            body += [f"value = {read}", "if value is not None:"]
            body.append(f"    entry[{i:d}] += sign * value")
    else:  # projection, (*row, commit seq, execute order): latest event per key
        params = "latest, rank, seq"
        body = [
            f"row = [{''.join(read + ', ' for read in reads[:-2])}]",
            f"order = ({reads[-2]} or 0, {reads[-1]} or 0, rank, seq)",
            "seq += 1",
            f"key = ({''.join(f'row[{i:d}], ' for i in at)})",
            "prev = latest.get(key)",
            "if prev is None or order > prev[0]:",
            "    latest[key] = (order, rank, row)",
        ]
    lines = [
        f"def fold(rows, meter, cost, {params}):",
        *(f"    c{at} = cost[{op!r}]" for at, op in enumerate(charges)),
        "    total, n, wild = meter.total, 0, False",
        "    try:",
        "        for ptrs, mats in rows:",
        *(f"            total += c{at}" for at in range(len(charges))),
        "            n += 1",
        *(f"            {line}" for line in body),
        "    finally:",
        "        meter.total = total",
        "        if n:",  # dred_mark first: the order charge() stored them in
        *(f"            meter.ops[{op!r}] += n" for op in reversed(charges)),
        f"    return {result}",
    ]
    return generate(lines, "fold", f"<view fold {loop}>", {})


def _run_fold(
    ctx: "FunctionContext", bound_name: str, loop: str, names: Sequence[str],
    optional: Sequence[str], at: Sequence[int], *args,
) -> tuple[int, object]:
    """``(rows, result)`` of the generated ``loop`` over bound table
    ``bound_name`` — ``(0, None)``, nothing built or charged, when the
    strategy left the table unbound or it holds no rows."""
    if not ctx.has_bound(bound_name):
        return 0, None
    table = ctx.bound(bound_name)
    rows = table.scan_raw()  # a retired table raises, as every read does
    if not len(table):
        return 0, None
    fold = _fold(loop, table.column_sources(names, optional), tuple(at))
    return len(table), fold(rows, *ctx.db.metering(), *args)


def _collect_marks(
    ctx: "FunctionContext", key_names: Sequence[str], stats: MaintenanceStats
) -> tuple[set[tuple], bool]:
    """Read the mark bound tables: (marked keys, wild-recompute flag)."""
    marked: set[tuple] = set()
    names, at = (*key_names, WILD_MARK), range(len(key_names))  # a wild mark: the flag alone
    deleted, wild_del = _run_fold(ctx, "marks_del", "marks", names, names, at, marked)
    wild_old = _run_fold(ctx, "marks_old", "marks", names, names, at, marked)[1]
    stats.deletions_seen += deleted
    stats.keys_marked += len(marked)
    return marked, bool(wild_del or wild_old)


def _full_recompute(
    ctx: "FunctionContext",
    table,
    populate_select: ast.Select,
    stats: MaintenanceStats,
    key_offsets: Optional[Sequence[int]] = None,
) -> None:
    """Truncate the backing table and repopulate from the base tables.

    ``key_offsets`` (keyed projections only) folds the repopulation to one
    row per key, last in query order winning — matching the incremental
    apply path, whose per-key upsert never holds two rows for one key.
    """
    stats.full_recomputes += 1
    doomed = list(table.scan())
    for record in doomed:
        ctx.txn.delete_record(table, record)
    rows = ctx.db.run_select(populate_select, ctx.txn).rows()
    if key_offsets is not None:
        folded: dict[tuple, list] = {}
        for values in rows:
            folded[tuple(values[i] for i in key_offsets)] = values
        rows = list(folded.values())
    if rows:
        ctx.charge("view_recompute_row", len(rows))
    for values in rows:
        ctx.txn.insert_record(table, values)
    stats.rows_touched += len(doomed) + len(rows)


# --------------------------------------------------------------------------
# materialize
# --------------------------------------------------------------------------


def materialize(
    db: "Database",
    view_name: str,
    unique: bool = False,
    unique_on: Sequence[str] = (),
    delay: float = 0.0,
    key: Optional[Sequence[str]] = None,
    compact: bool = False,
    maintenance: str = "auto",
    delete_fraction: float = 0.0,
) -> MaintenancePlan:
    """Turn the registered view into a maintained standard table.

    ``unique`` / ``unique_on`` / ``delay`` configure the generated rules'
    batching (the paper's two tuning knobs).  For projection views ``key``
    names the output columns that identify a row (default: the first one).

    ``compact`` opts the generated rules into the delta-compaction fast
    path, keyed on the projection key.  It is only sound for projection
    views — their apply function is last-write-wins per key, so folding a
    pending batch to net effect per key is invisible to the result.
    Aggregate deltas are *summed* contributions, not idempotent per key,
    so compaction there is rejected.

    ``maintenance`` picks the deletion-maintenance strategy
    (``incremental`` | ``dred`` | ``recompute``); the default ``auto``
    keeps the classical incremental path unless ``delete_fraction`` (the
    expected deletion share of base changes) is positive, in which case
    the :class:`~repro.views.advisor.MaintenanceAdvisor` chooses from the
    cost model and the populated sizes.
    """
    if compact and not unique:
        raise UnsupportedViewError("compact maintenance requires unique batching")
    if maintenance not in ("auto",) + STRATEGIES:
        raise UnsupportedViewError(
            f"unknown maintenance strategy {maintenance!r}; "
            f"use auto, {', '.join(STRATEGIES)}"
        )
    view = db.catalog.view(view_name)
    select = view.select
    info = _analyze(select)
    if compact and info["kind"] == "aggregate":
        raise UnsupportedViewError(
            "aggregate views cannot use delta compaction: their bound rows "
            "are summed contributions, and folding to last-per-key would "
            "drop deltas"
        )

    # Plan the view once to learn output names/types (also validates it).
    from repro.sql.executor import select_plan

    plan = select_plan(db, select, None)
    out_columns = [(c.name, c.type) for c in plan.output.columns]

    base_refs = list(select.tables)
    for ref in base_refs:
        if not db.catalog.has_table(ref.name):
            raise UnsupportedViewError(
                f"view {view_name!r} reads {ref.name!r}, which is not a standard table"
            )
    base_rows = sum(len(db.catalog.table(ref.name)) for ref in base_refs)

    # Replace the view with its backing table.
    db.catalog.drop_view(view_name)
    columns = [Column(name, col_type) for name, col_type in out_columns]
    if info["kind"] == "aggregate":
        columns.append(Column(HIDDEN_COUNT, ColumnType.INT))
    backing = db.catalog.create_table(view_name, Schema(columns))
    view.backing_table = view_name
    plan_record = MaintenancePlan(view, view_name, kind=info["kind"])
    plan_record.requested = maintenance

    kind: _ViewKind
    if info["kind"] == "aggregate":
        kind = _AggregateKind(select, info, plan_record.stats)
    else:
        key_columns = tuple(key) if key else (out_columns[0][0],)
        for column in key_columns:
            if column not in [name for name, _t in out_columns]:
                raise UnsupportedViewError(f"key column {column!r} is not selected")
        kind = _ProjectionKind(select, info, key_columns, plan_record.stats)
        plan_record.compact = compact
    plan_record.key_columns = kind.key_names
    plan_record.incremental = kind.incremental

    # Populate before wiring rules: the strategy choice reads the sizes.
    txn = db.begin()
    for values in db.run_select(kind.populate_select, txn).rows():
        txn.insert_record(backing, values)
    txn.commit()

    strategy = maintenance
    if maintenance == "auto":
        if delete_fraction <= 0:
            strategy = "incremental"
        else:
            view_rows = len(backing)
            profile = MaintenanceProfile(
                delete_fraction=delete_fraction,
                fanout=max(1.0, view_rows / max(base_rows, 1)),
                rederive_rows=base_rows / max(view_rows, 1),
                view_rows=float(view_rows),
                # The targeted per-key upsert of projections is delta-driven.
                incremental_ok=(info["kind"] == "projection") or kind.incremental,
                multi_table=len(base_refs) > 1,
            )
            advice = MaintenanceAdvisor.from_cost_model(db.cost_model).recommend(
                profile
            )
            plan_record.advice = advice
            strategy = advice.strategy
    plan_record.maintenance = strategy

    bindings = {
        ref.binding: db.catalog.table(ref.name).schema for ref in base_refs
    }
    anchor, anchor_map = _select_anchor(
        select, list(zip(kind.key_names, kind.key_exprs)), bindings
    )
    _install(
        db, view, plan_record, kind, unique, unique_on, delay, compact,
        strategy, anchor, anchor_map, bindings,
    )

    db.materialized_views[view_name] = plan_record
    if db.tracer.enabled:
        db.tracer.view_registered(
            view_name,
            plan_record.function_name,
            tuple(rule.name for rule in plan_record.rules),
            db.clock.now(),
        )
    return plan_record


def _find(table, key_names: Sequence[str], key: tuple) -> list:
    """The backing-table rows of one view key."""
    return list(table.lookup(key_names, key if len(key) > 1 else key[0]))


class _ViewKind:
    """What one class of maintained view supplies to the generator.

    :func:`_install` writes the rules and the apply skeleton once; a kind
    adds only what differs: the delta select items, which deltas ``dred``
    leaves unbound, the fold of a task's bound rows into one result per
    key, and how one key's folded result is written.
    """

    #: ``(bound name, transition table)`` of the delta queries, in
    #: ``evaluate`` order.
    deltas: tuple[tuple[str, str], ...]
    #: Deltas the ``dred`` strategy does not bind (marks cover their keys).
    dred_drops: frozenset
    #: Output offsets of the key when the view holds one row per key and
    #: the last in query order wins (keyed projections); None otherwise.
    fold_offsets: Optional[list[int]] = None
    #: Bound rows are deltas the fold can apply without a requery.
    incremental = False

    def __init__(
        self,
        select: ast.Select,
        keys: Sequence[tuple[str, ast.Expr]],
        value_exprs: Sequence[ast.Expr],
        populate_select: ast.Select,
        stats: MaintenanceStats,
    ) -> None:
        self.key_names = tuple(name for name, _expr in keys)
        self.key_exprs = [expr for _name, expr in keys]
        #: Non-key expressions whose base columns feed the view's values.
        self.value_exprs = list(value_exprs)
        self.populate_select = populate_select
        self.stats = stats
        # The key-restricted requery, built (and so planned) once per view:
        # the key values arrive as parameters, not as literals in the AST.
        self._key_params = [f"maint_key{i}" for i in range(len(keys))]
        where = select.where
        for expr, param in zip(self.key_exprs, self._key_params):
            condition = ast.BinaryOp("=", expr, ast.Param(param))
            where = condition if where is None else ast.BinaryOp("and", where, condition)
        self._requery = replace(populate_select, where=where)

    def delta_items(self, base: ast.TableRef, transition: str) -> list[ast.SelectItem]:
        """The select items of ``base``'s delta query over ``transition``."""
        raise NotImplementedError

    def fold(self, ctx: "FunctionContext") -> dict[tuple, object]:
        """Fold the task's delta tables into one result per view key."""
        raise NotImplementedError

    def write(self, ctx: "FunctionContext", table, key: tuple, records: list, folded) -> None:
        """Apply one key's folded result to its backing rows ``records``."""
        raise NotImplementedError

    def requery(self, ctx: "FunctionContext", key: tuple) -> list:
        """The view's rows for ``key``, from the base tables as they are now."""
        params = dict(zip(self._key_params, key))
        return ctx.db.run_select(self._requery, ctx.txn, params).rows()

    def remove(self, ctx: "FunctionContext", table, records: list, dred: bool) -> None:
        """Delete a key's backing ``records`` ahead of a requery's rows;
        under ``dred`` that is the overdeletion and is charged as such."""
        for record in records:
            if dred:
                ctx.charge("dred_overdelete_row")
            ctx.txn.delete_record(table, record)
        if dred:
            self.stats.rows_overdeleted += len(records)
        self.stats.rows_touched += len(records)

    def restore(self, ctx: "FunctionContext", table, rows: list, dred: bool) -> None:
        """Insert a key's freshly requeried ``rows`` (the rederivation)."""
        if not rows:
            return
        if dred:
            ctx.charge("dred_rederive_row", len(rows))
            self.stats.rows_rederived += len(rows)
        for values in rows:
            ctx.txn.insert_record(table, values)
        self.stats.rows_touched += len(rows)

    def rederive(self, ctx: "FunctionContext", table, key: tuple) -> None:
        """Overdelete a marked key, then restore what still derives from
        the surviving base data."""
        self.remove(ctx, table, _find(table, self.key_names, key), dred=True)
        self.restore(ctx, table, self.requery(ctx, key), dred=True)

    def requeried(self, key: Optional[tuple], seq: int) -> None:
        """``key`` (None: the whole view) was just rebuilt from the base
        tables as of commit ``seq``."""


class _AggregateKind(_ViewKind):
    """``GROUP BY`` views: bound rows carry the group key plus the raw
    aggregate arguments, folded as signed sums per group."""

    deltas = (
        ("plus_rows", "inserted"),
        ("plus_upd", "new"),
        ("minus_rows", "deleted"),
        ("minus_upd", "old"),
    )
    # Deleted keys are a subset of the marked keys, so the minus delta of
    # deletions is dropped entirely: deletions pay marking plus
    # rederivation, never delta arithmetic.
    dred_drops = frozenset({"minus_rows"})

    def __init__(self, select: ast.Select, info: dict, stats: MaintenanceStats) -> None:
        self.groups: list[tuple[ast.Expr, str]] = info["groups"]
        self.aggs: list[tuple[ast.FuncCall, str]] = info["aggs"]
        self.incremental = all(
            agg.name in ("sum", "count", "avg") for agg, _n in self.aggs
        )
        items = [ast.SelectItem(expr, name) for expr, name in self.groups]
        items.extend(ast.SelectItem(expr, name) for expr, name in self.aggs)
        items.append(ast.SelectItem(ast.FuncCall("count", (), star=True), HIDDEN_COUNT))
        super().__init__(
            select,
            [(name, expr) for expr, name in self.groups],
            [arg for agg, _n in self.aggs for arg in agg.args],
            replace(select, items=tuple(items)),
            stats,
        )
        # Commit-seq horizons left behind by requeries.  A rederivation (or a
        # wild full recompute) reads the *live* base tables, so it reflects
        # every commit made so far — including commits whose maintenance tasks
        # are still in the queue.  When those tasks finally run, their folded
        # deltas for the requeried keys have already been counted and must be
        # skipped; the per-row MAINT_SEQ against these horizons decides.
        # (Bounded by the view's distinct key count, like the table itself.)
        self.rederived_at: dict[tuple, int] = {}
        self.recomputed_at = 0

    def delta_items(self, base: ast.TableRef, transition: str) -> list[ast.SelectItem]:
        items = [
            ast.SelectItem(_substitute_table(expr, base.binding, transition), name)
            for expr, name in self.groups
        ]
        for agg, name in self.aggs:
            if agg.star or not agg.args:
                arg: ast.Expr = ast.Literal(1)
            else:
                arg = _substitute_table(agg.args[0], base.binding, transition)
            items.append(ast.SelectItem(arg, f"arg_{name}"))
        items.append(ast.SelectItem(ast.ColumnRef(None, "commit_seq"), MAINT_SEQ))
        return items

    def requeried(self, key: Optional[tuple], seq: int) -> None:
        if key is None:
            self.recomputed_at = seq
        else:
            self.rederived_at[key] = seq

    def regroup(self, ctx: "FunctionContext", table, key: tuple, records: list, dred: bool) -> None:
        """Recompute one group from the base tables.  (The requery runs —
        and is charged — before the old row goes, unlike a projection's
        rederivation; task CPU sums are order-sensitive in the last digit.)"""
        rows = self.requery(ctx, key)
        self.remove(ctx, table, records, dred)
        self.restore(ctx, table, rows, dred)

    def rederive(self, ctx: "FunctionContext", table, key: tuple) -> None:
        ctx.charge("cursor_fetch")
        self.regroup(ctx, table, key, _find(table, self.key_names, key), dred=True)

    def fold(self, ctx: "FunctionContext") -> dict[tuple, list]:
        """Per group: ``[count delta, sum delta per aggregate...]``."""
        changes: dict[tuple, list] = {}
        names = (*self.key_names, *(f"arg_{name}" for _agg, name in self.aggs), MAINT_SEQ)
        for (bound_name, _transition), sign in zip(self.deltas, (1, 1, -1, -1)):
            _run_fold(
                ctx, bound_name, "aggregate", names, (MAINT_SEQ,), range(len(self.key_names)),
                changes, sign, self.recomputed_at, self.rederived_at,
            )
        return changes

    def write(self, ctx: "FunctionContext", table, key: tuple, records: list, entry: list) -> None:
        if not self.incremental:
            self.regroup(ctx, table, key, records, dred=False)  # MIN/MAX
            return
        stats = self.stats
        schema = table.schema
        cnt_offset = schema.offset(HIDDEN_COUNT)
        count_delta = entry[0]
        if not records:
            if count_delta <= 0:
                return  # deltas for a group that never materialized
            values = [None] * len(schema)
            for name, value in zip(self.key_names, key):
                values[schema.offset(name)] = value
            for i, (agg, name) in enumerate(self.aggs):
                if agg.name == "count":
                    values[schema.offset(name)] = count_delta
                elif agg.name == "avg":
                    values[schema.offset(name)] = entry[1 + i] / count_delta
                else:
                    values[schema.offset(name)] = entry[1 + i]
            values[cnt_offset] = count_delta
            ctx.txn.insert_record(table, values)
            stats.rows_touched += 1
            return
        record = records[0]
        new_count = record.values[cnt_offset] + count_delta
        if new_count <= 0:
            ctx.txn.delete_record(table, record)
            stats.rows_touched += 1
            return
        values = list(record.values)
        values[cnt_offset] = new_count
        for i, (agg, name) in enumerate(self.aggs):
            offset = schema.offset(name)
            if agg.name == "count":
                values[offset] = (values[offset] or 0) + count_delta
            elif agg.name == "sum":
                values[offset] = (values[offset] or 0) + entry[1 + i]
            elif agg.name == "avg":
                old_sum = (values[offset] or 0.0) * record.values[cnt_offset]
                values[offset] = (old_sum + entry[1 + i]) / new_count
        ctx.txn.update_record(table, record, values)
        stats.rows_touched += 1


class _ProjectionKind(_ViewKind):
    """Keyed projection views: bound rows are whole output rows, and per
    key the latest event wins."""

    # Old images of updates ("stale"): their keys may have left the view (a
    # key-column update), so they retire before the refreshed rows apply.
    deltas = (
        ("added", "inserted"),
        ("refreshed", "new"),
        ("removed", "deleted"),
        ("stale", "old"),
    )
    dred_drops = frozenset({"removed", "stale"})

    def __init__(
        self,
        select: ast.Select,
        info: dict,
        key_columns: tuple[str, ...],
        stats: MaintenanceStats,
    ) -> None:
        self.items: list[tuple[ast.Expr, str]] = info["items"]
        self.column_names = [name for _e, name in self.items]
        self.fold_offsets = [self.column_names.index(name) for name in key_columns]
        by_name = {name: expr for expr, name in self.items}
        super().__init__(
            select,
            [(name, by_name[name]) for name in key_columns],
            [expr for expr, _n in self.items],
            select,
            stats,
        )

    def delta_items(self, base: ast.TableRef, transition: str) -> list[ast.SelectItem]:
        out = [
            ast.SelectItem(_substitute_table(expr, base.binding, transition), name)
            for expr, name in self.items
        ]
        # Ordering columns so the apply fold can replay the batch's events
        # in true order: commit sequence (virtual commit times can tie),
        # then within-transaction execute order.  A delete and its reinsert
        # can then never pair up the wrong way round, whatever order the
        # bound tables arrive in.
        out.append(ast.SelectItem(ast.ColumnRef(None, "commit_seq"), MAINT_SEQ))
        out.append(ast.SelectItem(ast.ColumnRef(transition, EXECUTE_ORDER), ORDER_ORD))
        return out

    def requery(self, ctx: "FunctionContext", key: tuple) -> list:
        # The requery is pinned to one key, so duplicate base rows all land
        # on it: keep the last, matching the per-key upsert ``write`` does.
        return super().requery(ctx, key)[-1:]

    def fold(self, ctx: "FunctionContext") -> dict[tuple, tuple]:
        """Per key: ``(order, rank, row)`` of its latest event.

        Transition-aware ordered fold: every delta row carries its commit
        sequence and execute order, so per key the *latest* event decides the
        outcome.  Removal events (removed/stale) rank below upserts at
        the same position because an update's old and new image share one
        execute order and the new image must win; across positions the
        ordering columns decide, so a key-column update chain retires its
        intermediate keys instead of resurrecting them.
        """
        latest: dict[tuple, tuple] = {}
        seq = 0
        names = (*self.column_names, MAINT_SEQ, ORDER_ORD)
        for bound_name, rank in (("removed", 0), ("stale", 0), ("added", 1), ("refreshed", 1)):
            seq += _run_fold(
                ctx, bound_name, "projection", names, (MAINT_SEQ, ORDER_ORD), self.fold_offsets,
                latest, rank, seq,
            )[0]
        return latest

    def write(self, ctx: "FunctionContext", table, key: tuple, records: list, folded: tuple) -> None:
        _order, rank, row = folded
        if rank == 0:  # the key's final event removed it from the view
            for record in records:
                ctx.txn.delete_record(table, record)
            self.stats.rows_touched += len(records)
            return
        if records:
            ctx.txn.update_record(table, records[0], row)
            for record in records[1:]:
                ctx.txn.delete_record(table, record)
            self.stats.rows_touched += len(records)
        else:
            ctx.txn.insert_record(table, row)
            self.stats.rows_touched += 1


def _install(
    db: "Database",
    view: ViewDefinition,
    plan_record: MaintenancePlan,
    kind: _ViewKind,
    unique: bool,
    unique_on: Sequence[str],
    delay: float,
    compact: bool,
    strategy: str,
    anchor: Optional[ast.TableRef],
    anchor_map: dict[str, str],
    bindings: dict[str, Schema],
) -> None:
    """Generate one view's maintenance rules — one per base table, binding
    the delta rows derived from its transition tables — and register the
    user function that applies them.  Nothing here depends on the view's
    class; ``kind`` supplies what does."""
    select = view.select
    function_name = f"maintain_{view.name}"
    plan_record.function_name = function_name
    stats = plan_record.stats
    where = [select.where] if select.where is not None else []
    # dred marks instead of deleting by arithmetic.  incremental needs the
    # marks on joins only — the empty-join hardening: a deleted row whose
    # join partner died in the same transaction produces no minus delta, so
    # the marks catch the affected keys for requery.
    marking = strategy == "dred" or (strategy == "incremental" and len(select.tables) > 1)

    for base in select.tables:
        schema = db.catalog.table(base.name).schema
        relevant = _columns_of_table(
            kind.key_exprs + kind.value_exprs + where, base.binding, schema
        )
        # Columns whose change can move a row between keys or in/out of
        # the view: the keys and the WHERE-referenced columns, but not pure
        # value expressions (those stay incremental).
        danger = _columns_of_table(kind.key_exprs + where, base.binding, schema)
        evaluate = [
            ast.RuleQuery(
                _delta_select(select, base, transition, kind.delta_items(base, transition)),
                name,
            )
            for name, transition in kind.deltas
            if not (strategy == "dred" and name in kind.dred_drops)
        ]
        if marking:
            evaluate.extend(
                _mark_queries(
                    select, base, anchor, anchor_map, kind.key_names,
                    sorted(danger), bindings,
                )
            )
        rule = Rule(
            name=f"maintain_{view.name}_{base.binding}",
            table=base.name,
            events=(
                ast.Event("inserted"),
                ast.Event("deleted"),
                ast.Event("updated", tuple(sorted(relevant))),
            ),
            condition=(),
            evaluate=tuple(evaluate),
            function=function_name,
            unique=unique,
            unique_on=tuple(unique_on),
            compact_on=kind.key_names if compact else (),
            after=delay,
            maintenance=strategy,
            writes=(view.name,),
        )
        db.create_rule(rule)
        plan_record.rules.append(rule)

    def apply(ctx: "FunctionContext") -> None:
        """Fold the delta tables into the backing table; marked keys are
        overdeleted and rederived from the surviving base data instead."""
        stats.tasks += 1
        table = ctx.db.catalog.table(view.name)
        if strategy == "recompute":
            _full_recompute(ctx, table, kind.populate_select, stats, kind.fold_offsets)
            return
        marked, wild = _collect_marks(ctx, kind.key_names, stats)
        if wild:
            _full_recompute(ctx, table, kind.populate_select, stats, kind.fold_offsets)
            kind.requeried(None, ctx.db.last_commit_seq)
            return
        changes = kind.fold(ctx)
        # Marked keys are requeried against the surviving base data — the
        # requery is ground truth at apply time, so any folded result for
        # the same key is superseded and must be discarded (a delta already
        # visible to the requery would otherwise apply twice).
        for key in marked:
            changes.pop(key, None)
        for key in sorted(marked, key=repr):
            kind.rederive(ctx, table, key)
            kind.requeried(key, ctx.db.last_commit_seq)
        # ``cursor_fetch`` is charged in line, once per written key.
        meter, cost = ctx.db.metering()
        for key, folded in changes.items():
            meter.total += cost["cursor_fetch"]
            meter.ops["cursor_fetch"] += 1
            kind.write(ctx, table, key, _find(table, kind.key_names, key), folded)

    db.register_function(function_name, apply, replace=True)
