"""AST nodes for the SQL subset and the STRIP rule grammar (Figure 2)."""

from __future__ import annotations

from dataclasses import dataclass, field, is_dataclass
from typing import Optional, Union

# --------------------------------------------------------------- expressions


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expr):
    value: object  # int | float | str | bool | None


@dataclass(frozen=True)
class ColumnRef(Expr):
    table: Optional[str]  # qualifier, e.g. "new" in new.price
    name: str

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Param(Expr):
    """A named placeholder, written ``:name``."""

    name: str


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str  # + - * / % = != < <= > >= and or
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # - not
    operand: Expr


@dataclass(frozen=True)
class FuncCall(Expr):
    """A scalar or aggregate function call."""

    name: str  # lowercased
    args: tuple[Expr, ...]
    star: bool = False  # count(*)
    distinct: bool = False


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False


@dataclass(frozen=True)
class ScalarSubquery(Expr):
    """An uncorrelated ``(SELECT ...)`` used as a value (first row, first
    column; NULL when the subquery returns no rows)."""

    select: "Select"


@dataclass(frozen=True)
class Exists(Expr):
    """``EXISTS (SELECT ...)`` / ``NOT EXISTS (...)``."""

    select: "Select"
    negated: bool = False


@dataclass(frozen=True)
class InSubquery(Expr):
    """``expr [NOT] IN (SELECT ...)`` over the subquery's first column."""

    operand: Expr
    select: "Select"
    negated: bool = False


AGGREGATE_NAMES = frozenset({"sum", "count", "avg", "min", "max"})


def contains_aggregate(expr: Expr) -> bool:
    """True if ``expr`` contains an aggregate function call."""
    if isinstance(expr, FuncCall):
        if expr.name in AGGREGATE_NAMES:
            return True
        return any(contains_aggregate(arg) for arg in expr.args)
    if isinstance(expr, BinaryOp):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, UnaryOp):
        return contains_aggregate(expr.operand)
    if isinstance(expr, IsNull):
        return contains_aggregate(expr.operand)
    if isinstance(expr, InSubquery):
        return contains_aggregate(expr.operand)
    # Exists / ScalarSubquery: aggregates inside belong to the subquery.
    return False


def calls_out(expr: Expr) -> bool:
    """True if evaluating ``expr`` runs code that can charge the meter: a
    function call or a subquery."""
    if isinstance(expr, (FuncCall, ScalarSubquery, Exists, InSubquery)):
        return True
    if isinstance(expr, BinaryOp):
        return calls_out(expr.left) or calls_out(expr.right)
    if isinstance(expr, (UnaryOp, IsNull)):
        return calls_out(expr.operand)
    return False


def column_refs(expr: Expr) -> list[ColumnRef]:
    """All column references appearing in ``expr`` (pre-order)."""
    out: list[ColumnRef] = []

    def walk(node: Expr) -> None:
        if isinstance(node, ColumnRef):
            out.append(node)
        elif isinstance(node, BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, UnaryOp):
            walk(node.operand)
        elif isinstance(node, IsNull):
            walk(node.operand)
        elif isinstance(node, FuncCall):
            for arg in node.args:
                walk(arg)
        elif isinstance(node, InSubquery):
            walk(node.operand)
        # Exists / ScalarSubquery reference only their own scope.

    walk(expr)
    return out


# ---------------------------------------------------------------- statements


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class StarItem:
    """``*`` or ``alias.*`` in a select list."""

    table: Optional[str] = None


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class Select:
    items: tuple[Union[SelectItem, StarItem], ...]
    tables: tuple[TableRef, ...]
    where: Optional[Expr] = None
    group_by: tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    distinct: bool = False


def table_names(node: object) -> set[str]:
    """Every FROM name in ``node`` (a SELECT), its subqueries' included."""
    if isinstance(node, TableRef):
        return {node.name}
    if isinstance(node, tuple):
        return set().union(*map(table_names, node))
    if is_dataclass(node):
        return set().union(*map(table_names, vars(node).values()))
    return set()


def _plan_memo() -> list:
    """A statement's one-entry plan memo, kept by ``sql.executor``: a list
    the (frozen) node owns, not part of its value, hash or repr."""
    return field(default_factory=list, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple[str, ...]  # empty means "all, in schema order"
    rows: tuple[tuple[Expr, ...], ...] = ()
    select: Optional[Select] = None
    plan_memo: list = _plan_memo()  # [table, index version, subqueries, shapes, run]


@dataclass(frozen=True)
class Assignment:
    column: str
    expr: Expr
    increment: bool = False  # True for ``col += expr`` / ``col -= expr``
    decrement: bool = False


@dataclass(frozen=True)
class Update:
    table: str
    assignments: tuple[Assignment, ...]
    where: Optional[Expr] = None
    plan_memo: list = _plan_memo()


@dataclass(frozen=True)
class Delete:
    table: str
    where: Optional[Expr] = None
    plan_memo: list = _plan_memo()


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str


@dataclass(frozen=True)
class CreateTable:
    name: str
    columns: tuple[ColumnDef, ...]


@dataclass(frozen=True)
class CreateIndex:
    name: str
    table: str
    columns: tuple[str, ...]
    kind: str = "hash"  # hash | rbtree


@dataclass(frozen=True)
class CreateView:
    name: str
    select: Select
    materialized: bool = False


@dataclass(frozen=True)
class AlterRule:
    """``ALTER RULE name ENABLE|DISABLE`` — rule (de)activation."""

    name: str
    enabled: bool


@dataclass(frozen=True)
class Drop:
    kind: str  # table | view | rule | index
    name: str
    table: Optional[str] = None  # for DROP INDEX name ON table


# ------------------------------------------------------------- rule grammar


@dataclass(frozen=True)
class Event:
    """One transition-predicate event: inserted | deleted | updated [cols]."""

    kind: str  # inserted | deleted | updated
    columns: tuple[str, ...] = ()  # only for updated


@dataclass(frozen=True)
class RuleQuery:
    """A query in an ``if`` or ``evaluate`` clause, optionally bound."""

    select: Select
    bind_as: Optional[str] = None


@dataclass(frozen=True)
class CreateRule:
    """The full Figure 2 grammar."""

    name: str
    table: str
    events: tuple[Event, ...]
    condition: tuple[RuleQuery, ...] = ()
    evaluate: tuple[RuleQuery, ...] = ()
    function: str = ""
    unique: bool = False
    unique_on: tuple[str, ...] = ()
    compact_on: tuple[str, ...] = ()  # delta-compaction key columns
    after: float = 0.0  # seconds
    writes: tuple[str, ...] = ()  # tables the action mutates (cascade edges)


Statement = Union[
    AlterRule,
    Select,
    Insert,
    Update,
    Delete,
    CreateTable,
    CreateIndex,
    CreateView,
    CreateRule,
    Drop,
]
