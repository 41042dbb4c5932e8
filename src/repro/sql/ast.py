"""AST nodes for the SQL subset and the STRIP rule grammar (Figure 2)."""

from __future__ import annotations

from dataclasses import dataclass, field, is_dataclass, replace
from typing import Callable, Iterator, Optional, Union

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


#: The fields of each node that hold its operands — the expressions it
#: evaluates in its own scope — in evaluation order.  A subquery's SELECT is
#: never one: it has a scope of its own.
_OPERANDS: dict[type, tuple[str, ...]] = {
    BinaryOp: ("left", "right"),
    UnaryOp: ("operand",),
    IsNull: ("operand",),
    FuncCall: ("args",),
    InSubquery: ("operand",),
}


def operands(expr: Expr) -> tuple[Expr, ...]:
    """``expr``'s operands in evaluation order (a call's arguments one by
    one; an ``IN``'s left side, not its subquery)."""
    out: list[Expr] = []
    for name in _OPERANDS.get(type(expr), ()):
        value = getattr(expr, name)
        out += value if isinstance(value, tuple) else (value,)
    return tuple(out)


def walk(expr: Expr) -> Iterator[Expr]:
    """``expr`` and every node below it through :func:`operands`, pre-order."""
    yield expr
    for operand in operands(expr):
        yield from walk(operand)


def rebuild(expr: Expr, answer: Callable[[Expr], Optional[Expr]]) -> Expr:
    """``expr`` with each subtree that ``answer`` answers (not None) replaced
    by the answer, asked pre-order over the same operands as :func:`walk`:
    a node it does not answer is rebuilt over its operands' rebuilds (a
    leaf, a subquery's SELECT, is kept as it is)."""
    new = answer(expr)
    if new is not None:
        return new
    changes = {}
    for name in _OPERANDS.get(type(expr), ()):
        value = getattr(expr, name)
        changes[name] = (
            tuple(rebuild(arg, answer) for arg in value)
            if isinstance(value, tuple)
            else rebuild(value, answer)
        )
    return replace(expr, **changes) if changes else expr


def contains_aggregate(expr: Expr) -> bool:
    """True if ``expr`` contains an aggregate function call (one inside a
    subquery belongs to the subquery)."""
    return any(isinstance(node, FuncCall) and node.name in AGGREGATE_NAMES for node in walk(expr))


def calls_out(expr: Expr) -> bool:
    """True if evaluating ``expr`` runs code that can charge the meter: a
    function call or a subquery."""
    calls = (FuncCall, ScalarSubquery, Exists, InSubquery)
    return any(isinstance(node, calls) for node in walk(expr))


def column_refs(expr: Expr) -> list[ColumnRef]:
    """All column references appearing in ``expr`` (pre-order; a subquery
    references only its own scope)."""
    return [node for node in walk(expr) if isinstance(node, ColumnRef)]


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


def _plan_memo() -> list:
    """A statement's plan memo, kept by ``sql.executor``: a list the
    (frozen) node owns, not part of its value, hash or repr."""
    return field(default_factory=list, init=False, compare=False, repr=False)


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
    plan_memo: list = _plan_memo()  # [catalog, version, names, {namespace key: plan}]


def table_names(node: object) -> set[str]:
    """Every FROM name in ``node`` (a statement), its subqueries' included."""
    if isinstance(node, TableRef):
        return {node.name}
    if isinstance(node, tuple):
        return set().union(*map(table_names, node))
    if is_dataclass(node):
        return set().union(*map(table_names, vars(node).values()))
    return set()


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple[str, ...]  # empty means "all, in schema order"
    rows: tuple[tuple[Expr, ...], ...] = ()
    select: Optional[Select] = None
    plan_memo: list = _plan_memo()  # [catalog, version, names, {namespace key: run}]


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
