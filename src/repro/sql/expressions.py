"""Compilation of expression ASTs to Python closures and source text.

Expressions are compiled once per (statement, binding-shape) and the
resulting closures are evaluated per row, which keeps the per-row work in
tight Python code.  SQL three-valued logic is observed: any comparison or
arithmetic over NULL yields NULL, AND/OR follow Kleene logic, and the
row-filter layer treats NULL as false.

Beside each closure of an expression that cannot charge, compilation
records its *source form* (:class:`Inline`): the same evaluation as a
Python expression over a generated loop's handles, which the loop nests and
the generated UPDATE / DELETE write in place of a call (DESIGN.md 6a).
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Protocol

from repro.errors import ExecutionError, PlanError
from repro.sql import ast

Getter = Callable[[Any], Any]  # env -> value


class Inline:
    """The source forms of one resolution's getters, and the generated
    globals they name.

    A source evaluates its operands in the closure's order and raises what
    the closure raises, where the closure raises it.  Statement values —
    literals, parameter and pseudo-column names — ride as globals ``k<n>``,
    as do the helpers and getters a source calls; the text itself is only
    handles, temporaries ``t<n>``, operators and those names
    (``generate``'s contract).
    """

    def __init__(self) -> None:
        #: Getter -> its source over the nest's handles (h1, h2, ...).
        self.text: dict[Getter, str] = {}
        #: The getters whose source can raise: never evaluated out of place.
        self.raising: set[Getter] = set()
        #: The globals the sources name.
        self.names: dict[str, Any] = {}
        #: What of the execution state the sources read: "params", "pseudo".
        self.reads: set[str] = set()
        self._temps = 0

    def const(self, value: Any) -> str:
        """A fresh global holding ``value``."""
        name = f"k{len(self.names)}"
        self.names[name] = value
        return name

    def temp(self) -> str:
        """A fresh local for one operand's value."""
        self._temps += 1
        return f"t{self._temps}"

    def record(
        self, getter: Getter, operands: tuple, build: Callable[..., str], raises: bool = False
    ) -> None:
        """Record ``build(*operand sources)`` as ``getter``'s source when
        every operand has one; it can raise if it does or an operand can."""
        texts = [self.text.get(operand) for operand in operands]
        if None in texts:
            return
        self.text[getter] = build(*texts)
        if raises or not self.raising.isdisjoint(operands):
            self.raising.add(getter)


class ResolutionContext(Protocol):
    """What expression compilation needs from the surrounding planner."""

    inline: Inline

    def resolve_subtree(self, expr: ast.Expr) -> Getter | None:
        """A getter for the whole of ``expr`` where this scope answers it
        itself — a group scope's keys, aliases, aggregates and row values —
        else None: ``compile_expr`` compiles it node by node."""

    def resolve_column(self, table: str | None, name: str) -> Getter:
        """A getter for a column reference, or raise PlanError."""

    def resolve_param(self, name: str) -> Getter:
        """A getter for a ``:name`` placeholder."""

    def resolve_function(self, name: str) -> tuple[Callable[..., Any], Callable[[], None]]:
        """(callable, charge-thunk) for a scalar function, or raise PlanError."""

    def resolve_subquery(self, select: Any) -> Getter:
        """A getter producing the (cached per execution) result rows of an
        uncorrelated subquery, or raise PlanError."""


# ----------------------------------------------------------- null-safe ops


def _operands(symbol: str, *values: Any) -> ExecutionError:
    """What arithmetic Python refuses (``'x' + 1``, ``-'x'``) raises: the
    operator and the operand types, typed like a refused comparison."""
    types = " and ".join(type(value).__name__ for value in values)
    return ExecutionError(f"cannot apply {symbol} to {types}")


def _arithmetic(
    symbol: str, op: Callable[[Any, Any], Any], zero: str = ""
) -> Callable[[Any, Any], Any]:
    """NULL-safe ``+``, ``-``, ``*``, ``/`` or ``%`` over numbers.  Text —
    which Python would join, repeat or format — and any operand Python
    refuses raise the typed error of :func:`_operands`; ``zero`` is the
    error of a zero right operand (``/``, ``%``)."""

    def apply(a: Any, b: Any) -> Any:
        if a is None or b is None:
            return None
        if zero and b == 0:
            raise ExecutionError(zero)
        if isinstance(a, str) or isinstance(b, str):
            raise _operands(symbol, a, b)
        try:
            return op(a, b)
        except TypeError:
            raise _operands(symbol, a, b) from None

    return apply


def _nneg(a: Any) -> Any:
    if a is None:
        return None
    try:
        return -a
    except TypeError:
        raise _operands("unary -", a) from None


def _comparison(op: Callable[[Any, Any], bool]) -> Callable[[Any, Any], Any]:
    """NULL-safe ``=``, ``!=``, ``<``, ``<=``, ``>`` or ``>=``: values of two
    types that do not order against each other (a REAL column and a text
    literal) are an error."""

    def compare(a: Any, b: Any) -> Any:
        if a is None or b is None:
            return None
        try:
            return op(a, b)
        except TypeError:
            raise ExecutionError(
                f"cannot compare {type(a).__name__} with {type(b).__name__}"
            ) from None

    return compare


_ARITH = {
    "+": _arithmetic("+", operator.add),
    "-": _arithmetic("-", operator.sub),
    "*": _arithmetic("*", operator.mul),
    "/": _arithmetic("/", operator.truediv, "division by zero"),
    "%": _arithmetic("%", operator.mod, "modulo by zero"),
}
_COMPARE = {
    symbol: _comparison(op)
    for symbol, op in (
        ("=", operator.eq), ("!=", operator.ne), ("<", operator.lt), ("<=", operator.le),
        (">", operator.gt), (">=", operator.ge),
    )
}
#: Operators a source writes in line, NULL-safe; the others call their
#: helper.  Arithmetic is written in line for operands of these classes,
#: which it cannot refuse, and calls its helper — the closure's typed error
#: — for any other.
_IN_LINE = {"+": "+", "-": "-", "*": "*", "=": "==", "!=": "!="}
_NUMERIC = frozenset({int, float})


def compile_expr(expr: ast.Expr, ctx: ResolutionContext) -> Getter:
    """Compile ``expr`` into an ``env -> value`` closure.

    A literal, a parameter, a column or pseudo-column read, and an operator
    over operands that have source forms get one too, in ``ctx.inline``
    (a function call or a subquery can charge, so its closure is called
    where the reference pipeline calls it).  NULL-safe ``+ - * = !=``,
    ``and`` / ``or`` / ``not``, unary minus and ``is [not] null`` are written
    in line, evaluating both operands of a binary operator first (a right
    operand that cannot raise is skipped after a NULL, unobservably) and the
    right side of ``and`` / ``or`` exactly when the closure does; ``/``,
    ``%``, the orderings and arithmetic over anything but an ``int`` or a
    ``float`` call their helper, which raises the closure's error — text,
    which Python would join or repeat (``'x' * 2``), and operands Python
    refuses (``'x' + 1``) are an ``ExecutionError`` naming the operator and
    their types, never a value or a bare ``TypeError``.

    ``ctx.resolve_subtree`` is asked first at every node: a scope that
    answers a subtree itself (a group scope) compiles only the operators
    above its answers here."""
    answered = ctx.resolve_subtree(expr)
    if answered is not None:
        return answered
    inline = ctx.inline
    if isinstance(expr, ast.Literal):
        value = expr.value
        getter: Getter = lambda env: value
        inline.text[getter] = inline.const(value)
        return getter

    if isinstance(expr, ast.ColumnRef):
        return ctx.resolve_column(expr.table, expr.name)

    if isinstance(expr, ast.Param):
        return ctx.resolve_param(expr.name)

    if isinstance(expr, ast.UnaryOp):
        inner = compile_expr(expr.operand, ctx)
        t = inline.temp()
        if expr.op == "-":
            getter = lambda env: _nneg(inner(env))
            inline.record(getter, (inner,), lambda a: (
                f"(None if ({t} := {a}) is None else -{t} if {t}.__class__ in"
                f" {inline.const(_NUMERIC)} else {inline.const(_nneg)}({t}))"
            ), True)
            return getter
        if expr.op == "not":

            def _not(env: Any) -> Any:
                value = inner(env)
                return None if value is None else not value

            inline.record(_not, (inner,), lambda a: f"(None if ({t} := {a}) is None else not {t})")
            return _not
        raise PlanError(f"unknown unary operator {expr.op!r}")

    if isinstance(expr, ast.BinaryOp):
        left = compile_expr(expr.left, ctx)
        right = compile_expr(expr.right, ctx)
        t, u = inline.temp(), inline.temp()
        if expr.op == "and":

            def _and(env: Any) -> Any:
                lval = left(env)
                if lval is False:
                    return False
                rval = right(env)
                if rval is False:
                    return False
                if lval is None or rval is None:
                    return None
                return True

            inline.record(_and, (left, right), lambda a, b: (
                f"(False if ({t} := {a}) is False or ({u} := {b}) is False"
                f" else None if {t} is None or {u} is None else True)"
            ))
            return _and
        if expr.op == "or":

            def _or(env: Any) -> Any:
                lval = left(env)
                if lval is True:
                    return True
                rval = right(env)
                if rval is True:
                    return True
                if lval is None or rval is None:
                    return None
                return False

            inline.record(_or, (left, right), lambda a, b: (
                f"(True if ({t} := {a}) is True or ({u} := {b}) is True"
                f" else None if {t} is None or {u} is None else False)"
            ))
            return _or
        fn = _ARITH.get(expr.op) or _COMPARE.get(expr.op)
        if fn is None:
            raise PlanError(f"unknown operator {expr.op!r}")
        getter = lambda env: fn(left(env), right(env))
        op = _IN_LINE.get(expr.op)
        if op is None:
            inline.record(getter, (left, right), lambda a, b: f"{inline.const(fn)}({a}, {b})", True)
        else:  # ``|`` evaluates a right operand that can raise even after a NULL
            either = "|" if right in inline.raising else "or"
            checked = ""  # arithmetic: in line for numbers, else the helper's error
            if op not in ("==", "!="):
                numeric = inline.const(_NUMERIC)
                checked = (f" if {t}.__class__ in {numeric} and {u}.__class__ in {numeric}"
                           f" else {inline.const(fn)}({t}, {u})")
            inline.record(getter, (left, right), lambda a, b: (
                f"(None if (({t} := {a}) is None) {either} (({u} := {b}) is None)"
                f" else {t} {op} {u}{checked})"
            ), bool(checked))
        return getter

    if isinstance(expr, ast.IsNull):
        inner = compile_expr(expr.operand, ctx)
        if expr.negated:
            getter = lambda env: inner(env) is not None
            inline.record(getter, (inner,), lambda a: f"({a} is not None)")
            return getter
        getter = lambda env: inner(env) is None
        inline.record(getter, (inner,), lambda a: f"({a} is None)")
        return getter

    if isinstance(expr, ast.ScalarSubquery):
        rows_getter = ctx.resolve_subquery(expr.select)

        def _scalar(env: Any) -> Any:
            rows = rows_getter(env)
            if not rows or not rows[0]:
                return None
            return rows[0][0]

        return _scalar

    if isinstance(expr, ast.Exists):
        rows_getter = ctx.resolve_subquery(expr.select)
        if expr.negated:
            return lambda env: not rows_getter(env)
        return lambda env: bool(rows_getter(env))

    if isinstance(expr, ast.InSubquery):
        operand = compile_expr(expr.operand, ctx)
        rows_getter = ctx.resolve_subquery(expr.select)
        negated = expr.negated

        def _in(env: Any) -> Any:
            value = operand(env)
            rows = rows_getter(env)
            values = {row[0] for row in rows}
            if value is not None and value in values:
                result: Any = True
            elif value is None or None in values:
                result = None  # SQL three-valued IN
            else:
                result = False
            if negated and result is not None:
                return not result
            return result

        return _in

    if isinstance(expr, ast.FuncCall):
        if expr.name in ast.AGGREGATE_NAMES:
            raise PlanError(
                f"aggregate {expr.name.upper()} used outside a select list / HAVING"
            )
        fn, charge = ctx.resolve_function(expr.name)
        arg_getters = [compile_expr(arg, ctx) for arg in expr.args]

        def _call(env: Any) -> Any:
            charge()
            try:
                return fn(*[getter(env) for getter in arg_getters])
            except Exception as exc:  # surface user-function failures clearly
                raise ExecutionError(f"scalar function {expr.name!r} failed: {exc}") from exc

        return _call

    raise PlanError(f"cannot compile expression node {type(expr).__name__}")


def truthy(value: Any) -> bool:
    """SQL filter semantics: NULL counts as false."""
    return bool(value) and value is not None
