"""Compilation of expression ASTs to Python closures.

Expressions are compiled once per (statement, binding-shape) and the
resulting closures are evaluated per row, which keeps the per-row work in
tight Python code.  SQL three-valued logic is observed: any comparison or
arithmetic over NULL yields NULL, AND/OR follow Kleene logic, and the
row-filter layer treats NULL as false.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Protocol

from repro.errors import ExecutionError, PlanError
from repro.sql import ast

Getter = Callable[[Any], Any]  # env -> value


class ResolutionContext(Protocol):
    """What expression compilation needs from the surrounding planner."""

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


def _nadd(a: Any, b: Any) -> Any:
    return None if a is None or b is None else a + b


def _nsub(a: Any, b: Any) -> Any:
    return None if a is None or b is None else a - b


def _nmul(a: Any, b: Any) -> Any:
    return None if a is None or b is None else a * b


def _ndiv(a: Any, b: Any) -> Any:
    if a is None or b is None:
        return None
    if b == 0:
        raise ExecutionError("division by zero")
    return a / b


def _nmod(a: Any, b: Any) -> Any:
    if a is None or b is None:
        return None
    if b == 0:
        raise ExecutionError("modulo by zero")
    return a % b


def _neq(a: Any, b: Any) -> Any:
    return None if a is None or b is None else a == b


def _nne(a: Any, b: Any) -> Any:
    return None if a is None or b is None else a != b


def _ordering(op: Callable[[Any, Any], bool]) -> Callable[[Any, Any], Any]:
    """NULL-safe ``<``, ``<=``, ``>`` or ``>=``: values of two types that do not
    order against each other (a REAL column and a text literal) are an error."""

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


_ARITH = {"+": _nadd, "-": _nsub, "*": _nmul, "/": _ndiv, "%": _nmod}
_COMPARE = {
    "=": _neq, "!=": _nne, "<": _ordering(operator.lt), "<=": _ordering(operator.le),
    ">": _ordering(operator.gt), ">=": _ordering(operator.ge),
}


def compile_expr(expr: ast.Expr, ctx: ResolutionContext) -> Getter:
    """Compile ``expr`` into an ``env -> value`` closure."""
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda env: value

    if isinstance(expr, ast.ColumnRef):
        return ctx.resolve_column(expr.table, expr.name)

    if isinstance(expr, ast.Param):
        return ctx.resolve_param(expr.name)

    if isinstance(expr, ast.UnaryOp):
        inner = compile_expr(expr.operand, ctx)
        if expr.op == "-":
            return lambda env: None if (v := inner(env)) is None else -v
        if expr.op == "not":

            def _not(env: Any) -> Any:
                value = inner(env)
                return None if value is None else not value

            return _not
        raise PlanError(f"unknown unary operator {expr.op!r}")

    if isinstance(expr, ast.BinaryOp):
        if expr.op == "and":
            left = compile_expr(expr.left, ctx)
            right = compile_expr(expr.right, ctx)

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

            return _and
        if expr.op == "or":
            left = compile_expr(expr.left, ctx)
            right = compile_expr(expr.right, ctx)

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

            return _or
        left = compile_expr(expr.left, ctx)
        right = compile_expr(expr.right, ctx)
        fn = _ARITH.get(expr.op) or _COMPARE.get(expr.op)
        if fn is None:
            raise PlanError(f"unknown operator {expr.op!r}")
        return lambda env: fn(left(env), right(env))

    if isinstance(expr, ast.IsNull):
        inner = compile_expr(expr.operand, ctx)
        if expr.negated:
            return lambda env: inner(env) is not None
        return lambda env: inner(env) is None

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
