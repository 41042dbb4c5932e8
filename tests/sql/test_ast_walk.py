"""The one walk over expression trees (``ast.operands`` / ``walk`` /
``rebuild``) against the type-dispatching walkers it replaced.

The three walkers below are the old ``contains_aggregate``, ``calls_out``
and ``column_refs`` of ``sql/ast.py``, and ``substitute_table`` the old
``views/maintain._substitute_table``, kept here as references.  Hypothesis
draws expressions over every node kind — subqueries (``EXISTS``, scalar,
``IN``) whose own SELECT holds columns and aggregates of its scope, nested
scalar and aggregate calls — and the folds over the walk must answer what
the references answer.  The one intended difference: the old rewriter never
entered an ``IN`` operand, so a view's delta query kept the base table's
name there (a ``PlanError`` at every write)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import ast

# ------------------------------------------------ the replaced walkers


def old_contains_aggregate(expr):
    if isinstance(expr, ast.FuncCall):
        if expr.name in ast.AGGREGATE_NAMES:
            return True
        return any(old_contains_aggregate(arg) for arg in expr.args)
    if isinstance(expr, ast.BinaryOp):
        return old_contains_aggregate(expr.left) or old_contains_aggregate(expr.right)
    if isinstance(expr, (ast.UnaryOp, ast.IsNull, ast.InSubquery)):
        return old_contains_aggregate(expr.operand)
    return False


def old_calls_out(expr):
    if isinstance(expr, (ast.FuncCall, ast.ScalarSubquery, ast.Exists, ast.InSubquery)):
        return True
    if isinstance(expr, ast.BinaryOp):
        return old_calls_out(expr.left) or old_calls_out(expr.right)
    if isinstance(expr, (ast.UnaryOp, ast.IsNull)):
        return old_calls_out(expr.operand)
    return False


def old_column_refs(expr):
    out = []

    def walk(node):
        if isinstance(node, ast.ColumnRef):
            out.append(node)
        elif isinstance(node, ast.BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, (ast.UnaryOp, ast.IsNull, ast.InSubquery)):
            walk(node.operand)
        elif isinstance(node, ast.FuncCall):
            for arg in node.args:
                walk(arg)

    walk(expr)
    return out


def substitute_table(expr, old, new):
    if isinstance(expr, ast.ColumnRef):
        return ast.ColumnRef(new, expr.name) if expr.table == old else expr
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(
            expr.op, substitute_table(expr.left, old, new), substitute_table(expr.right, old, new)
        )
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, substitute_table(expr.operand, old, new))
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(substitute_table(expr.operand, old, new), expr.negated)
    if isinstance(expr, ast.FuncCall):
        return ast.FuncCall(
            expr.name,
            tuple(substitute_table(arg, old, new) for arg in expr.args),
            expr.star,
            expr.distinct,
        )
    return expr


# ------------------------------------------------ generated expressions

columns = st.builds(ast.ColumnRef, st.sampled_from([None, "t", "u"]), st.sampled_from("abc"))
leaves = st.one_of(
    columns,
    st.builds(ast.Literal, st.one_of(st.none(), st.integers(-3, 3), st.just("x"))),
    st.builds(ast.Param, st.sampled_from(["p", "q"])),
)

#: A subquery's own SELECT: its columns and aggregates belong to its scope.
inner_select = st.builds(
    lambda item, where: ast.Select(
        items=(ast.SelectItem(item),), tables=(ast.TableRef("s"),), where=where
    ),
    st.one_of(columns, st.builds(lambda c: ast.FuncCall("sum", (c,)), columns)),
    st.one_of(st.none(), st.builds(lambda c: ast.BinaryOp("=", c, ast.Literal(1)), columns)),
)


def _compound(children):
    return st.one_of(
        st.builds(
            ast.BinaryOp, st.sampled_from(["+", "*", "=", "<", "and", "or"]), children, children
        ),
        st.builds(ast.UnaryOp, st.sampled_from(["-", "not"]), children),
        st.builds(ast.IsNull, children, st.booleans()),
        st.builds(
            ast.FuncCall,
            st.sampled_from(["sum", "max", "count", "f", "g"]),
            st.lists(children, max_size=3).map(tuple),
            st.booleans(),
            st.booleans(),
        ),
        st.builds(ast.InSubquery, children, inner_select, st.booleans()),
        st.builds(ast.Exists, inner_select, st.booleans()),
        st.builds(ast.ScalarSubquery, inner_select),
    )


expressions = st.recursive(leaves, _compound, max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(expr=expressions)
def test_the_folds_over_the_walk_answer_what_the_old_walkers_did(expr):
    assert ast.contains_aggregate(expr) == old_contains_aggregate(expr)
    assert ast.calls_out(expr) == old_calls_out(expr)
    assert ast.column_refs(expr) == old_column_refs(expr)


@settings(max_examples=400, deadline=None)
@given(expr=expressions)
def test_rebuild_renames_every_reference_of_the_scope_and_nothing_else(expr):
    def rename(node):
        if isinstance(node, ast.ColumnRef) and node.table == "t":
            return ast.ColumnRef("inserted", node.name)
        return None

    assert ast.rebuild(expr, lambda node: None) == expr
    renamed = ast.rebuild(expr, rename)
    assert [type(node) for node in ast.walk(renamed)] == [type(node) for node in ast.walk(expr)]
    assert ast.column_refs(renamed) == [rename(ref) or ref for ref in ast.column_refs(expr)]
    if not any(isinstance(node, ast.InSubquery) for node in ast.walk(expr)):
        assert renamed == substitute_table(expr, "t", "inserted")


def test_an_in_operand_is_rewritten_and_its_subquery_is_not():
    """The case the old rewriter missed, spelled out."""
    inner = ast.Select(
        items=(ast.SelectItem(ast.ColumnRef("t", "a")),), tables=(ast.TableRef("t"),)
    )
    expr = ast.InSubquery(ast.ColumnRef("t", "a"), inner)
    renamed = ast.rebuild(
        expr, lambda node: ast.ColumnRef("inserted", node.name)
        if isinstance(node, ast.ColumnRef) and node.table == "t" else None
    )
    assert renamed == ast.InSubquery(ast.ColumnRef("inserted", "a"), inner)
    assert renamed.select is inner
    assert substitute_table(expr, "t", "inserted") == expr
