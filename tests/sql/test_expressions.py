"""Unit tests for expression compilation and SQL NULL semantics.

Every expression evaluated here runs twice when it has a source form: as
its closure and as that source compiled into a function, which must return
the same value or raise the same error."""

import pytest

from repro.errors import ExecutionError, PlanError
from repro.sql.expressions import Inline, compile_expr, truthy
from repro.sql.parser import parse_expression
from repro.storage.temptable import generate


class _StubResolution:
    """Columns resolve to entries of env[1] (a dict), read in a source as
    ``row[k]``; parameters to env[0], read as ``params[k]``; no subqueries."""

    def __init__(self, functions=None):
        self.functions = functions or {}
        self.inline = Inline()

    def resolve_subtree(self, expr):
        return None

    def resolve_column(self, table, name):
        getter = lambda env, n=name: env[1][n]
        self.inline.text[getter] = f"row[{self.inline.const(name)}]"
        return getter

    def resolve_param(self, name):
        getter = lambda env, n=name: env[0][n]
        self.inline.text[getter] = f"params[{self.inline.const(name)}]"
        return getter

    def resolve_function(self, name):
        try:
            fn = self.functions[name]
        except KeyError:
            raise PlanError(f"unknown function {name!r}") from None
        return fn, lambda: None

    def resolve_subquery(self, select):
        raise PlanError("no subqueries in stub")


def _outcome(run, env):
    try:
        return ("value", run(env))
    except ExecutionError as exc:
        return ("error", str(exc))


def evaluate(sql, row=None, params=None, functions=None):
    expr = parse_expression(sql)
    resolution = _StubResolution(functions)
    getter = compile_expr(expr, resolution)
    env = [params or {}, row or {}]
    source = resolution.inline.text.get(getter)
    if source is not None:
        lines = [f"def run(params, row): return {source}"]
        run = generate(lines, "run", "<expression>", dict(resolution.inline.names))
        closure, compiled = _outcome(getter, env), _outcome(lambda env: run(*env), env)
        assert compiled == closure and type(compiled[1]) is type(closure[1]), (sql, source)
    return getter(env)


class TestArithmetic:
    def test_basic(self):
        assert evaluate("1 + 2 * 3") == 7
        assert evaluate("(1 + 2) * 3") == 9
        assert evaluate("7 / 2") == 3.5
        assert evaluate("7 % 3") == 1
        assert evaluate("-(2 + 3)") == -5

    def test_division_by_zero(self):
        with pytest.raises(ExecutionError):
            evaluate("1 / 0")
        with pytest.raises(ExecutionError):
            evaluate("1 % 0")

    @pytest.mark.parametrize("sql, row, message", [
        ("d + 1", {"d": "x"}, "cannot apply + to str and int"),
        ("1 - d", {"d": "x"}, "cannot apply - to int and str"),
        ("d * d", {"d": "x"}, "cannot apply * to str and str"),
        ("d / 2", {"d": "x"}, "cannot apply / to str and int"),
        ("7 % d", {"d": "x"}, "cannot apply % to int and str"),
        ("-d", {"d": "x"}, "cannot apply unary - to str"),
        ("d + 1 = a", {"d": "x", "a": 1}, "cannot apply + to str and int"),
        ("d * 2", {"d": "x"}, "cannot apply * to str and int"),
        ("2 * d", {"d": "x"}, "cannot apply * to int and str"),
        ("'x' + 'y'", None, "cannot apply + to str and str"),
        ("d + d", {"d": "x"}, "cannot apply + to str and str"),
        ("d % 2", {"d": "%d"}, "cannot apply % to str and int"),
    ])
    def test_operands_python_refuses_raise_one_typed_error(self, sql, row, message):
        """The closure and the source form raise the same ExecutionError,
        naming the operator and the operand types, never a bare TypeError —
        nor a value where Python would join, repeat or format text."""
        with pytest.raises(ExecutionError) as raised:
            evaluate(sql, row)
        assert str(raised.value) == message

    def test_null_propagation(self):
        assert evaluate("a + 1", {"a": None}) is None
        assert evaluate("a * 0", {"a": None}) is None
        assert evaluate("-a", {"a": None}) is None
        assert evaluate("null / 0") is None  # null short-circuits the check


class TestComparisons:
    def test_basic(self):
        assert evaluate("2 < 3") is True
        assert evaluate("2 >= 3") is False
        assert evaluate("'a' != 'b'") is True

    def test_null_yields_unknown(self):
        assert evaluate("a = 1", {"a": None}) is None
        assert evaluate("a < 1", {"a": None}) is None
        assert evaluate("null = null") is None

    def test_is_null(self):
        assert evaluate("a is null", {"a": None}) is True
        assert evaluate("a is not null", {"a": None}) is False
        assert evaluate("1 is null") is False


class TestBooleanLogic:
    def test_kleene_and(self):
        assert evaluate("true and null") is None
        assert evaluate("false and null") is False
        assert evaluate("true and true") is True

    def test_kleene_or(self):
        assert evaluate("true or null") is True
        assert evaluate("false or null") is None
        assert evaluate("false or false") is False

    def test_not(self):
        assert evaluate("not true") is False
        assert evaluate("not null") is None

    def test_truthy_filter_semantics(self):
        assert truthy(True)
        assert not truthy(False)
        assert not truthy(None)
        assert not truthy(0)


class TestFunctionsAndParams:
    def test_scalar_function(self):
        assert evaluate("double(21)", functions={"double": lambda x: x * 2}) == 42

    def test_function_error_wrapped(self):
        def boom(_x):
            raise ValueError("bad")

        with pytest.raises(ExecutionError):
            evaluate("boom(1)", functions={"boom": boom})

    def test_unknown_function(self):
        with pytest.raises(PlanError):
            evaluate("mystery(1)")

    def test_params(self):
        assert evaluate(":x + :y", params={"x": 1, "y": 2}) == 3

    def test_aggregate_outside_select_rejected(self):
        with pytest.raises(PlanError):
            evaluate("sum(a)", {"a": 1})

    def test_columns(self):
        assert evaluate("price * qty", {"price": 2.5, "qty": 4}) == 10.0
