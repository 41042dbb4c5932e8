"""Tests for rule definitions and event masks."""

import pytest

from repro.core.engine import PreparedRule
from repro.core.rules import Rule
from repro.errors import CreateRuleError, RuleError
from repro.sql import ast
from repro.storage.schema import ColumnType, Schema
from repro.storage.tuples import Record
from repro.txn.log import TransactionLog


def make_rule(**kwargs):
    defaults = dict(
        name="r",
        table="t",
        events=(ast.Event("inserted"),),
        function="f",
    )
    defaults.update(kwargs)
    return Rule(**defaults)


SCHEMA = Schema.of(("symbol", ColumnType.TEXT), ("price", ColumnType.REAL))


def log_with(*ops):
    log = TransactionLog()
    for kind, old, new in ops:
        if kind == "insert":
            log.log_insert("t", Record(new))
        elif kind == "delete":
            log.log_delete("t", Record(old))
        else:
            log.log_update("t", Record(old), Record(new))
    return log.for_table("t")


class TestValidation:
    def test_requires_function(self):
        with pytest.raises(RuleError):
            make_rule(function="")

    def test_unique_on_requires_unique(self):
        with pytest.raises(RuleError):
            make_rule(unique=False, unique_on=("a",))

    def test_negative_delay(self):
        with pytest.raises(RuleError):
            make_rule(after=-1.0)

    def test_requires_events(self):
        with pytest.raises(RuleError):
            make_rule(events=())

    def test_bad_event_kind(self):
        with pytest.raises(RuleError):
            make_rule(events=(ast.Event("truncated"),))

    def test_duplicate_bind_names(self):
        query = ast.RuleQuery(
            ast.Select(items=(ast.StarItem(),), tables=(ast.TableRef("inserted"),)),
            bind_as="m",
        )
        with pytest.raises(RuleError):
            make_rule(condition=(query, query))

    def test_from_ast_strips_qualifiers_in_unique_on(self):
        stmt = ast.CreateRule(
            name="r",
            table="t",
            events=(ast.Event("inserted"),),
            function="f",
            unique=True,
            unique_on=("matches.comp",),
        )
        rule = Rule.from_ast(stmt)
        assert rule.unique_on == ("comp",)


class TestEventMatching:
    def test_insert_event(self):
        rule = make_rule(events=(ast.Event("inserted"),))
        assert PreparedRule(rule, SCHEMA).hit(log_with(("insert", None, ["A", 1.0])))
        assert not PreparedRule(rule, SCHEMA).hit(log_with(("delete", ["A", 1.0], None)))

    def test_delete_event(self):
        rule = make_rule(events=(ast.Event("deleted"),))
        assert PreparedRule(rule, SCHEMA).hit(log_with(("delete", ["A", 1.0], None)))
        assert not PreparedRule(rule, SCHEMA).hit(log_with(("insert", None, ["A", 1.0])))

    def test_update_any_column(self):
        rule = make_rule(events=(ast.Event("updated"),))
        assert PreparedRule(rule, SCHEMA).hit(log_with(("update", ["A", 1.0], ["A", 2.0])))

    def test_update_named_column_hit(self):
        rule = make_rule(events=(ast.Event("updated", ("price",)),))
        assert PreparedRule(rule, SCHEMA).hit(log_with(("update", ["A", 1.0], ["A", 2.0])))

    def test_update_named_column_miss(self):
        """An update that does not change the named column does not trigger."""
        rule = make_rule(events=(ast.Event("updated", ("price",)),))
        assert not PreparedRule(rule, SCHEMA).hit(log_with(("update", ["A", 1.0], ["B", 1.0])))

    def test_update_no_change_at_all(self):
        rule = make_rule(events=(ast.Event("updated", ("price",)),))
        assert not PreparedRule(rule, SCHEMA).hit(log_with(("update", ["A", 1.0], ["A", 1.0])))

    def test_multi_event(self):
        rule = make_rule(events=(ast.Event("inserted"), ast.Event("deleted")))
        assert PreparedRule(rule, SCHEMA).hit(log_with(("delete", ["A", 1.0], None)))
        assert PreparedRule(rule, SCHEMA).hit(log_with(("insert", None, ["A", 1.0])))
        assert not PreparedRule(rule, SCHEMA).hit(log_with(("update", ["A", 1.0], ["A", 2.0])))

    def test_empty_log(self):
        assert not PreparedRule(make_rule(), SCHEMA).hit([])

    def test_unknown_column_is_refused_when_the_mask_is_built(self):
        rule = make_rule(events=(ast.Event("updated", ("nosuch",)),))
        with pytest.raises(CreateRuleError, match="no column 'nosuch'"):
            PreparedRule(rule, SCHEMA)

    def test_bind_names(self):
        query = ast.RuleQuery(
            ast.Select(items=(ast.StarItem(),), tables=(ast.TableRef("inserted"),)),
            bind_as="m",
        )
        other = ast.RuleQuery(
            ast.Select(items=(ast.StarItem(),), tables=(ast.TableRef("t"),)),
        )
        rule = make_rule(condition=(query, other))
        assert rule.bind_names() == ["m"]
