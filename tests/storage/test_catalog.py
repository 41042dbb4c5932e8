"""Tests for the catalog."""

import pytest

from repro.core.rules import Rule
from repro.errors import CatalogError
from repro.sql import ast
from repro.storage.catalog import Catalog
from repro.storage.schema import ColumnType, Schema
from repro.views.definition import ViewDefinition


def make_catalog():
    catalog = Catalog()
    catalog.create_table("t", Schema.of(("a", ColumnType.INT)))
    return catalog


def make_rule(name="r", table="t"):
    return Rule(
        name=name,
        table=table,
        events=(ast.Event("inserted"),),
        function="f",
    )


class TestTables:
    def test_create_and_get(self):
        catalog = make_catalog()
        assert catalog.table("t").name == "t"
        assert catalog.has_table("t")

    def test_missing_table(self):
        with pytest.raises(CatalogError):
            Catalog().table("nope")

    def test_duplicate_name(self):
        catalog = make_catalog()
        with pytest.raises(CatalogError):
            catalog.create_table("t", Schema.of(("b", ColumnType.INT)))

    def test_drop(self):
        catalog = make_catalog()
        catalog.drop_table("t")
        assert not catalog.has_table("t")

    def test_drop_missing(self):
        with pytest.raises(CatalogError):
            Catalog().drop_table("t")

    def test_drop_with_rules_refused(self):
        catalog = make_catalog()
        catalog.create_rule(make_rule())
        with pytest.raises(CatalogError):
            catalog.drop_table("t")


class TestViews:
    def make_view(self, name="v"):
        select = ast.Select(
            items=(ast.StarItem(),),
            tables=(ast.TableRef("t"),),
        )
        return ViewDefinition(name, select)

    def test_create_and_get(self):
        catalog = make_catalog()
        catalog.create_view(self.make_view())
        assert catalog.has_view("v")
        assert catalog.view("v").name == "v"

    def test_view_name_collides_with_table(self):
        catalog = make_catalog()
        with pytest.raises(CatalogError):
            catalog.create_view(self.make_view("t"))

    def test_table_name_collides_with_view(self):
        catalog = make_catalog()
        catalog.create_view(self.make_view())
        with pytest.raises(CatalogError):
            catalog.create_table("v", Schema.of(("a", ColumnType.INT)))

    def test_drop_view(self):
        catalog = make_catalog()
        catalog.create_view(self.make_view())
        catalog.drop_view("v")
        assert not catalog.has_view("v")

    def test_resolve(self):
        catalog = make_catalog()
        catalog.create_view(self.make_view())
        assert catalog.resolve("t").name == "t"
        assert catalog.resolve("v").name == "v"
        assert catalog.resolve("zzz") is None


class TestRules:
    def test_create_and_lookup(self):
        catalog = make_catalog()
        rule = make_rule()
        catalog.create_rule(rule)
        assert catalog.rule("r") is rule
        assert catalog.has_rule("r")
        assert list(catalog.rules()) == [rule]

    def test_rule_on_unknown_table(self):
        with pytest.raises(CatalogError):
            Catalog().create_rule(make_rule())

    def test_duplicate_rule(self):
        catalog = make_catalog()
        catalog.create_rule(make_rule())
        with pytest.raises(CatalogError):
            catalog.create_rule(make_rule())

    def test_drop_rule(self):
        catalog = make_catalog()
        catalog.create_rule(make_rule())
        catalog.drop_rule("r")
        assert not catalog.has_rule("r")
        assert list(catalog.rules()) == []

    def test_drop_missing_rule(self):
        with pytest.raises(CatalogError):
            make_catalog().drop_rule("r")
