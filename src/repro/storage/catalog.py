"""The database catalog: named standard tables, views, rules and functions.

Triggered tasks additionally see their *bound tables*; name resolution for a
running task therefore consults the task's bound-table list before the
catalog (paper section 6.3).  That per-task overlay is implemented by the
execution context in :mod:`repro.sql.executor`; the catalog itself only
holds globally named objects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Optional

from repro.errors import CatalogError
from repro.storage.schema import Schema
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.rules import Rule
    from repro.views.definition import ViewDefinition


class Catalog:
    """Registry of all globally named database objects."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._views: dict[str, "ViewDefinition"] = {}
        self._rules: dict[str, "Rule"] = {}
        #: Bumped by every DDL on a name or an index and by register_scalar:
        #: what anything prepared against the catalog (a statement's memo, the
        #: rule engine's firings) compares to know it is still current.
        self.version = 0

    # -------------------------------------------------------------- tables

    def create_table(self, name: str, schema: Schema) -> Table:
        self._check_free(name)
        table = Table(name, schema)
        table.catalog = self  # its index DDL bumps the version too
        self._tables[name] = table
        self.version += 1
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise CatalogError(f"no table {name!r}")
        rules = [rule.name for rule in self._rules.values() if rule.table == name]
        if rules:
            raise CatalogError(f"table {name!r} still has rules: {', '.join(rules)}")
        del self._tables[name]
        self.version += 1

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def tables(self) -> Iterable[Table]:
        return self._tables.values()

    # --------------------------------------------------------------- views

    def create_view(self, view: "ViewDefinition") -> None:
        self._check_free(view.name)
        self._views[view.name] = view
        self.version += 1

    def drop_view(self, name: str) -> None:
        if name not in self._views:
            raise CatalogError(f"no view {name!r}")
        del self._views[name]
        self.version += 1

    def view(self, name: str) -> "ViewDefinition":
        try:
            return self._views[name]
        except KeyError:
            raise CatalogError(f"no view {name!r}") from None

    def has_view(self, name: str) -> bool:
        return name in self._views

    def views(self) -> Iterable["ViewDefinition"]:
        return self._views.values()

    # --------------------------------------------------------------- rules

    def create_rule(self, rule: "Rule") -> None:
        if rule.name in self._rules:
            raise CatalogError(f"rule {rule.name!r} already exists")
        if rule.table not in self._tables:
            raise CatalogError(f"rule {rule.name!r} is on unknown table {rule.table!r}")
        self._rules[rule.name] = rule
        self.version += 1

    def drop_rule(self, name: str) -> None:
        if self._rules.pop(name, None) is None:
            raise CatalogError(f"no rule {name!r}")
        self.version += 1

    def rule(self, name: str) -> "Rule":
        try:
            return self._rules[name]
        except KeyError:
            raise CatalogError(f"no rule {name!r}") from None

    def has_rule(self, name: str) -> bool:
        return name in self._rules

    def rules(self) -> Iterable["Rule"]:
        """Every rule, in creation order (enabled and disabled alike)."""
        return self._rules.values()

    # ------------------------------------------------------------ internals

    def _check_free(self, name: str) -> None:
        if name in self._tables:
            raise CatalogError(f"name {name!r} is already a table")
        if name in self._views:
            raise CatalogError(f"name {name!r} is already a view")

    def resolve(self, name: str) -> Optional[Any]:
        """Table or view definition registered under ``name``, else None."""
        if name in self._tables:
            return self._tables[name]
        if name in self._views:
            return self._views[name]
        return None
