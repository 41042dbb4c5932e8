"""View definitions registered in the catalog."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sql import ast


@dataclass
class ViewDefinition:
    """A named SELECT registered with ``CREATE VIEW``.

    A plain view is expanded inline when referenced in a query.  A view can
    later be *materialized* (:func:`repro.views.maintain.materialize`),
    which creates a backing standard table plus the STRIP rules that keep
    it maintained; ``backing_table`` then names that table.
    """

    name: str
    select: ast.Select
    sql: Optional[str] = None
    backing_table: Optional[str] = None

    @property
    def materialized(self) -> bool:
        return self.backing_table is not None
