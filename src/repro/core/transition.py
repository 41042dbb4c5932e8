"""Transition tables: ``inserted``, ``deleted``, ``new`` and ``old``.

Built once per (transaction, table) during the commit-time log pass and
shared by every rule on that table (paper section 6.3) — the ones some
triggered rule's queries name.  STRIP does not reduce transition tables to
net effect: a tuple inserted and deleted in the same transaction appears in
both tables, preserving the audit trail (section 2).  Each row carries the
``execute_order`` sequence number; the old and new images of one update
share the same number.

Rows are pointer-based: each row holds one pointer to the standard record
(live, or retired-but-pinned for old images) plus the materialized
``execute_order`` value.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.storage.schema import Column, ColumnType, Schema
from repro.storage.table import Table
from repro.storage.temptable import ColumnSource, StaticMap, TempTable
from repro.txn.log import INSERT, UPDATE, LogEntry

if TYPE_CHECKING:  # pragma: no cover
    from repro.database import Database

TRANSITION_NAMES = ("inserted", "deleted", "new", "old")

EXECUTE_ORDER = "execute_order"


def transition_schema(table_schema: Schema) -> Schema:
    """The table's schema extended with the ``execute_order`` column."""
    return table_schema.extended(Column(EXECUTE_ORDER, ColumnType.INT))


def transition_static_map(table_schema: Schema, label: str) -> StaticMap:
    """All table columns via one record pointer; execute_order materialized."""
    sources = [ColumnSource("ptr", 0, offset) for offset in range(len(table_schema))]
    sources.append(ColumnSource("mat", 0))
    return StaticMap(sources, ptr_labels=(label,))


class TransitionShape:
    """The schema and four static maps of one ``Table`` object's transition
    tables (a table re-created under its name is a new object, with its own),
    shared by every firing of every rule on it so their plans stay valid."""

    __slots__ = ("schema", "maps")

    def __init__(self, table: Table) -> None:
        self.schema = transition_schema(table.schema)
        self.maps = {
            name: transition_static_map(table.schema, label=f"{table.name}.{name}")
            for name in TRANSITION_NAMES
        }

    def build(
        self, db: "Database", entries: list[LogEntry], names: Iterable[str]
    ) -> dict[str, TempTable]:
        """The transition tables ``names`` over one transaction's ``entries``;
        ``transition_row`` is charged for every entry in log order (two per
        update) whichever tables are built."""
        tables: dict[str, TempTable] = {}
        sinks: list = [None] * len(TRANSITION_NAMES)
        for name in names:  # one record pointer and execute_order per row, by construction
            at = TRANSITION_NAMES.index(name)
            tables[name], sinks[at] = TempTable.shaped(name, self.schema, self.maps[name])
        inserted, deleted, new, old = sinks
        meter, cost = db.metering()
        one = cost["transition_row"]
        two = one * 2  # what charge("transition_row", 2) adds
        total, rows = meter.total, 0
        for entry in entries:
            if entry.kind == UPDATE:
                total, rows = total + two, rows + 2
                images = ((new, entry.new_record), (old, entry.old_record))
            elif entry.kind == INSERT:
                total, rows = total + one, rows + 1
                images = ((inserted, entry.new_record),)
            else:
                total, rows = total + one, rows + 1
                images = ((deleted, entry.old_record),)
            for sink, record in images:
                if sink is not None:
                    record.pins += 1
                    sink(((record,), (entry.execute_order,)))
        meter.total = total
        meter.ops["transition_row"] += rows
        return tables
