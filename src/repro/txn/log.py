"""The per-transaction operation log.

Rule processing in STRIP happens at the end of a transaction by scanning the
transaction's log to see which events occurred; transition tables are built
during the same pass (paper section 6.3).  The log also powers abort/undo.

Each logged change carries an ``execute_order`` sequence number; for an
update, the old and new tuple images share the same number so the rule
condition can pair them (paper section 2).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.storage.tuples import Record

INSERT = "insert"
DELETE = "delete"
UPDATE = "update"


class LogEntry:
    """One logged change to one standard table (written once, never
    changed; one is built per row write, so a plain slotted class)."""

    __slots__ = ("kind", "table", "old_record", "new_record", "execute_order")

    def __init__(
        self,
        kind: str,  # INSERT / DELETE / UPDATE
        table: str,
        old_record: Optional[Record],  # None for inserts
        new_record: Optional[Record],  # None for deletes
        execute_order: int,
    ) -> None:
        self.kind = kind
        self.table = table
        self.old_record = old_record
        self.new_record = new_record
        self.execute_order = execute_order

    def __repr__(self) -> str:
        return f"LogEntry({self.kind} {self.table}#{self.execute_order})"

    def changed_offsets(self) -> set[int]:
        """Column offsets whose value actually changed (updates only)."""
        if self.kind != UPDATE or self.old_record is None or self.new_record is None:
            return set()
        return {
            offset
            for offset, (old, new) in enumerate(
                zip(self.old_record.values, self.new_record.values)
            )
            if old != new
        }


class TransactionLog:
    """Ordered list of changes made by one transaction, indexed by table."""

    __slots__ = ("entries", "_by_table", "_next_order")

    def __init__(self) -> None:
        self.entries: list[LogEntry] = []
        self._by_table: dict[str, list[LogEntry]] = {}
        self._next_order = 1

    def log_insert(self, table: str, record: Record) -> LogEntry:
        return self._append(INSERT, table, None, record)

    def log_delete(self, table: str, record: Record) -> LogEntry:
        return self._append(DELETE, table, record, None)

    def log_update(self, table: str, old: Record, new: Record) -> LogEntry:
        return self._append(UPDATE, table, old, new)

    def for_table(self, table: str) -> list[LogEntry]:
        return self._by_table.get(table, [])

    def tables_touched(self) -> list[str]:
        return list(self._by_table)

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def _append(
        self, kind: str, table: str, old: Optional[Record], new: Optional[Record]
    ) -> LogEntry:
        entry = LogEntry(kind, table, old, new, self._next_order)
        self._next_order += 1
        self.entries.append(entry)
        of_table = self._by_table.get(table)
        if of_table is None:
            self._by_table[table] = [entry]
        else:
            of_table.append(entry)
        return entry
