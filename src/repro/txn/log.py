"""The per-transaction operation log.

Rule processing in STRIP happens at the end of a transaction by scanning the
transaction's log to see which events occurred; transition tables are built
during the same pass (paper section 6.3).  The log also powers abort/undo.

Each logged change carries an ``execute_order`` sequence number; for an
update, the old and new tuple images share the same number so the rule
condition can pair them (paper section 2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.storage.tuples import Record

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.temptable import TempTable
    from repro.txn.tasks import Task

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


class PendingEffect:
    """One thing a rule firing of a committing transaction did to pending
    work: opened ``task`` (``marks`` is None) or batched a firing onto it.
    ``Transaction.effects`` lists them in order and is their only record:
    success enqueues and logs from it, failure walks it backwards.

    For an absorb, ``marks`` pairs each bound table absorbed into with the
    ``savepoint()`` that returns it to where it stood; ``rows`` holds the
    absorbed rows by value, per table, only while commits are logged (the
    WAL's absorb event replays them); ``time`` is the virtual time the
    absorb landed — None if it raised part-way, when it is rolled back but
    was never counted or stamped."""

    __slots__ = ("task", "marks", "rows", "time")

    def __init__(
        self, task: "Task", marks: Optional[list[tuple["TempTable", Any]]] = None
    ) -> None:
        self.task = task
        self.marks = marks
        self.rows: Optional[dict[str, list[list]]] = None
        self.time: Optional[float] = None


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
