"""Versioned standard-table records.

Standard tables never modify a record in place (paper section 6.1): an
``UPDATE`` creates a brand-new record and unlinks the old one from the
table's linked list.  The old record must survive as long as any temporary
table (in particular a bound table waiting for its decoupled rule action)
still points at it, which the paper implements — and we reproduce — with a
reference counting scheme.

A record is therefore both a node in an intrusive doubly-linked list (the
table) and a pin-countable immutable value vector.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.errors import StorageError

_record_ids = itertools.count(1)


class Record:
    """One immutable version of one standard-table row.

    Attributes:
        values: the attribute values, in schema column order.  Treat as
            immutable; updates create a new :class:`Record`.
        rid: a globally unique record id (useful for debugging and as a
            dictionary key).
        in_table: ``True`` while the record is linked into its table, i.e.
            it is the *current* version of its row.
        pins: number of temporary-table references keeping this record
            alive after it has been unlinked.  Whatever stores a pointer to
            the record adds one, in line; the table holding it takes it back
            when it drops the row (:mod:`repro.storage.temptable`), and never
            below zero.
    """

    __slots__ = ("values", "rid", "in_table", "pins", "prev", "next", "__weakref__")

    def __init__(self, values: list[Any]) -> None:
        self.values = values
        self.rid = next(_record_ids)
        self.in_table = False
        self.pins = 0
        self.prev: Optional[Record] = None
        self.next: Optional[Record] = None

    @property
    def reclaimable(self) -> bool:
        """No longer the current version of its row *and* referenced by no
        temporary table."""
        return self.pins == 0 and not self.in_table

    def __getitem__(self, offset: int) -> Any:
        return self.values[offset]

    def __repr__(self) -> str:
        state = "live" if self.in_table else f"retired(pins={self.pins})"
        return f"Record#{self.rid}({self.values!r}, {state})"


class RecordList:
    """The intrusive doubly-linked list a standard table stores its records in.

    The paper stores both table kinds as linked lists of tuples; keeping the
    same structure makes unlink-on-update O(1) and preserves the property
    that retired records simply drop out of the list while staying reachable
    from temporary tables.
    """

    __slots__ = ("head", "tail", "length")

    def __init__(self) -> None:
        self.head: Optional[Record] = None
        self.tail: Optional[Record] = None
        self.length = 0

    def append(self, record: Record) -> None:
        if record.in_table:
            raise StorageError(f"record {record.rid} is already linked")
        record.prev = self.tail
        record.next = None
        if self.tail is not None:
            self.tail.next = record
        else:
            self.head = record
        self.tail = record
        record.in_table = True
        self.length += 1

    def unlink(self, record: Record) -> None:
        if not record.in_table:
            raise StorageError(f"record {record.rid} is not linked")
        if record.prev is not None:
            record.prev.next = record.next
        else:
            self.head = record.next
        if record.next is not None:
            record.next.prev = record.prev
        else:
            self.tail = record.prev
        record.prev = None
        record.next = None
        record.in_table = False
        self.length -= 1

    def replace(self, old: Record, fresh: Record) -> None:
        """``unlink(old)`` then ``append(fresh)``, in one pass."""
        if not old.in_table or fresh.in_table:
            raise StorageError(f"record {old.rid} cannot be replaced by record {fresh.rid}")
        before, after = old.prev, old.next
        if after is None:  # ``old`` is the tail: ``fresh`` takes its place
            after, fresh.prev = fresh, before
        else:
            after.prev, fresh.prev, self.tail.next = before, self.tail, fresh
        if before is None:
            self.head = after
        else:
            before.next = after
        self.tail = fresh
        old.prev = old.next = None
        old.in_table, fresh.in_table = False, True

    def __iter__(self):
        node = self.head
        while node is not None:
            # Capture next before yielding so callers may unlink the current
            # record (the classic safe-iteration idiom for intrusive lists).
            successor = node.next
            yield node
            node = successor

    def __len__(self) -> int:
        return self.length
