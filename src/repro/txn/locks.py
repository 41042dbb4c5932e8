"""No-wait strict two-phase locking with shared/exclusive record locks.

STRIP holds locks until commit and moves a task that must wait to the
blocked queue (paper section 6.2).  Our engine runs one task body to
completion at a time, so no holder could release while a waiter waits: a
conflicting request is refused at once with :class:`LockError` (no-wait 2PL;
Bernstein, Hadzilacos & Goodman 1987), and no wait queue exists.

Each transaction keeps its own locks: ``read_locked_tables`` (S),
``ix_locked_tables`` (IX; a table in both is X) and ``row_locks`` (X).  The
manager keeps no table: it checks a request against the other active
transactions, and only while the requester is ``checked`` (another is active,
or faults are armed); otherwise a lock is just a set insert.  Resources are
``(table, record_id)`` for rows and ``(table, None)`` for tables; a table
reader (S) conflicts with the table's row writers through their IX.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, AbstractSet, Hashable, Optional

from repro.errors import LockError

if TYPE_CHECKING:  # pragma: no cover
    from repro.txn.transaction import Transaction

Resource = tuple[str, Optional[Hashable]]


class LockMode(enum.Enum):
    """S (read), X (write), and IX (table-level intent for row writes)."""
    SHARED = "S"
    EXCLUSIVE = "X"
    INTENTION_EXCLUSIVE = "IX"  # taken on the table before row X locks

    def compatible_with(self, other: "LockMode") -> bool:
        # S+S share readers; IX+IX lets writers of different rows coexist;
        # S vs IX (a table reader blocks row writers) and X conflict.
        return self is other and self is not LockMode.EXCLUSIVE

    def covers(self, other: "LockMode") -> bool:
        """True if holding ``self`` already satisfies a request for ``other``."""
        return self is LockMode.EXCLUSIVE or self is other


# What a refusal adds to "transaction N blocked on ...", by requested mode.
_REFUSAL = {
    LockMode.SHARED: "; the serial engine cannot wait (see DESIGN.md)",
    LockMode.INTENTION_EXCLUSIVE: " (held by a reader)",
    LockMode.EXCLUSIVE: "",
}


def mode_of(txn: "Transaction", resource: Resource) -> Optional[LockMode]:
    """The mode ``txn`` holds ``resource`` in (None: not held).  A table
    both read and written is X, as an S->IX upgrade makes it; a row is X."""
    name, rid = resource
    if rid is not None:
        return LockMode.EXCLUSIVE if resource in txn.row_locks else None
    if name in txn.ix_locked_tables:
        read = name in txn.read_locked_tables
        return LockMode.EXCLUSIVE if read else LockMode.INTENTION_EXCLUSIVE
    return LockMode.SHARED if name in txn.read_locked_tables else None


class LockManager:
    """Refuses a request that conflicts with another active transaction."""

    def __init__(self, active: dict[int, "Transaction"], faults) -> None:
        self._active = active  # the database's live transactions, by id
        self.faults = faults  # the lock.acquire injection point

    def acquire(self, txn: "Transaction", resource: Resource, mode: LockMode) -> None:
        """Return (the caller then adds the lock to its own set), or raise
        :class:`LockError` if another active transaction holds a conflict."""
        faults = self.faults
        if faults.enabled:
            # Injected deadlock: the requester is picked as a victim, as if
            # a concurrent peer had closed a waits-for cycle with it.
            faults.check_raise("lock.acquire", str(resource[0]))
        for other in self._active.values():
            held = None if other is txn else mode_of(other, resource)
            if held is not None and not mode.compatible_with(held):
                table_name, rid = resource
                what = f"table {table_name!r}" if rid is None else f"row {table_name}:{rid}"
                raise LockError(f"transaction {txn.txn_id} blocked on {what}{_REFUSAL[mode]}")

    def holds(self, txn_id: int, resource: Resource, mode: LockMode) -> bool:
        """True when ``txn_id`` holds ``resource`` in a mode that satisfies
        a request for ``mode`` (X covers everything, any mode itself)."""
        txn = self._active.get(txn_id)
        held = None if txn is None else mode_of(txn, resource)
        return held is not None and held.covers(mode)

    def held_resources(self, txn_id: int) -> AbstractSet[Resource]:
        """What ``txn_id`` holds (a finished transaction holds nothing)."""
        txn = self._active.get(txn_id)
        if txn is None:
            return frozenset()
        tables = txn.read_locked_tables | txn.ix_locked_tables
        return txn.row_locks.union([(name, None) for name in tables])

    def release_all(self, txn: "Transaction") -> int:
        """Drop every lock ``txn`` holds; returns how many there were."""
        held = len(self.held_resources(txn.txn_id))
        txn.read_locked_tables.clear()
        txn.ix_locked_tables.clear()
        txn.row_locks.clear()
        return held
