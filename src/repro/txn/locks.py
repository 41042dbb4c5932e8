"""A strict two-phase lock manager with shared/exclusive record locks.

STRIP holds locks for the duration of a transaction and releases them at
commit; a task that must wait moves to the blocked queue until its lock is
granted (paper section 6.2).  Our engine executes task bodies one at a time
in virtual time, so in normal operation a request is always grantable — but
the manager is a complete implementation (wait queues, upgrades, waits-for
deadlock detection) so that concurrent interleavings can be exercised
directly, as the lock tests do.

Biased locking (Kawachiya et al., "Lock Reservation", OOPSLA 2002): a transaction
that begins alone with faults off keeps its locks in its own sets, with no
``acquire`` call, until the next one begins and ``revoke`` moves them in here.

Resources are ``(table_name, record_id)`` pairs for row locks and
``(table_name, None)`` for whole-table locks; a table lock conflicts with
every row lock in that table and vice versa (coarse two-level hierarchy).
"""

from __future__ import annotations

import enum
from typing import AbstractSet, Hashable, Optional, Sequence

from repro.errors import DeadlockError

Resource = tuple[str, Optional[Hashable]]


class LockMode(enum.Enum):
    """S (read), X (write), and IX (table-level intent for row writes)."""
    SHARED = "S"
    EXCLUSIVE = "X"
    INTENTION_EXCLUSIVE = "IX"  # taken on the table before row X locks

    def compatible_with(self, other: "LockMode") -> bool:
        if self is LockMode.EXCLUSIVE or other is LockMode.EXCLUSIVE:
            return False
        if self is other:
            # S+S share readers; IX+IX lets writers of different rows coexist.
            return True
        return False  # S vs IX: a table reader blocks row writers

    def covers(self, other: "LockMode") -> bool:
        """True if holding ``self`` already satisfies a request for ``other``."""
        if self is LockMode.EXCLUSIVE:
            return True
        return self is other


class _LockState:
    """Who holds one resource and who waits for it; exists only while
    someone does (built by the first grant, dropped by the last release);
    ``waiters`` is the empty tuple until the first request waits."""

    __slots__ = ("holders", "waiters")

    def __init__(self, holders: dict[int, LockMode]) -> None:
        self.holders = holders  # txn id -> mode
        self.waiters: Sequence[tuple[int, LockMode]] = ()


class LockManager:
    """Row/table lock manager with FIFO waiting and deadlock detection."""

    def __init__(self) -> None:
        self._locks: dict[Resource, _LockState] = {}
        self._held_by_txn: dict[int, set[Resource]] = {}
        self._waits_for: dict[int, set[int]] = {}
        self._queued = 0  # requests in wait queues right now
        self.grant_count = 0
        self.wait_count = 0
        self.deadlock_count = 0
        # The lock.acquire injection point; the Database attaches its fault
        # injector here (None for a standalone manager, as in the lock tests).
        self.faults = None
        self.reserved = None  # the Transaction holding its locks itself, if any

    # ------------------------------------------------------------- acquire

    def acquire(self, txn_id: int, resource: Resource, mode: LockMode) -> bool:
        """Try to take ``resource`` in ``mode`` for ``txn_id``.

        Returns True if granted immediately.  If the request conflicts, the
        transaction is queued (FIFO) and False is returned; the caller is
        expected to block until :meth:`release_all` by some holder grants it.
        Raises :class:`DeadlockError` if queueing would close a cycle in the
        waits-for graph (this transaction is chosen as the victim).
        """
        faults = self.faults
        if faults is not None and faults.enabled:
            # Injected deadlock: the requester is picked as a victim, as if
            # a concurrent peer had closed a waits-for cycle with it.
            faults.check_raise("lock.acquire", str(resource[0]))
        state = self._locks.get(resource)
        if state is None:
            state = self._locks[resource] = _LockState({})
        held = state.holders.get(txn_id)
        if held is not None:
            if held.covers(mode):
                return True  # already strong enough
            # Upgrade (S->X, IX->X, S<->IX escalate to X): only as sole holder.
            # A sole holder's upgrade is deliberately granted ahead of queued
            # waiters: every waiter is blocked on this very holder, so making
            # the holder queue behind them would have it wait on transactions
            # that are waiting on *it* — an instant deadlock.  The upgrade
            # jumping the FIFO is the standard resolution (waiters are granted
            # in arrival order once the holder releases).
            if len(state.holders) == 1:
                state.holders[txn_id] = LockMode.EXCLUSIVE
                self.grant_count += 1
                return True
            return self._enqueue(txn_id, resource, mode, state)

        if self._grantable(state, mode) and not state.waiters:
            state.holders[txn_id] = mode
            self._held_by_txn.setdefault(txn_id, set()).add(resource)
            self.grant_count += 1
            return True
        return self._enqueue(txn_id, resource, mode, state)

    def holds(self, txn_id: int, resource: Resource, mode: LockMode) -> bool:
        """True when ``txn_id`` already holds ``resource`` in a mode that
        satisfies a request for ``mode`` (X covers everything, any held mode
        covers itself — notably IX covers an IX request)."""
        modes, state = self._reserved_modes(txn_id), self._locks.get(resource)
        held = modes.get(resource) if modes is not None else state and state.holders.get(txn_id)
        return held is not None and held.covers(mode)

    # ------------------------------------------------------------- release

    def release_all(self, txn_id: int) -> list[tuple[int, Resource, LockMode]]:
        """Release every lock held by ``txn_id``; returns newly granted
        ``(txn_id, resource, mode)`` triples for the caller to unblock."""
        granted: list[tuple[int, Resource, LockMode]] = []
        locks = self._locks
        for resource in self._held_by_txn.pop(txn_id, ()):
            state = locks.get(resource)
            if state is None:
                continue
            state.holders.pop(txn_id, None)
            if state.waiters:
                granted.extend(self._grant_waiters(resource, state))
            if not state.holders and not state.waiters:
                del locks[resource]
        # Drop any waits-for edges pointing at the departing transaction.
        self._waits_for.pop(txn_id, None)
        for edges in self._waits_for.values():
            edges.discard(txn_id)
        return granted

    def cancel_waits(self, txn_id: int) -> None:
        """Remove ``txn_id`` from every wait queue (a refused request, or a
        transaction ending); the queues are walked only while one is not
        empty."""
        if self._queued:
            for state in self._locks.values():
                if state.waiters:
                    kept = [(t, m) for t, m in state.waiters if t != txn_id]
                    self._queued -= len(state.waiters) - len(kept)
                    state.waiters = kept
        self._waits_for.pop(txn_id, None)

    def held_resources(self, txn_id: int) -> AbstractSet[Resource]:
        """What ``txn_id`` holds: the manager's own set, to read, not keep."""
        modes = self._reserved_modes(txn_id)
        return modes.keys() if modes is not None else self._held_by_txn.get(txn_id, frozenset())

    def revoke(self) -> None:
        """A second transaction begins: the reserved owner's locks become its
        own here, sole holder of each, with no lock.acquire fault check."""
        owner = self.reserved
        modes = self._reserved_modes(owner.txn_id)
        self.reserved = owner.row_locks = None
        self._held_by_txn[owner.txn_id] = set(modes)
        for resource, mode in modes.items():
            self._locks[resource] = _LockState({owner.txn_id: mode})

    # ----------------------------------------------------------- internals

    def _reserved_modes(self, txn_id: int) -> Optional[dict[Resource, LockMode]]:
        """The reserved owner's locks (None for any other ``txn_id``): a table
        read and written is X, as the upgrade path makes it; a row is X."""
        owner = self.reserved
        if owner is None or owner.txn_id != txn_id:
            return None
        modes = {(name, None): LockMode.SHARED for name in owner.read_locked_tables}
        for name in owner.ix_locked_tables:
            shared = (name, None) in modes
            modes[(name, None)] = LockMode.EXCLUSIVE if shared else LockMode.INTENTION_EXCLUSIVE
        modes.update(dict.fromkeys(owner.row_locks, LockMode.EXCLUSIVE))
        return modes

    def _grantable(self, state: _LockState, mode: LockMode) -> bool:
        return all(mode.compatible_with(held) for held in state.holders.values())

    def _enqueue(
        self, txn_id: int, resource: Resource, mode: LockMode, state: _LockState
    ) -> bool:
        blockers = {t for t in state.holders if t != txn_id}
        blockers.update(t for t, _m in state.waiters if t != txn_id)
        self._waits_for.setdefault(txn_id, set()).update(blockers)
        if self._on_cycle(txn_id):
            self._waits_for.pop(txn_id, None)
            self.deadlock_count += 1
            raise DeadlockError(
                f"transaction {txn_id} would deadlock waiting for {sorted(blockers)}"
            )
        if not state.waiters:
            state.waiters = []  # the first wait on this resource
        state.waiters.append((txn_id, mode))
        self._queued += 1
        self.wait_count += 1
        return False

    def _on_cycle(self, start: int) -> bool:
        """Depth-first search for ``start`` reachable from its own out-edges."""
        stack = list(self._waits_for.get(start, ()))
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if node == start:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._waits_for.get(node, ()))
        return False

    def _grant_waiters(
        self, resource: Resource, state: _LockState
    ) -> list[tuple[int, Resource, LockMode]]:
        granted = []
        while state.waiters:
            txn_id, mode = state.waiters[0]
            current = state.holders.get(txn_id)
            if current is not None:
                # Pending upgrade: grant only if sole holder.
                if len(state.holders) != 1:
                    break
                state.holders[txn_id] = LockMode.EXCLUSIVE
            elif self._grantable(state, mode):
                state.holders[txn_id] = mode
                self._held_by_txn.setdefault(txn_id, set()).add(resource)
            else:
                break
            state.waiters.pop(0)
            self._queued -= 1
            self._waits_for.pop(txn_id, None)
            self.grant_count += 1
            granted.append((txn_id, resource, mode))
        return granted
