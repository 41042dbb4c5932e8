"""Transactions: logged, locked, undoable units of database change.

A transaction belongs to exactly one task (paper section 4.4).  Its write
log drives both abort/undo and rule processing at commit time: the rule
engine scans the log to detect events and build transition tables, then
creates new tasks for triggered actions (section 6.3).

Locking discipline: strict two-phase.  Writes take exclusive row locks;
reads take one shared table lock per accessed table (a deliberate, coarse
read granularity — the paper's cost accounting likewise charges a single
``get lock`` on the simple-update path).  All locks release at commit/abort.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Any, Iterable, NoReturn, Optional

from repro.errors import LockError, TransactionError
from repro.storage.table import Table
from repro.storage.tuples import Record
from repro.txn.locks import LockMode
from repro.txn.log import DELETE, INSERT, UPDATE, PendingEffect, TransactionLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.database import Database
    from repro.txn.tasks import Task

_txn_ids = itertools.count(1)


class TransactionState(enum.Enum):
    """Lifecycle of a transaction."""
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


_ACTIVE = TransactionState.ACTIVE
_X = LockMode.EXCLUSIVE  # every row lock


class Transaction:
    """One transaction, always used via ``db.begin()`` or a task context."""

    def __init__(self, db: "Database", task: Optional["Task"] = None) -> None:
        self.db = db
        self.task = task
        self.txn_id = next(_txn_ids)
        self.state = TransactionState.ACTIVE
        db._active_txns[self.txn_id] = self
        self.log = TransactionLog()
        # What the commit did to pending unique tasks: appended by
        # UniqueManager._new_task / _absorb, read by commit() and the WAL.
        self.effects: list[PendingEffect] = []
        self.commit_time: Optional[float] = None
        self.commit_seq: Optional[int] = None
        self.begin_time = db.clock.now()
        self._read_locked_tables: set[str] = set()
        self._ix_locked_tables: set[str] = set()
        db.charge("begin_txn")
        if db.tracer.enabled:
            db.tracer.txn_begin(self, self.begin_time)

    # ----------------------------------------------------------- DML (core)

    # The three row writes meter inline (DESIGN.md 6a): what ``db.charge``
    # would add, to ``meter.total`` and ``meter.ops``, at the same points; a
    # granted row lock is one ``acquire`` call (``_refused`` is the rest).

    def insert_record(self, table: Table, values: Iterable[Any]) -> Record:
        if self.state is not _ACTIVE:
            self._check_active()
        meter, cost = self.db.metering()
        ops, name = meter.ops, table.name
        meter.total += cost["cursor_insert"]
        ops["cursor_insert"] += 1
        record = table.insert(values)
        # Log before taking the row lock: the physical insert must be
        # undoable the moment it exists, or a failed acquisition (deadlock)
        # would strand an unlogged row that abort() cannot remove.
        self.log.log_insert(name, record)
        if name not in self._ix_locked_tables:
            self._lock_table_intent(name)
        meter.total += cost["lock_acquire"]
        ops["lock_acquire"] += 1
        if not self.db.lock_manager.acquire(self.txn_id, (name, record.rid), _X):
            self._refused((name, record.rid))
        return record

    def insert(self, table_name: str, row: Any) -> Record:
        """Insert a row given as a mapping or a sequence of values."""
        table = self.db.catalog.table(table_name)
        if isinstance(row, dict):
            return self.insert_record(table, table.schema.row_from_mapping(row))
        return self.insert_record(table, row)

    def update_record(self, table: Table, record: Record, values: Iterable[Any]) -> Record:
        if self.state is not _ACTIVE:
            self._check_active()
        db = self.db
        meter, cost = db.metering()
        ops, name, lock_cost, txn_id = meter.ops, table.name, cost["lock_acquire"], self.txn_id
        if name not in self._ix_locked_tables:
            self._lock_table_intent(name)
        meter.total += lock_cost
        ops["lock_acquire"] += 1
        if not db.lock_manager.acquire(txn_id, (name, record.rid), _X):
            self._refused((name, record.rid))
        meter.total += cost["cursor_update"]
        ops["cursor_update"] += 1
        fresh = table.update(record, values)
        # Same write-ahead discipline as insert_record: the update is live in
        # the table now, so it must hit the undo log before the (fallible)
        # lock on the fresh record — otherwise a deadlock between the two
        # leaves a dirty write that survives the abort.
        self.log.log_update(name, record, fresh)
        meter.total += lock_cost
        ops["lock_acquire"] += 1
        if not db.lock_manager.acquire(txn_id, (name, fresh.rid), _X):
            self._refused((name, fresh.rid))
        return fresh

    def update_columns(self, table: Table, record: Record, changes: dict[str, Any]) -> Record:
        values = list(record.values)
        for column, value in changes.items():
            values[table.schema.offset(column)] = value
        return self.update_record(table, record, values)

    def delete_record(self, table: Table, record: Record) -> None:
        if self.state is not _ACTIVE:
            self._check_active()
        meter, cost = self.db.metering()
        ops, name = meter.ops, table.name
        if name not in self._ix_locked_tables:
            self._lock_table_intent(name)
        meter.total += cost["lock_acquire"]
        ops["lock_acquire"] += 1
        if not self.db.lock_manager.acquire(self.txn_id, (name, record.rid), _X):
            self._refused((name, record.rid))
        meter.total += cost["cursor_delete"]
        ops["cursor_delete"] += 1
        table.delete(record)
        self.log.log_delete(name, record)

    # ------------------------------------------------------------ SQL sugar

    def execute(self, sql: str, params: Optional[dict[str, Any]] = None):
        """Run a SQL statement inside this transaction."""
        return self.db.execute_in_txn(sql, self, params)

    def query(self, sql: str, params: Optional[dict[str, Any]] = None):
        """Run a SELECT inside this transaction, returning a result set."""
        return self.db.query_in_txn(sql, self, params)

    # -------------------------------------------------------------- locking

    def lock_table_shared(self, table_name: str) -> None:
        """Take (once) the shared table lock used for reads."""
        if table_name in self._read_locked_tables:
            return
        self._check_active()
        self.db.charge("lock_acquire")
        resource = (table_name, None)
        if not self.db.lock_manager.acquire(self.txn_id, resource, LockMode.SHARED):
            self._refused(resource, "; the serial engine cannot wait (see DESIGN.md)")
        self._read_locked_tables.add(table_name)

    def _lock_table_intent(self, table_name: str) -> None:
        """Two-level hierarchy: before its first exclusive row lock in a
        table, a transaction takes (once) an intention lock on the table, so
        table-level readers conflict with row writers."""
        self.db.charge("lock_acquire")
        resource = (table_name, None)
        if not self.db.lock_manager.acquire(self.txn_id, resource, LockMode.INTENTION_EXCLUSIVE):
            self._refused(resource, " (held by a reader)")
        self._ix_locked_tables.add(table_name)

    def _refused(self, resource: tuple, message: str = "") -> NoReturn:
        """A lock request the manager did not grant.  The serial engine
        cannot wait, so it raises — after withdrawing the request the
        manager queued, or a later release would grant it to a transaction
        long finished."""
        db = self.db
        db.lock_manager.cancel_waits(self.txn_id)
        if db.tracer.enabled:
            db.tracer.lock_wait(self, resource, db.clock.now())
        table_name, rid = resource
        what = f"table {table_name!r}" if rid is None else f"row {table_name}:{rid}"
        raise LockError(f"transaction {self.txn_id} blocked on {what}{message}")

    # ------------------------------------------------------------- lifecycle

    def commit(self) -> None:
        """Commit: stamp the commit time, run rule processing, free locks.

        Event checking happens at the end of the transaction prior to the
        commit point (paper section 2); triggered action transactions become
        visible to the scheduler the moment we return.
        """
        self._check_active()
        faults = self.db.faults
        if faults.enabled:
            # The txn.commit injection point: the fault lands before the
            # commit point, so the transaction rolls back whole.
            label = self.task.klass if self.task is not None else "txn"
            fault = faults.check("txn.commit", label)
            if fault is not None:
                self.abort()
                raise faults.error_for(fault, label)
        self.commit_time = self.db.clock.now()
        # Virtual time can tie across commits; the sequence number is the
        # tie-free "how much of history has this commit seen" discriminant
        # used by view maintenance to tell whether a rederivation requery
        # already reflected a pending task's source transaction.
        self.commit_seq = self.db.next_commit_seq()
        db = self.db
        if len(self.log):
            try:
                db.rule_engine.process_commit(self)
            except Exception:
                # A failing rule fails the commit: one walk, newest first,
                # takes back what its firings did to pending work, then the
                # transaction rolls back (no lock, no half-applied change).
                for effect in reversed(self.effects):
                    db.unique_manager.rescind(effect, self)
                self.commit_time = None
                self.commit_seq = None
                self.abort()
                raise
            for effect in self.effects:
                if effect.marks is None:
                    db.task_manager.enqueue(effect.task)
        persist = db.persist
        if persist.enabled:
            # The redo record is built after rule processing (new tasks'
            # bound tables — and their release times — are final) and
            # before the commit point, DML and pending-work effects in ONE
            # frame; a crash here loses the whole commit, never part of it.
            persist.commit(self)
        db.charge("commit_txn")
        self._release_locks()
        self.state = TransactionState.COMMITTED
        self.db.on_txn_finished(self)
        if self.db.tracer.enabled:
            self.db.tracer.txn_commit(self, self.db.clock.now())

    def abort(self) -> None:
        """Undo every logged change in reverse order and free locks."""
        self._check_active()
        self.db.charge("abort_txn")
        redirect: dict[int, Record] = {}

        def current(record: Record) -> Record:
            return redirect.get(record.rid, record)

        for entry in reversed(self.log.entries):
            table = self.db.catalog.table(entry.table)
            if entry.kind == INSERT:
                table.delete(current(entry.new_record))
            elif entry.kind == DELETE:
                restored = table.insert(list(entry.old_record.values))
                redirect[entry.old_record.rid] = restored
            elif entry.kind == UPDATE:
                live = current(entry.new_record)
                restored = table.update(live, list(entry.old_record.values))
                redirect[entry.old_record.rid] = restored
        self._release_locks()
        self.state = TransactionState.ABORTED
        self.db.on_txn_finished(self)
        if self.db.tracer.enabled:
            self.db.tracer.txn_abort(self, self.db.clock.now())

    def _release_locks(self) -> None:
        manager, txn_id = self.db.lock_manager, self.txn_id
        manager.cancel_waits(txn_id)  # commit or abort: leave no request queued
        held = len(manager.held_resources(txn_id))
        if held:
            self.db.charge("lock_release", held)
        manager.release_all(txn_id)
        self._read_locked_tables.clear()
        self._ix_locked_tables.clear()

    def _check_active(self) -> None:
        if self.state is not TransactionState.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.state.value}, not active"
            )

    # --------------------------------------------------------------- helpers

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.state is TransactionState.ACTIVE:
            if exc_type is None:
                self.commit()
            else:
                self.abort()

    def __repr__(self) -> str:
        return f"Txn#{self.txn_id}({self.state.value}, {len(self.log)} ops)"
