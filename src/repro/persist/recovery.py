"""Crash recovery: load the last checkpoint, replay the WAL tail, and
re-enqueue resurrected pending tasks so delayed batching resumes exactly
where the dead process stopped.

Replay is redo-only and idempotent: records with ``lsn`` at or below the
checkpoint's high-water mark are skipped (a crash between checkpoint
write and WAL truncation leaves such records behind), and every DML op
carries full before/after images so it can be applied to the restored
tables directly — no rules fire during replay; the rule *firings* are in
the log as task events.

**Orphan handling** (the PR's small fix): a task with a ``task_started``
record but no matching retirement was running when the process died.  It
is not replayed blindly — its effects were never durable (the action
transaction's commit record is what carries them, and retirement rides
in that same record) — instead it spends one retry of a
:class:`repro.fault.recovery.RetryPolicy` budget, exactly like a faulted
task in the live engine: re-enqueued at the backoff release time, or
abandoned once the budget is exhausted.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import PersistenceError
from repro.fault.recovery import RetryPolicy
from repro.persist.checkpoint import (
    CHECKPOINT_FILE,
    load_snapshot,
    record_to_task,
    restore_snapshot,
)
from repro.persist.manager import WAL_FILE
from repro.persist.wal import read_wal

if TYPE_CHECKING:  # pragma: no cover
    from repro.database import Database
    from repro.txn.tasks import Task


@dataclass
class RecoveryReport:
    """What recovery found and rebuilt."""

    wal_dir: str
    checkpoint_lsn: int = 0
    wal_records: int = 0
    records_replayed: int = 0
    ops_applied: int = 0
    rows_examined: int = 0  # candidates compared while locating redo targets
    torn_bytes: int = 0
    tasks_from_checkpoint: int = 0
    tasks_from_wal: int = 0
    tasks_retired: int = 0
    tasks_resurrected: int = 0
    orphans_retried: int = 0
    orphans_dropped: int = 0
    recovered_now: float = 0.0
    resurrected: list["Task"] = field(default_factory=list)

    def describe(self) -> str:
        lines = [
            f"recovered from {self.wal_dir}",
            f"  checkpoint lsn {self.checkpoint_lsn}, wal records "
            f"{self.wal_records} ({self.records_replayed} replayed, "
            f"{self.ops_applied} ops, {self.torn_bytes} torn bytes dropped)",
            f"  pending tasks: {self.tasks_from_checkpoint} from checkpoint + "
            f"{self.tasks_from_wal} from wal - {self.tasks_retired} retired "
            f"= {self.tasks_resurrected} re-enqueued",
            f"  orphans (started, never finished): {self.orphans_retried} "
            f"retried, {self.orphans_dropped} dropped",
            f"  virtual clock restored to {self.recovered_now:.6f}",
        ]
        return "\n".join(lines)


def _apply_op(db: "Database", op: dict, report: RecoveryReport) -> None:
    """Redo one logged operation.  An update or delete finds its row by the
    logged before-image (:meth:`Table.find`: a probe of the replica's own
    index, then the whole-row comparison), so no locator is logged."""
    table = db.catalog.table(op["table"])
    kind = op["op"]
    if kind == "insert":
        table.insert(op["values"])
        return
    examined = table.rows_examined
    target = table.find(op["old"] if kind == "update" else op["values"])
    report.rows_examined += table.rows_examined - examined
    if target is None:
        raise PersistenceError(
            f"replay: no row in {op['table']!r} matches {kind} image "
            f"{op.get('old', op.get('values'))!r}"
        )
    if kind == "delete":
        table.delete(target)
    else:
        table.update(target, op["new"])


class WalApplier:
    """Applies WAL records to a database in LSN order, idempotently.

    This is the replay loop shared by :func:`bootstrap` (crash recovery
    and a standby's boot: the whole durable tail, once) and the replication
    standby (:class:`repro.replic.standby.Standby`, which then applies shipped
    frames continuously).  Idempotence is structural: every record carries a
    monotone ``lsn`` and :meth:`apply` skips anything at or below
    ``applied_lsn``, so re-applying an overlapping range — a checkpoint
    that raced WAL truncation, a retransmitted replication frame — is a
    no-op.  ``pending`` maps *logged* task ids to resurrected
    :class:`~repro.txn.tasks.Task` objects; ``running`` marks the ids
    with a ``task_started`` record but no retirement (the orphans).
    """

    def __init__(
        self,
        db: "Database",
        start_lsn: int,
        pending: Optional[dict[int, "Task"]] = None,
        start_time: float = 0.0,
        report: Optional[RecoveryReport] = None,
    ) -> None:
        self.db = db
        self.applied_lsn = start_lsn
        self.pending: dict[int, "Task"] = pending if pending is not None else {}
        self.running: set[int] = set()
        self.max_time = start_time
        self.report = report if report is not None else RecoveryReport(wal_dir="")

    def apply(self, record: dict) -> bool:
        """Apply one record; returns False when it was already applied."""
        lsn = record.get("lsn", 0)
        if lsn <= self.applied_lsn:
            return False
        db = self.db
        pending = self.pending
        report = self.report
        report.records_replayed += 1
        kind = record["kind"]
        if kind == "commit":
            self.max_time = max(self.max_time, record["time"])
            for op in record["ops"]:
                _apply_op(db, op, report)
                report.ops_applied += 1
            for task_record in record["tasks_new"]:
                pending[task_record["task_id"]] = record_to_task(db, task_record)
                report.tasks_from_wal += 1
            for absorb in record["absorbs"]:
                task = pending.get(absorb["task_id"])
                if task is not None:
                    # Logged by value before the live fold; a table that is
                    # still folding folds them again as they are appended.
                    for name, rows in absorb["bound"].items():
                        target = task.bound_tables[name]
                        for values in rows:
                            target.append_values(values)
            finished = record.get("finished_task")
            if finished is not None:
                if pending.pop(finished, None) is not None:
                    report.tasks_retired += 1
                self.running.discard(finished)
        elif kind == "task_started":
            if record["task_id"] in pending:
                self.running.add(record["task_id"])
        elif kind == "task_finished":
            if pending.pop(record["task_id"], None) is not None:
                report.tasks_retired += 1
            self.running.discard(record["task_id"])
        elif kind == "task_requeued":
            task = pending.get(record["task_id"])
            if task is not None:
                task.release_time = record["release_time"]
                task.retries = record["retries"]
            self.running.discard(record["task_id"])
        elif kind == "task_compact":
            # The task had started: the seal's no-op drop is deterministic
            # given the folded tables, so the record carries no rows.
            task = pending.get(record["task_id"])
            if task is not None:
                for table in task.bound_tables.values():
                    if table.folding:
                        table.seal()
        else:
            raise PersistenceError(f"replay: unknown WAL record kind {kind!r}")
        self.applied_lsn = lsn
        return True

    def resurrect(self, retry: Optional[RetryPolicy] = None) -> list["Task"]:
        """Re-enqueue every pending task; orphans spend one retry of
        ``retry``'s budget first (a default :class:`RetryPolicy` when None).
        Advances the clock to the latest replayed commit time first so
        backoff deadlines land in the future."""
        db = self.db
        report = self.report
        retry = retry or RetryPolicy()
        max_time = max(self.max_time, db.clock.base)
        db.clock.set_base(max_time)
        report.recovered_now = max_time
        resurrected: list["Task"] = []
        for old_id in sorted(self.pending):
            task = self.pending[old_id]
            if old_id in self.running:
                # Orphan: started but never retired — its effects were not
                # durable, so re-run it, but through the retry budget rather
                # than blindly.
                release = retry.next_release(task, max_time)
                if release is None:
                    db.unique_manager.abandon(task, "dropped")
                    report.orphans_dropped += 1
                    continue
                task.release_time = max(task.release_time, release)
                report.orphans_retried += 1
            db.task_manager.enqueue(task)
            db.unique_manager.readopt(task)
            report.tasks_resurrected += 1
            resurrected.append(task)
        report.resurrected.extend(resurrected)
        self.pending.clear()
        self.running.clear()
        return resurrected


def bootstrap(
    db: "Database",
    wal_dir: str,
    functions: Optional[dict[str, Callable]] = None,
) -> WalApplier:
    """Rebuild ``db`` (which must be empty) from ``wal_dir`` up to its newest
    durable record: load the checkpoint, register ``functions`` (user-function
    names to callables, so resurrected action bodies resolve), restore, replay
    the WAL tail.  The first half of :func:`recover` and the whole of a
    standby's boot; the applier it returns goes on applying from there."""
    report = RecoveryReport(wal_dir=str(wal_dir))
    checkpoint_path = os.path.join(wal_dir, CHECKPOINT_FILE)
    wal_path = os.path.join(wal_dir, WAL_FILE)
    snapshot = load_snapshot(checkpoint_path)
    if snapshot is None:
        raise PersistenceError(
            f"{wal_dir}: no checkpoint found — the persistence manager "
            "writes one when armed; nothing to recover from"
        )
    if functions:
        for name, fn in functions.items():
            db.functions.register(name, fn, replace=True)
    pending = restore_snapshot(db, snapshot)
    report.checkpoint_lsn = snapshot["lsn"]
    report.tasks_from_checkpoint = len(pending)
    records, _valid, torn = read_wal(wal_path)
    report.wal_records = len(records)
    report.torn_bytes = torn

    applier = WalApplier(
        db,
        start_lsn=snapshot["lsn"],
        pending=pending,
        start_time=snapshot["now"],
        report=report,
    )
    for record in records:
        applier.apply(record)
    return applier


def recover(
    db: "Database",
    wal_dir: str,
    functions: Optional[dict[str, Callable]] = None,
    retry: Optional[RetryPolicy] = None,
) -> RecoveryReport:
    """:func:`bootstrap` ``db`` from ``wal_dir``, then re-enqueue what was
    pending.  ``retry`` governs orphans only (:meth:`WalApplier.resurrect`)."""
    applier = bootstrap(db, wal_dir, functions)
    applier.resurrect(retry)
    return applier.report
