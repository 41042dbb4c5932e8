"""``db.persist``: the durability hook point.

Mirrors ``db.tracer`` / ``db.faults`` / ``db.recovery`` exactly: every
instrumented site tests one attribute (``persist.enabled``) and the
default :class:`NullPersistence` keeps fault-free, persistence-free runs
byte-identical to a build without the subsystem.

The :class:`PersistenceManager` turns engine events into WAL records
(format in :mod:`repro.persist.wal`, protocol in docs/PERSISTENCE.md):

``commit``
    One composite record per committed transaction carrying its DML
    (redo images from the operation log), every pending task the commit
    *created* (with a snapshot of its bound tables), every absorb into a
    pre-existing pending task (both read off ``txn.effects``), and — for
    action transactions — the retirement of the task that ran.  Bundling
    all of it into a single checksummed frame is the atomicity argument:
    a crash can never make a task durable without the commit that
    triggered it, nor an action's effects durable without its retirement
    (which would double-apply the delta on replay).

``task_started`` / ``task_finished`` / ``task_requeued`` / ``task_compact``
    Standalone frames for events with no commit of their own: execution
    start (the orphan-detection marker), abort/drop retirement, fault-
    recovery requeues (new release deadline + retry count), and the
    compaction finalize's deterministic no-op drop.

The record is built once, after rule processing succeeded: a commit that
fails and rolls back never reaches the log.  Absorbs into a task created
*by the same commit* are left out — the creation snapshot is taken at
record-build time and already contains them.  ``Task.log_closed`` keeps a
task to one terminal record — none if its creating commit never landed.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

from repro.persist.checkpoint import (
    CHECKPOINT_FILE,
    build_snapshot,
    load_snapshot,
    task_to_record,
    write_snapshot,
)
from repro.persist.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.database import Database
    from repro.txn.tasks import Task
    from repro.txn.transaction import Transaction

WAL_FILE = "wal.log"


class NullPersistence:
    """Durability disabled: one attribute check per site, no allocation."""

    enabled = False
    records_logged = 0
    checkpoint_count = 0

    def bind(self, db: "Database") -> "NullPersistence":
        return self

    def close(self) -> None:
        pass


class PersistenceManager:
    """Write-ahead logging + fuzzy checkpoints for one database.

    Create it, pass it to ``Database(persist=...)``, and flip ``enabled``
    once setup (population, rule installation) is done — then take an
    initial :meth:`checkpoint` so DDL, which never flows through the WAL,
    is durable.  ``checkpoint_every`` is a virtual-seconds interval
    consulted by the simulator between tasks (:meth:`maybe_checkpoint`).
    """

    def __init__(
        self,
        wal_dir: str,
        checkpoint_every: Optional[float] = None,
        sync: bool = False,
    ) -> None:
        self.wal_dir = str(wal_dir)
        os.makedirs(self.wal_dir, exist_ok=True)
        self.wal_path = os.path.join(self.wal_dir, WAL_FILE)
        self.checkpoint_path = os.path.join(self.wal_dir, CHECKPOINT_FILE)
        self.wal = WriteAheadLog(self.wal_path, sync=sync)
        self.checkpoint_every = checkpoint_every
        self.enabled = True
        self._db: Optional["Database"] = None
        self.records_logged = 0
        self.checkpoint_count = 0
        self._last_checkpoint_time: Optional[float] = None
        # Set by the replication cluster: an object with
        # ``on_record(frame, kind, lsn, now) -> float`` called after every
        # flush with the frame it made durable (the one way a record leaves
        # for a replica).  A non-zero return is virtual seconds the
        # committing task must wait for standby acknowledgement (semi-
        # synchronous mode); the wait lands on the active meter exactly
        # like an injected delay.
        self.shipper = None
        next_lsn = (self.wal.last_lsn or 0) + 1
        snapshot = load_snapshot(self.checkpoint_path)
        if snapshot is not None:
            next_lsn = max(next_lsn, snapshot["lsn"] + 1)
        self.next_lsn = next_lsn

    def bind(self, db: "Database") -> "PersistenceManager":
        self._db = db
        return self

    # ------------------------------------------------------------ logging

    def _log(self, payload: dict, label: str) -> None:
        db = self._db
        faults = db.faults
        if faults.enabled:
            faults.check_raise("wal.append", label)
        payload["lsn"] = self.next_lsn
        self.next_lsn += 1
        frame = self.wal.append(payload)
        if faults.enabled:
            faults.check_raise("wal.flush", label)
        nbytes = self.wal.flush()
        self.records_logged += 1
        if db.tracer.enabled:
            db.tracer.persist_flush(payload["kind"], nbytes, payload["lsn"], db.clock.now())
        if self.shipper is not None:
            wait = self.shipper.on_record(
                frame, payload["kind"], payload["lsn"], db.clock.now()
            )
            if wait > 0.0:
                meter = db.clock.active_meter
                if meter is not None:
                    meter.total += wait
                    meter.ops["repl_commit_wait"] += 1

    # ----------------------------------------------------- commit events

    def commit(self, txn: "Transaction") -> None:
        ops = []
        for entry in txn.log.entries:
            if entry.kind == "insert":
                ops.append(
                    {"op": "insert", "table": entry.table, "values": list(entry.new_record.values)}
                )
            elif entry.kind == "delete":
                ops.append(
                    {"op": "delete", "table": entry.table, "values": list(entry.old_record.values)}
                )
            else:
                ops.append(
                    {
                        "op": "update",
                        "table": entry.table,
                        "old": list(entry.old_record.values),
                        "new": list(entry.new_record.values),
                    }
                )
        finished: Optional[int] = None
        task = txn.task
        if task is not None and task.function_name is not None and not task.log_closed:
            finished = task.task_id
            task.log_closed = True
        tasks_new = []
        new_ids: set[int] = set()
        merged: dict[int, dict[str, list[list]]] = {}
        for effect in txn.effects:
            task_id = effect.task.task_id
            if effect.marks is None:
                tasks_new.append(task_to_record(effect.task))
                new_ids.add(task_id)
            elif task_id not in new_ids:  # else its creation snapshot has the rows
                bound = merged.setdefault(task_id, {})
                for name, rows in effect.rows.items():
                    bound.setdefault(name, []).extend(rows)
        absorbs = [{"task_id": task_id, "bound": rows} for task_id, rows in merged.items()]
        if not (ops or tasks_new or absorbs or finished is not None):
            return
        self._log(
            {
                "kind": "commit",
                "txn": txn.txn_id,
                "time": txn.commit_time,
                "ops": ops,
                "tasks_new": tasks_new,
                "absorbs": absorbs,
                "finished_task": finished,
            },
            label="commit",
        )

    # ------------------------------------------------- task lifecycle

    def task_started(self, task: "Task") -> None:
        self._log(
            {"kind": "task_started", "task_id": task.task_id},
            label=task.function_name or "",
        )

    def task_finished(self, task: "Task", outcome: str) -> None:
        if task.log_closed:
            return
        task.log_closed = True
        self._log(
            {"kind": "task_finished", "task_id": task.task_id, "outcome": outcome},
            label=outcome,
        )

    def task_requeued(self, task: "Task") -> None:
        self._log(
            {
                "kind": "task_requeued",
                "task_id": task.task_id,
                "release_time": task.release_time,
                "retries": task.retries,
            },
            label=task.function_name or "",
        )

    def task_compact(self, task: "Task") -> None:
        self._log(
            {"kind": "task_compact", "task_id": task.task_id},
            label=task.function_name or "",
        )

    # ---------------------------------------------------- checkpointing

    def checkpoint(self) -> int:
        """Snapshot the database and truncate the WAL; returns bytes written."""
        db = self._db
        faults = db.faults
        if faults.enabled:
            faults.check_raise("checkpoint.write", "checkpoint")
        snapshot = build_snapshot(db, self.next_lsn - 1)
        nbytes = write_snapshot(snapshot, self.checkpoint_path)
        self.wal.truncate()
        self.checkpoint_count += 1
        self._last_checkpoint_time = db.clock.now()
        if db.tracer.enabled:
            db.tracer.persist_checkpoint(
                self.checkpoint_path,
                nbytes,
                len(snapshot["tables"]),
                len(snapshot["tasks"]),
                db.clock.now(),
            )
        return nbytes

    def maybe_checkpoint(self) -> bool:
        """Checkpoint if ``checkpoint_every`` virtual seconds have passed."""
        if self.checkpoint_every is None:
            return False
        now = self._db.clock.now()
        if (
            self._last_checkpoint_time is not None
            and now - self._last_checkpoint_time < self.checkpoint_every
        ):
            return False
        self.checkpoint()
        return True

    def close(self) -> None:
        self.wal.close()

    def abandon(self) -> None:
        """The simulated process died: close the log without flushing."""
        self.wal.abandon()
