"""The discrete-event, single-server task simulator.

STRIP services tasks with a pool of processes (Figure 15); the paper's
experiments run on one CPU, so the default pool size is 1.  We model the
pool as ``n`` servers in virtual time: the run loop releases tasks from the
delay queue at their release times, picks ready tasks per the scheduling
policy, executes each task's body *for real* against the database while its
meter accumulates charged CPU, and advances the clock by that CPU.

Preemption accounting: a task whose execution exceeds the cost model's
``preempt_quantum`` is charged one context switch per quantum, modelling the
paper's observation that long coarse-batched transactions get preempted by
update arrivals and system processes (section 5.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import SimulationError, TaskAlreadyFinishedError
from repro.sim.metrics import TaskRecord
from repro.txn.tasks import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.database import Database


def execute_task(
    db: "Database", task: Task, start: Optional[float] = None, server: int = 0
) -> TaskRecord:
    """Run one task to completion at virtual time ``start`` (default: now).

    ``server`` only labels the task's trace span (one Perfetto track per
    server); it does not change execution.

    A task body that raises is aborted; the database's recovery policy then
    decides the failure's fate.  Unhandled (the default): bound tables are
    retired and the error propagates.  ``"retry"``: the task was re-enqueued
    with its bound tables intact, and the aborted attempt's record (class
    ``aborted:<klass>``) is returned so the run loop can advance time past
    the wasted work.  ``"drop"``: likewise, but the rows are gone for good.
    """
    if task.state in (TaskState.DONE, TaskState.ABORTED):
        raise TaskAlreadyFinishedError(f"task {task.task_id} already finished")
    # A task with neither bound tables nor a user function (an update, a
    # feed task) has no pending entry to drop and nothing pinned to release.
    tables = task.bound_tables
    rule_task = bool(tables) or task.function_name is not None
    if rule_task:
        db.unique_manager.close_batch(task)
    task.state = TaskState.RUNNING
    if start is None:
        start = max(db.clock.base, task.release_time)
    else:
        start = max(start, task.release_time)
    release_time = task.release_time
    task.start_time = start
    if db.tracer.enabled:
        db.tracer.task_start(task, start)
    if db.persist.enabled and task.function_name is not None:
        # The orphan-detection marker: started-but-never-finished tasks are
        # re-enqueued with retry accounting on recovery.
        db.persist.task_started(task)
    bound_rows = task.bound_rows if tables else 0
    meter = task.meter
    charged_before = meter.total
    db.clock.activate(meter, start)
    cost = db.metering()[1]
    meter.total += cost["begin_task"]
    meter.ops["begin_task"] += 1
    faults = db.faults
    try:
        if faults.enabled:
            if task.function_name is not None:
                # unique.release: the moment a released unique task starts.
                faults.check_raise("unique.release", task.klass)
            fault = faults.check_raise("task.exec", task.klass)
            if fault is not None:
                # An injected stall: the task loses fault.arg seconds of
                # processor time before (and on top of) its real work.
                meter.total += fault.arg
                meter.ops["fault_delay"] += 1
        task.body(task)
    except Exception as exc:
        task.state = TaskState.ABORTED
        db.abort_orphaned_txns(task)
        meter.total += cost["end_task"]
        meter.ops["end_task"] += 1
        cpu = meter.total - charged_before
        end = db.clock.deactivate()
        task.end_time = end
        outcome = db.recovery.on_failure(db, task, exc, end)
        if db.tracer.enabled:
            db.tracer.task_abort(task, end, server)
        if outcome is None:
            task.retire_bound_tables()
            raise
        # Recovery handled it (retry re-enqueued the task with its bound
        # tables kept; drop released them).  Record the wasted attempt under
        # an "aborted:" class so recompute/update aggregates stay clean, and
        # return it so the run loop advances past the burned CPU.
        return _record(
            db, task, f"aborted:{task.klass}", release_time, start, end,
            cpu, bound_rows, dropped=(outcome == "drop"),
        )
    meter.total += cost["end_task"]
    meter.ops["end_task"] += 1
    cpu = meter.total - charged_before
    quantum = db.cost_model.preempt_quantum
    switches = int(cpu / quantum) if quantum > 0 else 0
    if switches:
        db.charge("context_switch", switches)
        task.context_switches += switches
        cpu = meter.total - charged_before
    end = db.clock.deactivate()
    task.end_time = end
    task.state = TaskState.DONE
    if rule_task:
        task.retire_bound_tables()
    if db.persist.enabled and task.function_name is not None:
        # Usually a no-op: the action transaction's own commit record
        # already carried the retirement.  Covers bodies that committed
        # nothing (the manager dedups by task id).
        db.persist.task_finished(task, "done")
    record = _record(
        db, task, task.klass, release_time, start, end, cpu, bound_rows, switches
    )
    if db.tracer.enabled:
        if switches:
            db.tracer.task_preempt(task, switches, end)
        db.tracer.task_done(task, record, server)
    return record


def _record(
    db: "Database",
    task: Task,
    klass: str,
    release_time: float,
    start: float,
    end: float,
    cpu: float = 0.0,
    bound_rows: int = 0,
    switches: int = 0,
    dropped: bool = False,
) -> TaskRecord:
    """The metrics record every task leaves behind, however it ended."""
    record = TaskRecord(
        task_id=task.task_id,
        klass=klass,
        release_time=release_time,
        start_time=start,
        end_time=end,
        cpu_time=cpu,
        bound_rows=bound_rows,
        context_switches=switches,
        deadline=task.deadline,
        dropped=dropped,
    )
    db.metrics.record(record)
    return record


def drop_task(db: "Database", task: Task, now: float) -> TaskRecord:
    """Discard a task whose firm deadline passed before it could start.

    The paper notes that in a real-time system "transactions may have to be
    restarted either because they miss their deadlines or because a high
    priority transaction is blocked" (section 3); under a firm-deadline
    policy a late task is simply abandoned, paying only the abort cost.
    """
    db.charge("abort_txn")
    db.unique_manager.abandon(task, "dropped")
    record = _record(db, task, task.klass, task.release_time, now, now, dropped=True)
    if db.tracer.enabled:
        db.tracer.task_drop(task, now)
    return record


class Simulator:
    """Single-server (by default) run loop over the database's task queues."""

    def __init__(
        self, db: "Database", processors: int = 1, drop_late: bool = False
    ) -> None:
        """``drop_late`` enables the firm-deadline policy: a task whose
        deadline has already passed when a processor picks it up is dropped
        instead of run (section 3's restart/miss discussion)."""
        if processors < 1:
            raise SimulationError("need at least one processor")
        self.db = db
        self.processors = processors
        self.drop_late = drop_late
        self.executed = 0
        self.dropped = 0
        # Called with the current virtual time after every executed or
        # dropped task — the seam the replication cluster uses to pump WAL
        # shipping and frame delivery between tasks (repro/replic/cluster).
        self.post_task_hooks: list = []

    def run(
        self,
        until: Optional[float] = None,
        max_tasks: Optional[int] = None,
        arrivals: Optional[list[Task]] = None,
    ) -> int:
        """Process queued tasks until the queues drain (or limits are hit).

        ``arrivals`` is an optional release-time-sorted stream of external
        tasks (the market feed of Figure 1 / the import system of Figure
        15): each is handed to the task manager when its release time comes,
        so the task queues only ever hold live work — the paper likewise
        excludes market-feed handling from its measurements (section 4.1).

        ``until`` bounds *release* times: tasks released later stay queued.
        With multiple processors, bodies still execute one at a time (the
        engine is serial) but start times are assigned per the earliest-free
        server, which is what the latency metrics measure.
        """
        db = self.db
        clock, manager = db.clock, db.task_manager
        ready = manager.ready
        servers = range(self.processors)
        free_at = [clock.base] * self.processors
        executed = 0
        # Arrivals in release order (ties as given), reversed: the next is last.
        waiting = sorted(arrivals or (), key=lambda task: task.release_time)
        waiting.reverse()
        finished = (TaskState.DONE, TaskState.ABORTED)
        while True:
            now = clock.base
            while waiting and waiting[-1].release_time <= now:
                manager.enqueue(waiting.pop())
            due = manager.next_release_time()
            if manager.held or (due is not None and due <= now):
                manager.release_due(now)  # nothing due and nothing held: a no-op
                due = manager.next_release_time()
            if not ready:
                if waiting and (due is None or waiting[-1].release_time < due):
                    due = waiting[-1].release_time
                if due is None:
                    break
                if until is not None and due > until:
                    break
                clock.set_base(max(now, due))
                continue
            task = manager.pop_ready()
            if task.state in finished:
                continue  # finished out of band; drop it
            server = 0 if len(free_at) == 1 else min(servers, key=free_at.__getitem__)
            start = max(free_at[server], task.release_time)
            if (
                self.drop_late
                and task.deadline is not None
                and start > task.deadline
            ):
                drop_task(db, task, start)
                self.dropped += 1
                for hook in self.post_task_hooks:
                    hook(db.clock.base)
                continue
            try:
                record = execute_task(db, task, start, server)
            except TaskAlreadyFinishedError:
                continue  # stale queue entry; nothing ran
            except Exception as exc:
                # A failure before the task body began (e.g. an injected
                # fault while sealing a compacted batch in close_batch).
                # In-body failures the recovery policy handled never get
                # here — execute_task returns their aborted-attempt record.
                if db.recovery.on_failure(db, task, exc, max(db.clock.base, start)) is None:
                    raise
                continue
            free_at[server] = record.end_time
            executed += 1
            for hook in self.post_task_hooks:
                hook(record.end_time)
            if db.persist.enabled:
                # Fuzzy checkpoints run between tasks, never mid-commit, so
                # the snapshot is transaction-consistent by construction.
                db.persist.maybe_checkpoint()
            if max_tasks is not None and executed >= max_tasks:
                break
        self.executed += executed
        return executed
