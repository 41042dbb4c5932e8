"""One parametrised test over every way a task ends.

Whatever the ending — ran to completion, body raised, fault retried, retry
budget exhausted, firm deadline passed, superseded, creating commit rolled
back, recovery orphan past its budget — the same invariants hold after it:
the task's state is terminal, the unique manager holds no pending entry for
it, every record its bound tables pinned is back to zero pins, no
transaction is left active and no lock held, and (with persistence on) the
log carries exactly one terminal event for a task it ever knew — none for
one it never did.  The observers agree: no staleness stamp is owed for a
task that ended, every firing the profiler counted is reflected, lost or
still owed exactly once, and ``db.stats()`` counts only firings that landed.
"""

import pytest

from repro.database import Database
from repro.errors import FunctionError, InjectedFaultError
from repro.fault import FaultInjector, RetryPolicy
from repro.obs.tracer import TraceCollector
from repro.persist import recover
from repro.persist.manager import PersistenceManager
from repro.persist.wal import read_wal
from repro.sim.simulator import Simulator
from repro.txn.tasks import TaskState


class TaskSpy(TraceCollector):
    """The full collector, also keeping every rule-action task the unique
    manager creates."""

    def __init__(self):
        super().__init__()
        self.tasks = []

    def unique_new(self, task, now, origin=None):
        super().unique_new(task, now, origin=origin)
        self.tasks.append(task)


RULE = (
    "create rule {name} on t when inserted "
    "if select k, grp, v from inserted bind as m "
    "then execute {function} unique on grp after 1.0 seconds"
)


def make_db(tmp_path, durable, function=None, plan=None, retry=None, rules=("r",)):
    """A database with one base table and one (or more) delayed ``unique on
    grp`` rules; setup lands in the initial checkpoint, the run is logged."""
    persist = PersistenceManager(str(tmp_path / "wal")) if durable else None
    if persist is not None:
        persist.enabled = False
    faults = FaultInjector(plan) if plan else None
    if faults is not None:
        faults.enabled = False
    db = Database(tracer=TaskSpy(), faults=faults, recovery=retry, persist=persist)
    db.execute("create table t (k text, grp text, v real)")
    db.execute("create table out (k text)")
    for name in rules:
        db.register_function(f"f_{name}", function or write_out)
        db.execute(RULE.format(name=name, function=f"f_{name}"))
    if persist is not None:
        persist.enabled = True
        persist.checkpoint()
    if faults is not None:
        faults.enabled = True
    return db


def write_out(ctx):
    for row in ctx.rows("m"):
        ctx.txn.insert("out", {"k": row["k"]})


def fire(db):
    """One insert that fires the rule(s); returns the records it pinned."""
    db.execute("insert into t values ('a', 'g1', 1.0)")
    records = list(db.catalog.table("t").scan())
    assert any(record.pins for record in records), "nothing pinned: vacuous"
    return records


# Each ending drives one task to its end and returns (db, task, pinned
# records, expected state, what the log must say of the task).
ENDED_ONCE = "exactly one terminal event"
LEFT_TO_RECOVERY = "created and started, no terminal event"
NEVER_LOGGED = "never durable: neither created nor ended"


def ends_done(tmp_path, durable):
    db = make_db(tmp_path, durable)
    records = fire(db)
    assert db.drain() == 1
    return db, db.tracer.tasks[0], records, TaskState.DONE, ENDED_ONCE


def ends_done_without_committing(tmp_path, durable):
    db = make_db(tmp_path, durable, function=lambda ctx: None)
    records = fire(db)
    assert db.drain() == 1
    return db, db.tracer.tasks[0], records, TaskState.DONE, ENDED_ONCE


def ends_body_raises(tmp_path, durable):
    def boom(ctx):
        ctx.txn.insert("out", {"k": "half-done"})
        raise ValueError("organic bug")

    db = make_db(tmp_path, durable, function=boom)
    records = fire(db)
    with pytest.raises(FunctionError):
        db.drain()
    assert db.query("select count(*) as n from out").scalar() == 0
    # No terminal event: an unhandled failure takes the process down, and
    # recovery re-runs the started-never-finished task as an orphan.
    return db, db.tracer.tasks[0], records, TaskState.ABORTED, LEFT_TO_RECOVERY


def ends_fault_then_retry(tmp_path, durable):
    db = make_db(
        tmp_path, durable, plan="task.exec[recompute]:kill@nth=1", retry=RetryPolicy()
    )
    records = fire(db)
    db.drain()
    task = db.tracer.tasks[0]
    assert task.retries == 1 and db.recovery.retry_count == 1
    assert db.query("select count(*) as n from out").scalar() == 1
    return db, task, records, TaskState.DONE, ENDED_ONCE


def ends_budget_exhausted(tmp_path, durable):
    db = make_db(
        tmp_path, durable, plan="task.exec[recompute]:kill@every=1",
        retry=RetryPolicy(max_retries=2),
    )
    records = fire(db)
    db.drain()
    task = db.tracer.tasks[0]
    assert task.retries == 2 and db.recovery.drop_count == 1
    return db, task, records, TaskState.ABORTED, ENDED_ONCE


def ends_firm_deadline(tmp_path, durable):
    db = make_db(tmp_path, durable)
    records = fire(db)
    task = db.tracer.tasks[0]
    task.deadline = task.release_time - 0.5  # already late when released
    simulator = Simulator(db, drop_late=True)
    assert simulator.run() == 0 and simulator.dropped == 1
    return db, task, records, TaskState.ABORTED, ENDED_ONCE


def ends_superseded(tmp_path, durable):
    db = make_db(tmp_path, durable)
    records = fire(db)
    task = db.tracer.tasks[0]
    assert db.unique_manager.supersede("f_r", ("g1",), db.clock.now()) is task
    # It leaves the delay queue by the state check at pop, not before: the
    # queue still counts it (that length feeds the scheduling charge).
    assert len(db.task_manager.delay) == 1
    assert db.drain() == 0
    assert len(db.task_manager.delay) == 0
    return db, task, records, TaskState.ABORTED, ENDED_ONCE


def ends_creating_commit_fails(tmp_path, durable):
    # Two rules fire on the insert; the second one's dispatch is faulted,
    # so the commit rolls back and the first rule's task must go with it.
    db = make_db(
        tmp_path, durable, plan="unique.dispatch:abort@nth=2", rules=("r", "r2")
    )
    with pytest.raises(InjectedFaultError):
        db.execute("insert into t values ('a', 'g1', 1.0)")
    assert len(db.catalog.table("t")) == 0
    (task,) = db.tracer.tasks
    assert db.task_manager.pending == 0  # never enqueued
    return db, task, [], TaskState.ABORTED, NEVER_LOGGED


def ends_orphan_past_budget(tmp_path, durable):
    # A first process logs the task, spends its whole budget, starts it and
    # dies; the recovering process (logging to a directory of its own when
    # durable) must give the orphan up rather than run it again.
    dead = make_db(tmp_path / "dead", durable=True)
    fire(dead)
    task = dead.tracer.tasks[0]
    task.retries = 5
    dead.persist.task_requeued(task)
    dead.persist.task_started(task)
    dead.persist.close()

    persist = PersistenceManager(str(tmp_path / "wal")) if durable else None
    db = Database(tracer=TaskSpy(), persist=persist)
    given_up = []
    abandon = db.unique_manager.abandon
    db.unique_manager.abandon = lambda task, outcome: (
        given_up.append(task), abandon(task, outcome)
    )
    report = recover(
        db, dead.persist.wal_dir, functions={"f_r": write_out},
        retry=RetryPolicy(max_retries=5),
    )
    assert report.orphans_dropped == 1 and report.tasks_resurrected == 0
    assert db.drain() == 0
    (orphan,) = given_up
    return db, orphan, [], TaskState.ABORTED, ENDED_ONCE


ENDINGS = [
    ends_done,
    ends_done_without_committing,
    ends_body_raises,
    ends_fault_then_retry,
    ends_budget_exhausted,
    ends_firm_deadline,
    ends_superseded,
    ends_creating_commit_fails,
    ends_orphan_past_budget,
]


def log_of(db, task_id):
    """What the WAL says of ``task_id``: the commits that created it, and
    the records that end it (a standalone ``task_finished``, or the action
    transaction's commit carrying the retirement)."""
    db.persist.wal.flush()
    records, _valid, _torn = read_wal(db.persist.wal_path)
    created = [
        record
        for record in records
        if record["kind"] == "commit"
        and any(new["task_id"] == task_id for new in record["tasks_new"])
    ]
    ended = [
        record
        for record in records
        if (record["kind"] == "task_finished" and record["task_id"] == task_id)
        or (record["kind"] == "commit" and record.get("finished_task") == task_id)
    ]
    return created, ended


@pytest.mark.parametrize("durable", [False, True], ids=["volatile", "durable"])
@pytest.mark.parametrize("ending", ENDINGS, ids=lambda fn: fn.__name__[5:])
def test_every_ending_leaves_nothing_behind(tmp_path, ending, durable):
    db, task, pinned, state, logged = ending(tmp_path, durable)
    try:
        assert task.state is state
        assert all(table.retired for table in task.bound_tables.values())
        assert db.unique_manager.pending_count() == 0
        assert all(record.pins == 0 for record in pinned)
        assert db._active_txns == {}  # locks live in active transactions: none is held
        assert db.task_manager.pending == 0
        # The observers: stamps stay owed only for a task left to recovery
        # (its mutations are still unreflected); nothing is owed otherwise,
        # so admission sees an idle system.
        staleness = db.tracer.staleness
        owed = 1 if logged == LEFT_TO_RECOVERY else 0
        assert staleness.outstanding() == owed
        assert db.tracer._batch_firings == {}  # batch sizes owed for no task
        if not owed:
            assert db.tracer.backpressure(db.clock.now() + 100.0) == 0.0
        landed = sum(row["firings"] for row in db.tracer.attribution.snapshot())
        assert landed == staleness.reflected + staleness.lost + owed
        stats = db.stats()
        assert stats["rule_firings"] == landed
        assert stats["unique_pending"] == stats["unique_batched_firings"] == 0
        assert stats["tasks_pending"] == 0
        if durable:
            created, ended = log_of(db, task.task_id)
            if logged == NEVER_LOGGED:
                assert created == [] and ended == []
            elif logged == LEFT_TO_RECOVERY:
                assert len(created) == 1 and ended == []
            else:
                assert len(ended) == 1
    finally:
        db.persist.close()
