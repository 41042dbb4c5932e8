"""Tests for the retry policy, the rollback of a failed commit's absorbs, and the oracle.

The experiment-level tests double as regressions for three engine bugs the
fault subsystem surfaced (docs/FAULTS.md tells the full story):

* write-ahead discipline — a physical update must be logged before the
  (fallible) lock on the fresh record, or an injected deadlock strands a
  dirty write that survives the abort;
* stranded pending tasks — a task registered as pending but never enqueued
  (dispatch failed part-way) silently swallows every later firing's rows;
* double-applied deltas — rows absorbed into pending tasks by a commit
  that later aborts must be rescinded, or the retry re-absorbs them and
  incremental actions apply the same delta twice.
"""

import pytest

from repro.database import Database
from repro.errors import InjectedAbortError, InjectedFaultError, InjectedKillError
from repro.fault import FaultInjector, RetryPolicy, check_convergence
from repro.fault.recovery import is_injected
from repro.pta.tables import Scale
from repro.pta.workload import VIEW
from repro.txn.tasks import TaskState


class TestIsInjected:
    def test_direct(self):
        assert is_injected(InjectedKillError("x"))

    def test_cause_chain(self):
        try:
            try:
                raise InjectedAbortError("inner")
            except InjectedAbortError as exc:
                raise RuntimeError("outer") from exc
        except RuntimeError as outer:
            assert is_injected(outer)

    def test_context_chain(self):
        try:
            try:
                raise InjectedKillError("inner")
            except InjectedKillError:
                raise ValueError("outer")
        except ValueError as outer:
            assert is_injected(outer)

    def test_organic_failure(self):
        assert not is_injected(RuntimeError("a real bug"))

    def test_cycle_guard(self):
        a, b = RuntimeError("a"), RuntimeError("b")
        a.__cause__, b.__cause__ = b, a
        assert not is_injected(a)


class TestRetryPolicyValidation:
    def test_bad_budget(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)

    def test_bad_backoff(self):
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.0)


def make_db(plan, max_retries=5, seed=0):
    db = Database(
        faults=FaultInjector(plan, seed=seed),
        recovery=RetryPolicy(max_retries=max_retries, backoff=0.25),
    )
    db.execute("create table t (k text, v real)")
    return db


def install_rule(db, seen, clause="unique", delay=1.0):
    def fn(ctx):
        seen.append(ctx.bound("m").to_dicts())

    db.register_function("f", fn)
    db.execute(
        "create rule r on t when inserted if select k, v from inserted "
        f"bind as m then execute f {clause} after {delay} seconds"
    )


class TestRetryAndDrop:
    def test_killed_task_retries_and_completes(self):
        db = make_db("task.exec:kill@nth=1")
        seen = []
        install_rule(db, seen)
        db.execute("insert into t values ('a', 1.0)")
        db.execute("insert into t values ('b', 2.0)")
        db.drain()
        # One kill, one retry, and the retried task saw both firings once.
        assert db.faults.injected_count == 1
        assert db.recovery.retry_count == 1
        assert db.recovery.drop_count == 0
        assert seen == [[{"k": "a", "v": 1.0}, {"k": "b", "v": 2.0}]]
        assert db.unique_manager.pending_count("f") == 0

    def test_retry_applies_exponential_backoff(self):
        db = make_db("task.exec:kill@nth=1")
        seen = []
        install_rule(db, seen)
        db.execute("insert into t values ('a', 1.0)")
        task = db.unique_manager.pending_tasks("f")[0]
        db.drain()
        assert task.retries == 1
        assert seen  # the retry ran the body

    def test_exhausted_budget_drops_the_task(self):
        db = make_db("task.exec:kill@every=1", max_retries=2)
        seen = []
        install_rule(db, seen)
        db.execute("insert into t values ('a', 1.0)")
        task = db.unique_manager.pending_tasks("f")[0]
        db.drain()  # every attempt dies: 1 initial + 2 retries, then drop
        assert seen == []
        assert db.recovery.retry_count == 2
        assert db.recovery.drop_count == 1
        assert task.state is TaskState.ABORTED
        assert db.unique_manager.pending_count("f") == 0
        # The dropped task's bound tables are retired: pins all released.
        for record in db.catalog.table("t").scan():
            assert record.pins == 0

    def test_organic_failures_are_not_retried(self):
        db = make_db("task.exec:kill@nth=99")  # never fires

        def fn(ctx):
            raise RuntimeError("a real bug")

        db.register_function("f", fn)
        db.execute(
            "create rule r on t when inserted if select k, v from inserted "
            "bind as m then execute f unique after 1 seconds"
        )
        db.execute("insert into t values ('a', 1.0)")
        with pytest.raises(Exception, match="a real bug"):
            db.drain()


class TestAbsorbUndo:
    def test_aborted_commit_rescinds_its_absorbs(self):
        db = make_db("unique.absorb:abort@nth=1")
        seen = []
        install_rule(db, seen)
        db.faults.enabled = False
        db.execute("insert into t values ('a', 1.0)")  # creates the pending task
        task = db.unique_manager.pending_tasks("f")[0]
        assert sum(len(t) for t in task.bound_tables.values()) == 1
        db.faults.enabled = True
        with pytest.raises(InjectedAbortError):
            db.execute("insert into t values ('b', 2.0)")
        # The absorb was rolled back with the commit: one bound row, one row
        # in the base table.
        assert sum(len(t) for t in task.bound_tables.values()) == 1
        assert db.query("select count(*) as n from t").rows()[0][0] == 1
        # The client retries; the task must see each row exactly once.
        db.execute("insert into t values ('b', 2.0)")
        assert sum(len(t) for t in task.bound_tables.values()) == 2
        db.drain()
        assert seen == [[{"k": "a", "v": 1.0}, {"k": "b", "v": 2.0}]]

    def test_aborted_commit_rescinds_compacted_absorbs(self):
        db = make_db("unique.absorb:abort@nth=1")
        seen = []
        install_rule(db, seen, clause="unique on k compact on k")
        db.faults.enabled = False
        db.execute("insert into t values ('a', 1.0)")
        task = db.unique_manager.pending_tasks("f")[0]
        db.faults.enabled = True
        with pytest.raises(InjectedAbortError):
            db.execute("insert into t values ('a', 2.0)")  # folds onto 'a'
        db.faults.enabled = False
        db.execute("insert into t values ('a', 2.0)")
        # The rolled-back fold does not count: two rows entered compaction
        # (the creating firing and the successful retry), not three.
        assert sum(table.rows_in for table in task.bound_tables.values()) == 2
        db.drain()
        # The fold applied once, not twice: one compacted row per key.
        assert len(seen) == 1 and len(seen[0]) == 1


SCALE = Scale.tiny()


class TestExperimentRegressions:
    """Seeded whole-experiment runs checked by the convergence oracle."""

    def test_acceptance_killed_unique_tasks_converge(self):
        # The ISSUE's acceptance scenario: kill recompute tasks, let the
        # retry policy recover, demand zero divergent rows.
        result = VIEW.run(
            scale=SCALE, view="comps", variant="unique", delay=1.0, seed=0,
            faults="task.exec[recompute]:kill@every=3", fault_seed=7,
        )
        assert result.faults_injected >= 1
        assert result.fault_retries >= 1
        assert result.fault_drops == 0
        assert result.oracle_divergent == 0
        assert result.oracle_rows > 0

    def test_write_ahead_discipline_under_injected_deadlock(self):
        # Regression: an injected deadlock on the fresh-record lock used to
        # leave an unlogged physical update that survived the abort.
        result = VIEW.run(
            scale=SCALE, view="comps", variant="unique", delay=1.0, seed=0,
            faults="lock.acquire[stocks]:deadlock@p=0.01", fault_seed=2,
        )
        assert result.faults_injected >= 1
        assert result.oracle_divergent == 0

    def test_failed_dispatch_leaves_no_stranded_task(self):
        # Regression: a dispatch abort used to strand a registered-but-never-
        # enqueued pending task that swallowed all later firings.
        result = VIEW.run(
            scale=SCALE, view="comps", variant="on_comp", delay=1.0, seed=0,
            faults="unique.dispatch:abort@nth=2", fault_seed=3,
        )
        assert result.faults_injected >= 1
        assert result.oracle_divergent == 0

    def test_aborted_absorbs_do_not_double_apply(self):
        # Regression: absorbs by a commit that later aborted used to stay in
        # the pending task, so the retry applied the same delta twice.
        result = VIEW.run(
            scale=SCALE, view="comps", variant="on_comp", delay=1.0, seed=0,
            faults="unique.absorb:abort@every=11", fault_seed=0,
        )
        assert result.faults_injected >= 1
        assert result.oracle_divergent == 0

    def test_drops_surface_as_divergence(self):
        # With no retry budget every injected kill drops rows; the oracle
        # must call the resulting staleness out, row by row.
        result = VIEW.run(
            scale=SCALE, view="comps", variant="unique", delay=1.0, seed=0,
            faults="task.exec[recompute]:kill@every=1", fault_seed=0,
            max_retries=0,
        )
        assert result.fault_drops >= 1
        assert result.oracle_divergent > 0
        report = result.oracle_report
        assert not report.ok
        assert "FAILED" in report.format()
        assert any(d.view == "comp_prices" for d in report.divergences)


class TestOracleUnit:
    def test_clean_database_converges(self):
        db = Database()
        report = check_convergence(db)
        assert report.ok and report.rows_checked == 0
        assert "OK" in report.format()
