"""Cost attribution: the per-rule rollup, read from the collector's log."""

import pytest

from repro.database import Database
from repro.obs import ENGINE_KEY, TraceCollector
from repro.obs.attribution import RuleStats
from repro.sim.metrics import TaskRecord
from repro.sim.simulator import Simulator
from repro.txn.tasks import Task


def make_task(rule="r", klass="recompute:f"):
    return Task(
        body=lambda task: None,
        klass=klass,
        function_name="f",
        rule_name=rule,
    )


def run(collector, task, cpu=0.01, rows=0):
    """Drive the collector's hooks through one task that starts and ends."""
    collector.task_start(task, 0.0)
    record = TaskRecord(task.task_id, task.klass, 0.0, 0.0, cpu, cpu, bound_rows=rows)
    collector.task_done(task, record)


class TestRuleStats:
    def test_cost_fit_recovers_linear_model(self):
        stats = RuleStats("r")
        # cpu = 0.002 + rows * 0.0005
        for rows in (1, 4, 16, 64):
            stats.observe_task(rows, 0.002 + rows * 0.0005)
        overhead, row_cost = stats.cost_fit()
        assert overhead == pytest.approx(0.002, rel=1e-6)
        assert row_cost == pytest.approx(0.0005, rel=1e-6)

    def test_cost_fit_degenerate_single_batch_size(self):
        stats = RuleStats("r")
        stats.observe_task(8, 0.01)
        stats.observe_task(8, 0.03)
        overhead, row_cost = stats.cost_fit()
        assert overhead == pytest.approx(0.02)  # mean CPU as pure overhead
        assert row_cost == 0.0

    def test_cost_fit_empty(self):
        assert RuleStats("r").cost_fit() == (0.0, 0.0)

    def test_cost_fit_clamps_negative(self):
        stats = RuleStats("r")
        # Decreasing CPU with rows: slope clamps to 0, not negative.
        stats.observe_task(1, 0.05)
        stats.observe_task(100, 0.01)
        overhead, row_cost = stats.cost_fit()
        assert overhead >= 0.0 and row_cost == 0.0


class TestProfiler:
    def test_key_falls_back_to_klass(self):
        collector = TraceCollector()
        update = Task(body=lambda task: None, klass="update")
        task = make_task(rule="r")
        collector.unique_new(task, 0.0)
        run(collector, update)
        run(collector, task)
        attribution = collector.attribution()
        assert attribution.stats("update").tasks == 1
        assert attribution.stats("r").tasks == 1
        assert attribution.stats("recompute:f") is None

    def test_firings_and_tasks(self):
        collector = TraceCollector()
        task = make_task()
        collector.unique_new(task, 0.0)
        collector.unique_append(task, 5, 0.5)
        run(collector, task, cpu=0.02, rows=10)
        stats = collector.attribution().stats("r")
        assert stats.firings == 2
        assert stats.tasks == 1
        assert stats.cpu_s == pytest.approx(0.02)
        assert stats.bound_rows == 10

    def test_wal_flush_attributed_to_running_task(self):
        collector = TraceCollector()
        collector.persist_flush("wal", 100, 1, 0.0)  # nothing running yet
        task = make_task()
        collector.unique_new(task, 0.0)
        collector.task_start(task, 0.0)
        collector.persist_flush("wal", 40, 2, 0.0)
        collector.task_done(task, TaskRecord(task.task_id, task.klass, 0.0, 0.0, 0.1, 0.1))
        collector.persist_flush("wal", 7, 3, 0.1)  # back outside any task
        attribution = collector.attribution()
        assert attribution.stats(ENGINE_KEY).wal_bytes == 107
        assert attribution.stats("r").wal_bytes == 40
        assert attribution.stats("r").wal_records == 1

    def test_abort_clears_current(self):
        collector = TraceCollector()
        task = make_task()
        collector.unique_new(task, 0.0)
        collector.task_start(task, 0.0)
        collector.task_abort(task, 1.0)
        collector.persist_flush("wal", 9, 1, 1.0)
        attribution = collector.attribution()
        assert attribution.stats(ENGINE_KEY).wal_bytes == 9
        assert attribution.stats("r").aborts == 1

    def test_profile_rows_sorted_by_cpu(self):
        collector = TraceCollector()
        cheap, costly = make_task(rule="cheap"), make_task(rule="costly")
        for task, cpu in ((cheap, 0.01), (costly, 0.90)):
            collector.unique_new(task, 0.0)
            run(collector, task, cpu=cpu)
        rows = collector.attribution().profile_rows()
        assert [row["rule"] for row in rows] == ["costly", "cheap"]


class TestEngineIntegration:
    def test_traced_run_builds_profile(self):
        collector = TraceCollector()
        db = Database(tracer=collector)
        db.execute("create table t (k text, v real)")
        db.register_function("f", lambda ctx: None)
        db.execute(
            "create rule r on t when inserted "
            "if select k, v from inserted bind as m "
            "then execute f unique after 1 seconds"
        )
        for i in range(5):
            db.execute(f"insert into t values ('k{i}', {i})")
        Simulator(db).run()
        stats = collector.attribution().stats("r")
        assert stats is not None
        assert stats.firings == 5
        assert stats.tasks >= 1
        assert stats.cpu_s > 0
        assert stats.bound_rows == 5
