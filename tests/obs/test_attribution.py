"""Cost attribution: the per-rule rollup."""

import pytest

from repro.database import Database
from repro.obs import ENGINE_KEY, AttributionProfiler, TraceCollector
from repro.obs.attribution import RuleStats
from repro.sim.simulator import Simulator
from repro.txn.tasks import Task


def make_task(rule="r", klass="recompute:f"):
    return Task(
        body=lambda task: None,
        klass=klass,
        function_name="f",
        rule_name=rule,
    )


class FakeRecord:
    """Just the TaskRecord fields the profiler reads."""

    def __init__(self, cpu=0.01, queueing=0.0, rows=0, switches=0):
        self.cpu_time = cpu
        self.queueing = queueing
        self.bound_rows = rows
        self.context_switches = switches


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
        task = Task(body=lambda task: None, klass="update")
        assert AttributionProfiler.key_of(task) == "update"
        assert AttributionProfiler.key_of(make_task(rule="r")) == "r"

    def test_firings_and_tasks(self):
        profiler = AttributionProfiler()
        task = make_task()
        profiler.on_unique_new(task, 0.0)
        profiler.on_unique_append(task, 5, 0.5)
        profiler.on_task_start(task, 1.0)
        profiler.on_task_done(task, FakeRecord(cpu=0.02, rows=10))
        stats = profiler.stats("r")
        assert stats.firings == 2
        assert stats.tasks == 1
        assert stats.cpu_s == pytest.approx(0.02)
        assert stats.bound_rows == 10

    def test_wal_flush_attributed_to_running_task(self):
        profiler = AttributionProfiler()
        profiler.on_persist_flush("wal", 100)  # nothing running yet
        task = make_task()
        profiler.on_task_start(task, 0.0)
        profiler.on_persist_flush("wal", 40)
        profiler.on_task_done(task, FakeRecord())
        profiler.on_persist_flush("wal", 7)  # back outside any task
        assert profiler.stats(ENGINE_KEY).wal_bytes == 107
        assert profiler.stats("r").wal_bytes == 40
        assert profiler.stats("r").wal_records == 1

    def test_abort_clears_current(self):
        profiler = AttributionProfiler()
        task = make_task()
        profiler.on_task_start(task, 0.0)
        profiler.on_task_abort(task, 1.0)
        profiler.on_persist_flush("wal", 9)
        assert profiler.stats(ENGINE_KEY).wal_bytes == 9
        assert profiler.stats("r").aborts == 1

    def test_profile_rows_sorted_by_cpu(self):
        profiler = AttributionProfiler()
        cheap, costly = make_task(rule="cheap"), make_task(rule="costly")
        profiler.on_task_done(cheap, FakeRecord(cpu=0.01))
        profiler.on_task_done(costly, FakeRecord(cpu=0.90))
        rows = profiler.profile_rows()
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
        stats = collector.attribution.stats("r")
        assert stats is not None
        assert stats.firings == 5
        assert stats.tasks >= 1
        assert stats.cpu_s > 0
        assert stats.bound_rows == 5
