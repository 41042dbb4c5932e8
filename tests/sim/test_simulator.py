"""Tests for the discrete-event simulator and metrics collection."""

import pytest

from repro.database import Database
from repro.sim.metrics import ClassSummary, MetricsCollector, TaskRecord
from repro.sim.simulator import Simulator, execute_task
from repro.txn.tasks import Task, TaskState


def charged_task(db, micros, klass="work", release=0.0):
    """A task whose body charges a fixed virtual CPU amount."""

    def body(task):
        # arith costs 0.5us each; charge enough for `micros` total.
        db.charge("arith", int(micros / 0.5))

    return Task(body=body, klass=klass, release_time=release, created_time=release)


class TestExecuteTask:
    def test_times_and_state(self):
        db = Database()
        task = charged_task(db, 100.0, release=1.0)
        db.clock.set_base(1.0)
        record = execute_task(db, task)
        assert task.state is TaskState.DONE
        assert record.start_time == 1.0
        # begin_task(20) + 100 + end_task(12) microseconds
        assert record.cpu_time == pytest.approx(132e-6)
        assert record.end_time == pytest.approx(1.0 + 132e-6)

    def test_cannot_rerun(self):
        from repro.errors import SimulationError, TaskAlreadyFinishedError

        db = Database()
        task = charged_task(db, 1.0)
        execute_task(db, task)
        # The dedicated subclass (so the scheduler loop can skip stale queue
        # entries without swallowing real simulation errors), still catchable
        # as the general SimulationError.
        with pytest.raises(TaskAlreadyFinishedError):
            execute_task(db, task)
        assert issubclass(TaskAlreadyFinishedError, SimulationError)

    def test_cannot_rerun_aborted(self):
        from repro.errors import TaskAlreadyFinishedError

        db = Database()

        def bad(task):
            raise RuntimeError("nope")

        task = Task(body=bad)
        with pytest.raises(RuntimeError):
            execute_task(db, task)
        with pytest.raises(TaskAlreadyFinishedError):
            execute_task(db, task)

    def test_failure_marks_aborted_and_propagates(self):
        db = Database()

        def bad(task):
            raise RuntimeError("nope")

        task = Task(body=bad)
        with pytest.raises(RuntimeError):
            execute_task(db, task)
        assert task.state is TaskState.ABORTED

    def test_long_task_charged_context_switches(self):
        db = Database()
        quantum_us = db.cost_model.preempt_quantum * 1e6
        task = charged_task(db, quantum_us * 3)
        record = execute_task(db, task)
        assert record.context_switches >= 3
        assert record.cpu_time > 3 * db.cost_model.preempt_quantum


class TestSimulatorLoop:
    def test_runs_in_release_order(self):
        db = Database()
        order = []

        def make(tag, release):
            def body(task):
                order.append(tag)

            return Task(body=body, release_time=release)

        db.submit(make("b", 2.0))
        db.submit(make("a", 1.0))
        Simulator(db).run()
        assert order == ["a", "b"]
        assert db.clock.base >= 2.0

    def test_until_bounds_releases(self):
        db = Database()
        ran = []
        db.submit(Task(body=lambda t: ran.append(1), release_time=1.0))
        db.submit(Task(body=lambda t: ran.append(2), release_time=100.0))
        Simulator(db).run(until=10.0)
        assert ran == [1]
        assert db.task_manager.pending == 1

    def test_max_tasks(self):
        db = Database()
        for i in range(5):
            db.submit(Task(body=lambda t: None, release_time=float(i)))
        Simulator(db).run(max_tasks=2)
        assert db.task_manager.pending == 3

    def test_arrivals_stream(self):
        db = Database()
        ran = []
        arrivals = [
            Task(body=lambda t: ran.append(t.release_time), release_time=float(i))
            for i in range(3)
        ]
        Simulator(db).run(arrivals=arrivals)
        assert ran == [0.0, 1.0, 2.0]

    def test_queueing_under_load(self):
        """Tasks released together on one server queue up; response time
        includes the wait."""
        db = Database()
        tasks = [charged_task(db, 1000.0, release=0.0) for _ in range(3)]
        for task in tasks:
            db.submit(task)
        Simulator(db).run()
        records = sorted(db.metrics.records, key=lambda r: r.start_time)
        assert records[0].queueing == pytest.approx(0.0)
        assert records[1].queueing > 0
        assert records[2].queueing > records[1].queueing
        # length excludes queueing (the Figure 11/14 metric)
        for record in records:
            assert record.length == pytest.approx(record.cpu_time, rel=1e-6)

    def test_two_processors_overlap(self):
        db = Database()
        tasks = [charged_task(db, 1000.0, release=0.0) for _ in range(2)]
        for task in tasks:
            db.submit(task)
        Simulator(db, processors=2).run()
        records = db.metrics.records
        assert records[1].queueing == pytest.approx(0.0, abs=1e-9)

    def test_bad_processor_count(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            Simulator(Database(), processors=0)

    def test_idle_time_jumps(self):
        db = Database()
        db.submit(Task(body=lambda t: None, release_time=50.0))
        Simulator(db).run()
        assert db.clock.base >= 50.0


class TestMetricsCollector:
    def make_record(self, klass="a", cpu=1.0, release=0.0, start=0.0):
        return TaskRecord(
            task_id=1,
            klass=klass,
            release_time=release,
            start_time=start,
            end_time=start + cpu,
            cpu_time=cpu,
        )

    def test_aggregation(self):
        collector = MetricsCollector()
        collector.record(self.make_record("update", cpu=1.0))
        collector.record(self.make_record("update", cpu=3.0))
        collector.record(self.make_record("recompute:f", cpu=2.0))
        assert collector.count("update") == 2
        assert collector.total_cpu("update") == 4.0
        assert collector.total_cpu() == 6.0
        assert collector.cpu_fraction(10.0, "recompute") == pytest.approx(0.2)
        assert collector.mean_length("update") == pytest.approx(2.0)

    def test_prefix_matching(self):
        collector = MetricsCollector()
        collector.record(self.make_record("recompute:f1"))
        collector.record(self.make_record("recompute:f2"))
        assert collector.count("recompute:") == 2
        assert collector.classes("recompute:") == ["recompute:f1", "recompute:f2"]

    def test_keep_records_off(self):
        collector = MetricsCollector()
        collector.set_keep_records(False)
        collector.record(self.make_record())
        assert collector.records == []
        assert collector.count("a") == 1  # aggregates still kept

    def test_queueing_and_response(self):
        record = TaskRecord(
            task_id=1,
            klass="x",
            release_time=1.0,
            start_time=3.0,
            end_time=4.0,
            cpu_time=1.0,
        )
        assert record.queueing == 2.0
        assert record.length == 1.0
        summary = ClassSummary("x")
        summary.add(record)
        assert summary.total_response == 3.0

    def test_cpu_fraction_bad_duration(self):
        with pytest.raises(ValueError):
            MetricsCollector().cpu_fraction(0.0)

    def test_summary_table(self):
        collector = MetricsCollector()
        collector.record(self.make_record("x", cpu=2.0))
        table = collector.summary_table()
        assert table[0]["class"] == "x"
        assert table[0]["count"] == 1
        assert table[0]["total_cpu_s"] == 2.0

    def test_stdev_length(self):
        collector = MetricsCollector()
        collector.record(self.make_record("x", cpu=1.0))
        collector.record(self.make_record("x", cpu=3.0))
        assert collector.by_class["x"].stdev_length == pytest.approx(1.0)
