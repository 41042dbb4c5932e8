"""Tracer hook coverage: events emitted by the engine, unique manager,
transactions, queues, and simulator, plus the zero-overhead default."""

import pytest

from repro.database import Database
from repro.errors import FunctionError
from repro.obs import NullTracer, TraceCollector
from repro.sim.simulator import Simulator, execute_task
from repro.txn.tasks import Task


def make_traced_db(delay=5.0, unique="unique"):
    """A tiny rule database with a recording collector attached."""
    collector = TraceCollector()
    db = Database(tracer=collector)
    db.execute("create table t (k text, v real)")
    db.register_function("f", lambda ctx: None)
    db.execute(
        "create rule r on t when inserted "
        "if select k, v from inserted bind as m "
        f"then execute f {unique} after {delay} seconds"
    )
    return db, collector


class TestDefaults:
    def test_null_tracer_is_default_and_silent(self):
        db = Database()
        assert isinstance(db.tracer, NullTracer)
        assert not db.tracer.enabled
        db.execute("create table t (x int)")
        db.execute("insert into t values (1)")
        # NullTracer records nothing anywhere (no events attribute at all).
        assert not hasattr(db.tracer, "events")

    def test_collector_binds_cost_model(self):
        collector = TraceCollector()
        db = Database(tracer=collector)
        assert collector._cost_seconds == db.cost_model._seconds


class TestTransactionEvents:
    def test_begin_commit(self):
        db = Database(tracer=(collector := TraceCollector()))
        db.execute("create table t (x int)")
        db.execute("insert into t values (1)")
        assert collector.count("txn.begin") == 1
        assert collector.count("txn.commit") == 1
        commit = next(e for e in collector.events if e.kind == "txn.commit")
        assert commit.dur is not None and commit.dur >= 0
        assert collector.rollup().counters["txn_commit"] == 1

    def test_abort(self):
        db = Database(tracer=(collector := TraceCollector()))
        db.execute("create table t (x int)")
        txn = db.begin()
        txn.insert("t", [1])
        txn.abort()
        assert collector.count("txn.abort") == 1


class TestRuleAndUniqueEvents:
    def test_check_fire_new_append(self):
        db, collector = make_traced_db()
        db.execute("insert into t values ('a', 1.0)")
        db.execute("insert into t values ('b', 2.0)")
        assert collector.count("rule.check") == 2
        assert collector.count("rule.fire") == 2
        # First firing opens a pending task; the second coalesces onto it.
        assert collector.count("unique.new") == 1
        assert collector.count("unique.append") == 1
        append = next(e for e in collector.events if e.kind == "unique.append")
        assert append.args["rows"] == 1
        db.drain()

    def test_batch_histograms_recorded_at_task_start(self):
        db, collector = make_traced_db()
        for i in range(5):
            db.execute(f"insert into t values ('k{i}', {float(i)})")
        db.drain()
        histograms = collector.rollup().histograms
        firings = histograms["batch_firings"]
        rows = histograms["batch_size_rows"]
        assert firings.count == 1  # one recompute batch ran
        assert firings.max == 5  # ...absorbing all five firings
        assert rows.max == 5

    def test_condition_false_checks_without_fire(self):
        collector = TraceCollector()
        db = Database(tracer=collector)
        db.execute("create table t (x int)")
        db.register_function("f", lambda ctx: None)
        db.execute(
            "create rule r on t when inserted "
            "if select x from inserted where x > 100 "
            "then execute f"
        )
        db.execute("insert into t values (1)")
        assert collector.count("rule.check") == 1
        assert collector.count("rule.fire") == 0


class TestTaskEvents:
    def test_enqueue_release_done_span(self):
        db, collector = make_traced_db(delay=5.0)
        db.execute("insert into t values ('a', 1.0)")
        db.drain()
        assert collector.count("task.enqueue") >= 1
        assert collector.count("task.release") == 1  # the delayed recompute
        spans = [e for e in collector.events if e.kind == "task"]
        assert spans and all(e.dur is not None for e in spans)
        recompute = [e for e in spans if e.name.startswith("recompute:")]
        assert len(recompute) == 1
        assert recompute[0].track == "server-0"
        assert recompute[0].args["bound_rows"] == 1

    def test_queue_depth_counter_events(self):
        db, collector = make_traced_db()
        db.execute("insert into t values ('a', 1.0)")
        counters = [e for e in collector.events if e.kind == "counter.queues"]
        assert counters
        assert {"delay", "ready"} <= set(counters[-1].args)
        assert collector.rollup().histograms["queue_depth"].count == len(counters)

    def test_task_abort_event(self):
        def boom(ctx):
            raise RuntimeError("no")

        collector = TraceCollector()
        db = Database(tracer=collector)
        db.execute("create table t (x int)")
        db.register_function("boom", boom)
        db.execute("create rule r on t when inserted then execute boom")
        db.execute("insert into t values (1)")
        with pytest.raises(FunctionError):
            db.drain()
        assert collector.count("task.abort") == 1

    def test_task_preempt_event(self):
        collector = TraceCollector()
        db = Database(tracer=collector)
        # 1000 Black-Scholes charges = 80ms >> the 5ms preempt quantum.
        task = Task(body=lambda t: db.charge("f_bs", 1000), klass="long")
        record = execute_task(db, task)
        assert record.context_switches > 0
        preempts = [e for e in collector.events if e.kind == "task.preempt"]
        assert len(preempts) == 1
        assert preempts[0].args["switches"] == record.context_switches

    def test_task_drop_event(self):
        collector = TraceCollector()
        db = Database(tracer=collector)
        db.submit(Task(body=lambda t: None, klass="late", deadline=-1.0))
        simulator = Simulator(db, drop_late=True)
        simulator.run()
        assert simulator.dropped == 1
        assert collector.count("task.drop") == 1
        assert collector.rollup().counters["task_drops"] == 1

    def test_superseding_deletion_leaves_no_batch_behind(self):
        from repro.pta.workload import DELETION

        collector = TraceCollector()
        result = DELETION.run(
            n_symbols=6, positions_per_symbol=3, n_events=80, duration=20.0, seed=0,
            maintenance="dred", tracer=collector,
        )
        assert result.superseded > 0
        assert collector.count("task.supersede") > 0
        rollup = collector.rollup()
        assert rollup.counters["task_supersedes"] == collector.count("task.supersede")
        assert rollup.pending_firings == {}

    def test_cpu_by_op_breakdown(self):
        db, collector = make_traced_db()
        db.execute("insert into t values ('a', 1.0)")
        db.drain()
        assert collector.cpu_by_op  # populated from finished tasks' meters
        rows = collector.cpu_rows()
        assert rows[0]["cpu_s"] >= rows[-1]["cpu_s"]
        assert abs(sum(r["fraction"] for r in rows) - 1.0) < 1e-9
