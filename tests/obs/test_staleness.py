"""Staleness tracker: mutation stamps, reflection lag, watermark, loss.

The ledger is read from the collector's event log, so these tests drive
the collector's hooks — the calls the engine makes — and read
``collector.staleness``, which folds in the events logged since its last
read."""

from itertools import islice

import pytest

from repro.database import Database
from repro.obs import StalenessTracker, TraceCollector
from repro.sim.metrics import TaskRecord
from repro.sim.simulator import Simulator
from repro.txn.tasks import Task


def make_task(function="f", rule="r", created=0.0, klass="recompute:f"):
    return Task(
        body=lambda task: None,
        klass=klass,
        created_time=created,
        function_name=function,
        rule_name=rule,
    )


def done(collector, task, end):
    """The task ran and committed, ending at ``end``."""
    collector.task_done(task, TaskRecord(task.task_id, task.klass, end, end, end, 0.0))


@pytest.fixture
def collector():
    return TraceCollector(sample_interval=0)


class TestUnitTracker:
    def test_new_then_done_records_lag(self, collector):
        task = make_task(created=1.0)
        collector.unique_new(task, 1.0)
        assert collector.staleness.outstanding() == 1
        done(collector, task, 4.0)
        tracker = collector.staleness
        assert tracker.outstanding() == 0
        assert tracker.reflected == 1
        hist = tracker.by_view["f"]  # unregistered: function-name fallback
        assert hist.count == 1
        assert hist.max == pytest.approx(3.0)
        assert tracker.by_rule["r"].count == 1

    def test_appends_stamp_each_mutation(self, collector):
        task = make_task(created=0.0)
        collector.unique_new(task, 0.0)
        collector.unique_append(task, 1, 1.0)
        collector.unique_append(task, 1, 2.0)
        assert collector.staleness.outstanding() == 3
        done(collector, task, 2.0)
        tracker = collector.staleness
        assert tracker.reflected == 3
        hist = tracker.by_view["f"]
        # Lags 2.0, 1.0, 0.0: the oldest mutation waited the longest.
        assert hist.max == pytest.approx(2.0)
        assert hist.min == pytest.approx(0.0)

    def test_registered_view_labels_series(self, collector):
        collector.view_registered("comp_prices", "f", ("r",), 0.0)
        task = make_task()
        collector.unique_new(task, 0.0)
        done(collector, task, 1.0)
        assert "comp_prices" in collector.staleness.by_view
        assert "f" not in collector.staleness.by_view

    def test_application_tasks_are_not_stamped(self, collector):
        # The engine logs unique.new for rule firings only: an application
        # task just ends, and owes no mutation.
        task = Task(body=lambda task: None, klass="update")  # no function_name
        done(collector, task, 1.0)
        assert collector.staleness.outstanding() == 0
        assert not collector.staleness.by_view

    def test_dropped_task_counts_mutations_as_lost(self, collector):
        task = make_task()
        collector.unique_new(task, 0.0)
        collector.unique_append(task, 1, 0.5)
        collector.task_drop(task, 1.0)
        tracker = collector.staleness
        assert tracker.lost == 2
        assert tracker.outstanding() == 0
        assert not tracker.by_view  # nothing was ever reflected

    def test_a_task_out_of_retries_counts_mutations_as_lost(self, collector):
        task = make_task()
        collector.unique_new(task, 0.0)
        collector.fault_drop(task, 3, 1.0)
        assert collector.staleness.lost == 1
        assert collector.staleness.outstanding() == 0

    def test_superseded_task_counts_mutations_as_reflected(self, collector):
        """A deletion that moots a pending task IS the reflection of its
        mutations — they are finished business, not losses."""
        task = make_task(created=0.0)
        collector.unique_new(task, 0.0)
        collector.unique_append(task, 1, 1.0)
        collector.task_superseded(task, 3.0)
        tracker = collector.staleness
        assert tracker.outstanding() == 0
        assert tracker.reflected == 2
        assert tracker.reflected_by_delete == 2
        assert tracker.lost == 0
        hist = tracker.by_view["f"]
        assert hist.count == 2
        assert hist.max == pytest.approx(3.0)
        assert tracker.snapshot()["reflected_by_delete"] == 2

    def test_watermark_tracks_oldest_stamp(self, collector):
        assert collector.staleness.watermark(5.0) == 0.0
        first = make_task(created=1.0)
        second = make_task(created=3.0)
        collector.unique_new(first, 1.0)
        collector.unique_new(second, 3.0)
        assert collector.staleness.oldest_stamp() == pytest.approx(1.0)
        assert collector.staleness.watermark(5.0) == pytest.approx(4.0)
        done(collector, first, 5.0)
        assert collector.staleness.watermark(5.0) == pytest.approx(2.0)

    def test_negative_lag_clamps_to_zero(self, collector):
        task = make_task(created=2.0)
        collector.unique_new(task, 2.0)
        done(collector, task, 1.0)  # clock skew must not go negative
        assert collector.staleness.by_view["f"].min == 0.0

    def test_snapshot_shape(self, collector):
        task = make_task()
        collector.unique_new(task, 0.0)
        done(collector, task, 1.0)
        snap = collector.staleness.snapshot()
        assert set(snap) == {
            "views",
            "rules",
            "strata",
            "reflected",
            "reflected_by_delete",
            "lost",
            "outstanding",
        }
        assert snap["reflected"] == 1
        assert snap["views"]["f"]["count"] == 1

    def test_rows_have_percentiles(self, collector):
        for created in (0.0, 0.0, 0.0):
            task = make_task(created=created)
            collector.unique_new(task, created)
            done(collector, task, 0.5)
        (row,) = collector.staleness.view_rows()
        assert row["view"] == "f"
        assert row["n"] == 3
        for key in ("mean_s", "p50_s", "p95_s", "p99_s", "max_s"):
            assert row[key] > 0


class TestEngineIntegration:
    def make_db(self, delay=2.0):
        collector = TraceCollector()
        db = Database(tracer=collector)
        db.execute("create table t (k text, v real)")
        db.register_function("f", lambda ctx: None)
        db.execute(
            "create rule r on t when inserted "
            "if select k, v from inserted bind as m "
            f"then execute f unique after {delay} seconds"
        )
        return db, collector

    def test_delay_window_dominates_lag(self):
        db, collector = self.make_db(delay=2.0)
        for i in range(4):
            db.execute(f"insert into t values ('k{i}', {i})")
        assert collector.staleness.outstanding() == 4
        Simulator(db).run()
        tracker = collector.staleness
        assert tracker.outstanding() == 0
        assert tracker.reflected == 4
        (view_label,) = tracker.by_view
        hist = tracker.by_view[view_label]
        # Every mutation waited at least the 2s window (minus the tiny
        # virtual time that passed between the inserts themselves).
        assert hist.max >= 1.9
        assert tracker.by_rule["r"].count == 4

    def test_stats_report_includes_staleness_sections(self):
        from repro.obs import stats_report

        db, collector = self.make_db()
        db.execute("insert into t values ('a', 1)")
        Simulator(db).run()
        report = stats_report(collector)
        assert "Derived-view staleness" in report
        assert "Per-rule staleness" in report
        assert "Per-rule cost attribution" in report


class TestCascadeStampInheritance:
    """Regression: a rule firing that arrives via another rule's action is
    the same base mutation one stratum up — it must NOT mint a fresh stamp.
    The pre-fix behaviour stamped cascade arrivals like new mutations,
    double-counting every base write once per stratum it climbed."""

    def make_pair(self):
        upstream = make_task(function="f1", rule="r1", created=1.0)
        upstream.stratum = 1
        downstream = make_task(
            function="f2", rule="r2", created=5.0, klass="recompute:f2"
        )
        downstream.stratum = 2
        return upstream, downstream

    @staticmethod
    def cascade_new(collector, task, origin, now):
        """A cascade firing opened ``task``: the unique manager stamps the
        upstream task's id on it before logging it."""
        task.cascade_from = origin.task_id
        collector.unique_new(task, now, origin=origin)

    def test_cascade_new_inherits_instead_of_stamping(self, collector):
        upstream, downstream = self.make_pair()
        collector.unique_new(upstream, 1.0)
        collector.unique_append(upstream, 1, 2.0)
        self.cascade_new(collector, downstream, upstream, 5.0)
        # Two base mutations total — not four.
        assert collector.staleness.outstanding() == 2
        # The inherited stamps keep the ORIGINAL commit times, so the
        # downstream lag is measured end-to-end from the base write.
        done(collector, upstream, 5.0)
        assert collector.staleness.reflected == 0  # forwarded: not yet reflected
        done(collector, downstream, 9.0)
        assert collector.staleness.reflected == 2
        assert collector.staleness.by_rule["r2"].max == pytest.approx(8.0)  # 9.0 - 1.0

    def test_forwarded_upstream_still_records_intermediate_lag(self, collector):
        upstream, downstream = self.make_pair()
        collector.unique_new(upstream, 1.0)
        self.cascade_new(collector, downstream, upstream, 5.0)
        done(collector, upstream, 5.0)
        tracker = collector.staleness
        # The intermediate view's histogram sees the stratum-1 lag ...
        assert tracker.by_rule["r1"].count == 1
        assert tracker.by_rule["r1"].max == pytest.approx(4.0)
        # ... but the mutation stays outstanding with the downstream task.
        assert tracker.outstanding() == 1
        assert tracker.oldest_stamp() == pytest.approx(1.0)

    def test_cascade_append_extends_with_inherited_stamps(self, collector):
        upstream, downstream = self.make_pair()
        collector.unique_new(downstream, 3.0)  # already pending (own stamp)
        collector.unique_new(upstream, 4.0)
        collector.unique_append(downstream, 1, 6.0, origin=upstream)
        assert collector.staleness.outstanding() == 2
        done(collector, downstream, 6.0)
        assert collector.staleness.reflected == 2

    def test_watermark_sees_an_older_inherited_stamp(self, collector):
        """Upstream B (stamp 2.0) opens cascade task D at 2.5; upstream A
        (stamp 1.0) appends to D at 3.0.  D's oldest stamp is A's, not the
        first one it was given."""
        first, second = make_task("fa", "ra", 1.0), make_task("fb", "rb", 2.0)
        cascade = make_task("fd", "rd", 2.5, klass="recompute:fd")
        collector.unique_new(first, 1.0)
        collector.unique_new(second, 2.0)
        self.cascade_new(collector, cascade, second, 2.5)
        collector.unique_append(cascade, 1, 3.0, origin=first)
        assert collector.staleness.oldest_stamp() == 1.0
        assert collector.staleness.watermark(4.0) == 3.0
        # The failed commit's stamps are taken back, the minimum with them;
        # A is no longer forwarded, and once it finishes D's 2.0 is oldest.
        collector.unique_rescind(cascade, False, 3.0, origin=first)
        done(collector, first, 3.5)
        assert collector.staleness.oldest_stamp() == 2.0
        assert collector.staleness.watermark(4.0) == 2.0

    def test_lost_cascade_counts_each_mutation_once(self, collector):
        upstream, downstream = self.make_pair()
        collector.unique_new(upstream, 1.0)
        self.cascade_new(collector, downstream, upstream, 5.0)
        done(collector, upstream, 5.0)
        collector.task_drop(downstream, 8.0)
        assert collector.staleness.lost == 1
        assert collector.staleness.reflected == 0

    def test_two_level_engine_run_reflects_once_per_mutation(self):
        """End-to-end pin: N base inserts through a two-level cascade give
        exactly N reflected mutations, one per stamp, zero double counts."""
        collector = TraceCollector()
        db = Database(tracer=collector)
        db.execute("create table base (k text, v real)")
        db.execute("create table mid (k text, v real)")
        db.execute("create table top (k text, v real)")

        def promote(ctx):
            for row in ctx.rows("m"):
                ctx.execute(
                    "insert into mid values (:k, :v)",
                    {"k": row["k"], "v": row["v"]},
                )

        db.register_function("promote", promote)
        db.register_function("finish", lambda ctx: None)
        db.execute(
            "create rule r1 on base when inserted "
            "if select k, v from inserted bind as m "
            "then execute promote unique after 1 seconds writes mid"
        )
        db.execute(
            "create rule r2 on mid when inserted "
            "if select k, v from inserted bind as m "
            "then execute finish unique after 1 seconds"
        )
        for i in range(5):
            db.execute(f"insert into base values ('k{i}', {i})")
        Simulator(db).run()
        tracker = collector.staleness
        assert tracker.reflected == 5
        assert tracker.lost == 0
        assert tracker.outstanding() == 0
        assert tracker.by_stratum["stratum-1"].count == 5
        assert tracker.by_stratum["stratum-2"].count == 5


class _Prefix:
    """The first ``size`` events of a log, as a ledger reads them."""

    def __init__(self, log, size):
        self.log, self.size = log, size

    def __len__(self):
        return self.size

    def raw(self, start, kinds):
        events = islice(self.log.raw(start), self.size - start)
        return (event for event in events if event[0].kind in kinds)


def _samples(log):
    """(index, ts, outstanding, watermark) of every time-series sample the
    run logged: a ``counter.pending`` event, then its ``counter.staleness``."""
    samples, pending = [], None
    for index, event in enumerate(log):
        if event.kind == "counter.pending":
            pending = (index, event.ts, event.args["outstanding"])
        elif event.kind == "counter.staleness":
            samples.append((*pending, event.args["watermark_s"]))
    return samples


class TestReadOnce:
    """The ledger is a fold of the log: read once from the finished log, or
    at other points than the run read it, it says what the run's did."""

    @pytest.mark.parametrize("run", ["cascade", "wire"])
    def test_a_finished_log_reads_as_the_run_did(self, run, tmp_path):
        if run == "cascade":
            from tests.obs.test_golden_stats import cascade_run

            collector = cascade_run()
        else:
            from tests.obs.test_golden_trace import wire_run

            collector = wire_run(str(tmp_path))
        log = collector.events
        assert StalenessTracker().read(log).snapshot() == collector.staleness.snapshot()
        samples = _samples(log)
        assert len(samples) > 10
        tracker = StalenessTracker()
        for index, ts, outstanding, watermark in samples:
            tracker.read(_Prefix(log, index))
            assert tracker.outstanding() == outstanding
            assert tracker.watermark(ts) == watermark  # bit for bit
