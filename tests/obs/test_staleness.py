"""Staleness tracker: mutation stamps, reflection lag, watermark, loss."""

import pytest

from repro.database import Database
from repro.obs import StalenessTracker, TraceCollector
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


class TestUnitTracker:
    def test_new_then_done_records_lag(self):
        tracker = StalenessTracker()
        task = make_task(created=1.0)
        tracker.on_task_new(task, 1.0)
        assert tracker.outstanding() == 1
        tracker.on_task_done(task, 4.0)
        assert tracker.outstanding() == 0
        assert tracker.reflected == 1
        hist = tracker.by_view["f"]  # unregistered: function-name fallback
        assert hist.count == 1
        assert hist.max == pytest.approx(3.0)
        assert tracker.by_rule["r"].count == 1

    def test_appends_stamp_each_mutation(self):
        tracker = StalenessTracker()
        task = make_task(created=0.0)
        tracker.on_task_new(task, 0.0)
        tracker.on_task_append(task, 1.0)
        tracker.on_task_append(task, 2.0)
        assert tracker.outstanding() == 3
        tracker.on_task_done(task, 2.0)
        assert tracker.reflected == 3
        hist = tracker.by_view["f"]
        # Lags 2.0, 1.0, 0.0: the oldest mutation waited the longest.
        assert hist.max == pytest.approx(2.0)
        assert hist.min == pytest.approx(0.0)

    def test_registered_view_labels_series(self):
        tracker = StalenessTracker()
        tracker.register_view("comp_prices", "f", ["r"])
        task = make_task()
        tracker.on_task_new(task, 0.0)
        tracker.on_task_done(task, 1.0)
        assert "comp_prices" in tracker.by_view
        assert "f" not in tracker.by_view

    def test_application_tasks_are_not_stamped(self):
        tracker = StalenessTracker()
        task = Task(body=lambda task: None, klass="update")  # no function_name
        tracker.on_task_new(task, 0.0)
        assert tracker.outstanding() == 0

    def test_dropped_task_counts_mutations_as_lost(self):
        tracker = StalenessTracker()
        task = make_task()
        tracker.on_task_new(task, 0.0)
        tracker.on_task_append(task, 0.5)
        tracker.on_task_dropped(task, 1.0)
        assert tracker.lost == 2
        assert tracker.outstanding() == 0
        assert not tracker.by_view  # nothing was ever reflected

    def test_superseded_task_counts_mutations_as_reflected(self):
        """A deletion that moots a pending task IS the reflection of its
        mutations — they are finished business, not losses."""
        tracker = StalenessTracker()
        task = make_task(created=0.0)
        tracker.on_task_new(task, 0.0)
        tracker.on_task_append(task, 1.0)
        tracker.on_task_superseded(task, 3.0)
        assert tracker.outstanding() == 0
        assert tracker.reflected == 2
        assert tracker.reflected_by_delete == 2
        assert tracker.lost == 0
        hist = tracker.by_view["f"]
        assert hist.count == 2
        assert hist.max == pytest.approx(3.0)
        assert tracker.snapshot()["reflected_by_delete"] == 2

    def test_watermark_tracks_oldest_stamp(self):
        tracker = StalenessTracker()
        assert tracker.watermark(5.0) == 0.0
        first = make_task(created=1.0)
        second = make_task(created=3.0)
        tracker.on_task_new(first, 1.0)
        tracker.on_task_new(second, 3.0)
        assert tracker.oldest_stamp() == pytest.approx(1.0)
        assert tracker.watermark(5.0) == pytest.approx(4.0)
        tracker.on_task_done(first, 5.0)
        assert tracker.watermark(5.0) == pytest.approx(2.0)

    def test_negative_lag_clamps_to_zero(self):
        tracker = StalenessTracker()
        task = make_task(created=2.0)
        tracker.on_task_new(task, 2.0)
        tracker.on_task_done(task, 1.0)  # clock skew must not go negative
        assert tracker.by_view["f"].min == 0.0

    def test_snapshot_shape(self):
        tracker = StalenessTracker()
        task = make_task()
        tracker.on_task_new(task, 0.0)
        tracker.on_task_done(task, 1.0)
        snap = tracker.snapshot()
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

    def test_rows_have_percentiles(self):
        tracker = StalenessTracker()
        for created in (0.0, 0.0, 0.0):
            task = make_task(created=created)
            tracker.on_task_new(task, created)
            tracker.on_task_done(task, 0.5)
        (row,) = tracker.view_rows()
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

    def test_cascade_new_inherits_instead_of_stamping(self):
        tracker = StalenessTracker()
        upstream, downstream = self.make_pair()
        tracker.on_task_new(upstream, 1.0)
        tracker.on_task_append(upstream, 2.0)
        tracker.on_task_new(downstream, 5.0, origin=upstream)
        # Two base mutations total — not four.
        assert tracker.outstanding() == 2
        # The inherited stamps keep the ORIGINAL commit times, so the
        # downstream lag is measured end-to-end from the base write.
        tracker.on_task_done(upstream, 5.0)
        assert tracker.reflected == 0  # forwarded: not yet reflected
        tracker.on_task_done(downstream, 9.0)
        assert tracker.reflected == 2
        assert tracker.by_rule["r2"].max == pytest.approx(8.0)  # 9.0 - 1.0

    def test_forwarded_upstream_still_records_intermediate_lag(self):
        tracker = StalenessTracker()
        upstream, downstream = self.make_pair()
        tracker.on_task_new(upstream, 1.0)
        tracker.on_task_new(downstream, 5.0, origin=upstream)
        tracker.on_task_done(upstream, 5.0)
        # The intermediate view's histogram sees the stratum-1 lag ...
        assert tracker.by_rule["r1"].count == 1
        assert tracker.by_rule["r1"].max == pytest.approx(4.0)
        # ... but the mutation stays outstanding with the downstream task.
        assert tracker.outstanding() == 1
        assert tracker.oldest_stamp() == pytest.approx(1.0)

    def test_cascade_append_extends_with_inherited_stamps(self):
        tracker = StalenessTracker()
        upstream, downstream = self.make_pair()
        tracker.on_task_new(downstream, 3.0)  # already pending (own stamp)
        tracker.on_task_new(upstream, 4.0)
        tracker.on_task_append(downstream, 6.0, origin=upstream)
        assert tracker.outstanding() == 2
        tracker.on_task_done(downstream, 6.0)
        assert tracker.reflected == 2

    def test_watermark_sees_an_older_inherited_stamp(self):
        """Upstream B (stamp 2.0) opens cascade task D at 2.5; upstream A
        (stamp 1.0) appends to D at 3.0.  D's oldest stamp is A's, not the
        first one it was given."""
        tracker = StalenessTracker()
        first, second = make_task("fa", "ra", 1.0), make_task("fb", "rb", 2.0)
        cascade = make_task("fd", "rd", 2.5, klass="recompute:fd")
        tracker.on_task_new(first, 1.0)
        tracker.on_task_new(second, 2.0)
        tracker.on_task_new(cascade, 2.5, origin=second)
        tracker.on_task_append(cascade, 3.0, origin=first)
        assert tracker.oldest_stamp() == 1.0
        assert tracker.watermark(4.0) == 3.0
        # The failed commit's stamps are taken back, the minimum with them;
        # A is no longer forwarded, and once it finishes D's 2.0 is oldest.
        tracker.on_task_rescind(cascade, False, origin=first)
        tracker.on_task_done(first, 3.5)
        assert tracker.oldest_stamp() == 2.0
        assert tracker.watermark(4.0) == 2.0

    def test_lost_cascade_counts_each_mutation_once(self):
        tracker = StalenessTracker()
        upstream, downstream = self.make_pair()
        tracker.on_task_new(upstream, 1.0)
        tracker.on_task_new(downstream, 5.0, origin=upstream)
        tracker.on_task_done(upstream, 5.0)
        tracker.on_task_dropped(downstream, 8.0)
        assert tracker.lost == 1
        assert tracker.reflected == 0

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
