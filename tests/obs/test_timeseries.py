"""Time-series sampler: cadence, backpressure, summaries, sparklines."""

import pytest

from repro.database import Database
from repro.obs import TimeSeriesSampler, TraceCollector, sparkline
from repro.sim.simulator import Simulator


class TestSampler:
    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            TimeSeriesSampler(interval=0.0)

    def test_due_cadence(self):
        sampler = TimeSeriesSampler(interval=2.0)
        assert sampler.due(0.0)  # first tick always samples
        sampler.record(0.0, {"x": 1})
        assert not sampler.due(1.9)
        assert sampler.due(2.0)
        sampler.record(2.5, {"x": 2})  # late sample reschedules from 2.5
        assert not sampler.due(4.4)
        assert sampler.due(4.5)

    def test_record_stamps_ts(self):
        sampler = TimeSeriesSampler()
        sample = sampler.record(3.0, {"x": 7})
        assert sample == {"ts": 3.0, "x": 7}
        assert sampler.latest() == sample
        assert sampler.series() == [sample]

    def test_backpressure_clamped(self):
        sampler = TimeSeriesSampler(max_queue_depth=10.0, max_staleness=5.0)
        assert sampler.backpressure(0.0, 0.0) == 0.0
        assert sampler.backpressure(5.0, 0.0) == pytest.approx(0.5)
        assert sampler.backpressure(0.0, 2.5) == pytest.approx(0.5)
        # The worse of the two signals wins; both saturate at 1.
        assert sampler.backpressure(100.0, 0.0) == 1.0
        assert sampler.backpressure(3.0, 5.0) == 1.0
        assert sampler.backpressure(-1.0, -1.0) == 0.0

    def test_summary_rows(self):
        sampler = TimeSeriesSampler()
        sampler.record(0.0, {"depth": 1.0})
        sampler.record(1.0, {"depth": 3.0})
        (row,) = sampler.summary_rows()
        assert row["series"] == "depth"
        assert row["min"] == 1.0 and row["max"] == 3.0
        assert row["mean"] == 2.0 and row["last"] == 3.0

    def test_summary_rows_empty(self):
        assert TimeSeriesSampler().summary_rows() == []


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == "(no samples)"

    def test_flat(self):
        assert sparkline([2.0, 2.0, 2.0]) == "▁▁▁"

    def test_shape(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_downsamples_keeping_peaks(self):
        values = [0.0] * 100
        values[50] = 10.0
        line = sparkline(values, width=10)
        assert len(line) == 10
        assert "█" in line  # the lone peak survives max-downsampling


class TestCollectorSampling:
    def make_db(self, interval=1.0):
        collector = TraceCollector(sample_interval=interval)
        db = Database(tracer=collector)
        db.execute("create table t (k text, v real)")
        db.register_function("f", lambda ctx: None)
        db.execute(
            "create rule r on t when inserted "
            "if select k, v from inserted bind as m "
            "then execute f unique after 1 seconds"
        )
        return db, collector

    def test_samples_and_counter_events(self):
        db, collector = self.make_db()
        for i in range(3):
            db.execute(f"insert into t values ('k{i}', {i})")
        Simulator(db).run()
        sampler = collector.timeseries
        assert sampler is not None and sampler.samples
        sample = sampler.samples[-1]
        for field in (
            "ts",
            "queue_depth",
            "pending_unique",
            "outstanding",
            "staleness_watermark_s",
            "tasks_done",
            "txn_commits",
            "backpressure",
        ):
            assert field in sample
        kinds = {event.kind for event in collector.events}
        assert {"counter.pending", "counter.staleness", "counter.backpressure"} <= kinds

    def test_zero_interval_disables_sampling(self):
        db, collector = self.make_db(interval=0.0)
        db.execute("insert into t values ('a', 1)")
        Simulator(db).run()
        assert collector.timeseries is None
        assert collector.backpressure() == 0.0
        kinds = {event.kind for event in collector.events}
        assert "counter.pending" not in kinds

    def test_live_backpressure_signal(self):
        db, collector = self.make_db()
        for i in range(3):
            db.execute(f"insert into t values ('k{i}', {i})")
        # Unreflected mutations push the staleness component above zero.
        assert collector.backpressure() > 0.0
        Simulator(db).run()
        # After the drain both components are gone: the staleness watermark
        # is zero and the queue depth is read live from the task manager
        # (not from the gauge, which latches its enqueue-time high water).
        assert collector.staleness.watermark(db.clock.now()) == 0.0
        assert collector.rollup().gauges["queue_depth"]["value"] > 0
        assert collector.backpressure() == 0.0
