"""TraceCollector.backpressure edge cases: the admission signal's corners.

The signal has two sources (live scheduler queue depth when a database is
bound, the depth at the last enqueue otherwise, blended with the staleness
watermark) and admission control polls it between tasks — so the corners
matter: an idle engine must read 0, not the last high-water mark.
"""

import pytest

from repro.database import Database
from repro.obs import TraceCollector, TimeSeriesSampler
from repro.txn.tasks import Task


def idle_task(release_time=0.0):
    return Task(body=lambda task: None, klass="noise", release_time=release_time)


class TestUnboundCollector:
    def test_empty_collector_reads_zero(self):
        assert TraceCollector().backpressure(0.0) == 0.0

    def test_sampling_disabled_reads_zero(self):
        collector = TraceCollector(sample_interval=0)
        assert collector.timeseries is None
        assert collector.backpressure(123.0) == 0.0

    def test_gauge_fallback_without_a_database(self):
        collector = TraceCollector(
            timeseries=TimeSeriesSampler(1.0, max_queue_depth=10.0)
        )
        collector.task_enqueue(idle_task(), 1, 3, 0.0)
        assert collector.rollup().gauges["queue_depth"]["value"] == 4
        assert collector.backpressure(0.0) == pytest.approx(0.4)


class TestBoundCollector:
    def test_all_zero_queue_depth_reads_zero(self):
        collector = TraceCollector()
        db = Database(tracer=collector)
        db.execute("create table t (x int)")
        db.execute("insert into t values (1)")
        db.drain()
        assert collector.backpressure(db.clock.now()) == 0.0

    def test_depth_is_read_live_not_from_the_gauge(self):
        """The queue-depth gauge only moves at enqueue events; a drained
        queue polled between tasks must read 0 pressure regardless."""
        collector = TraceCollector()
        db = Database(tracer=collector)
        db.submit(idle_task())
        assert collector.backpressure(db.clock.now()) > 0.0
        db.drain()
        assert collector.rollup().gauges["queue_depth"]["value"] > 0  # stale high-water
        assert collector.backpressure(db.clock.now()) == 0.0

    def test_monotonic_in_queue_depth(self):
        collector = TraceCollector(
            timeseries=TimeSeriesSampler(1.0, max_queue_depth=8.0)
        )
        db = Database(tracer=collector)
        readings = []
        for _ in range(10):
            readings.append(collector.backpressure(db.clock.now()))
            db.submit(idle_task())
        assert readings == sorted(readings)  # never decreases as depth rises
        assert readings[0] == 0.0
        assert collector.backpressure(db.clock.now()) == 1.0  # clamped at saturation

    def test_watermark_only_pressure(self, monkeypatch):
        """Staleness alone can drive the signal: empty queues, old
        unreflected mutations."""
        collector = TraceCollector(
            timeseries=TimeSeriesSampler(1.0, max_queue_depth=8.0, max_staleness=10.0)
        )
        db = Database(tracer=collector)
        monkeypatch.setattr(collector.staleness, "watermark", lambda now: 2.5)
        assert collector.backpressure(db.clock.now()) == pytest.approx(0.25)
