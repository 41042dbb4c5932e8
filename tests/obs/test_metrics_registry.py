"""Unit tests for the metrics a report reads: counters and the queue-depth
gauge of a :class:`~repro.obs.metrics.Rollup` (read from a collector's
event log, driven here through the collector's hooks) and histograms."""

import math

import pytest

from repro.obs import TraceCollector, stats_snapshot
from repro.obs.metrics import Histogram, log_bounds
from repro.txn.tasks import Task


def enqueued(*depths):
    """A collector that saw one enqueue per queue depth, in order."""
    collector = TraceCollector(sample_interval=0)
    task = Task(body=lambda task: None, klass="noise")
    for depth in depths:
        collector.task_enqueue(task, 0, depth, 0.0)
    return collector


class TestCounterGauge:
    def test_counter(self):
        collector = TraceCollector()
        task = Task(body=lambda task: None, klass="long")
        collector.task_preempt(task, 1, 0.0)
        collector.task_preempt(task, 4, 0.0)
        assert collector.rollup().counters["context_switches"] == 5

    def test_gauge_tracks_max(self):
        gauge = enqueued(3, 1).rollup().gauges["queue_depth"]
        assert gauge["value"] == 1
        assert gauge["max"] == 3

    def test_gauge_min_max_seed_from_first_value(self):
        # A gauge whose values never reach 0 must not report a min of 0.0
        # (the zero-initialised extremes bug); before any value all read 0.0.
        assert TraceCollector().rollup().gauges["queue_depth"] == {
            "value": 0.0, "min": 0.0, "max": 0.0,
        }
        gauge = enqueued(5, 2).rollup().gauges["queue_depth"]
        assert gauge["min"] == 2
        assert gauge["max"] == 5

    def test_gauge_min_tracks_low_watermark(self):
        gauge = enqueued(7, 2, 9).rollup().gauges["queue_depth"]
        assert gauge["min"] == 2
        assert gauge["max"] == 9
        assert gauge["value"] == 9


class TestLogBounds:
    def test_geometric(self):
        assert log_bounds(1, 8, 2) == (1, 2, 4, 8)

    def test_covers_hi(self):
        bounds = log_bounds(1, 5, 2)
        assert bounds[-1] >= 5

    def test_invalid(self):
        with pytest.raises(ValueError):
            log_bounds(0, 8, 2)
        with pytest.raises(ValueError):
            log_bounds(1, 8, 1.0)
        with pytest.raises(ValueError):
            log_bounds(8, 1, 2)


class TestHistogram:
    def test_bucketing_le_semantics(self):
        histogram = Histogram("h", bounds=[1, 2, 4])
        for value in (0.5, 1, 1.5, 2, 3, 4, 99):
            histogram.record(value)
        # <=1: {0.5, 1}; <=2: {1.5, 2}; <=4: {3, 4}; overflow: {99}
        assert histogram.counts == [2, 2, 2, 1]
        assert histogram.count == 7
        assert histogram.min == 0.5
        assert histogram.max == 99

    def test_mean_and_total(self):
        histogram = Histogram("h", lo=1, hi=16, factor=2)
        histogram.record(2, n=3)
        histogram.record(10)
        assert histogram.total == pytest.approx(16.0)
        assert histogram.mean == pytest.approx(4.0)

    def test_percentile(self):
        histogram = Histogram("h", bounds=[1, 2, 4, 8])
        for _ in range(99):
            histogram.record(1.5)  # le-2 bucket
        histogram.record(7)  # le-8 bucket
        assert histogram.percentile(0.5) == 2
        assert histogram.percentile(1.0) == 8
        assert histogram.percentile(0.0) <= 2

    def test_percentile_empty_and_invalid(self):
        histogram = Histogram("h", bounds=[1])
        assert histogram.percentile(0.5) == 0.0
        with pytest.raises(ValueError):
            histogram.percentile(1.5)

    def test_overflow_percentile_uses_observed_max(self):
        histogram = Histogram("h", bounds=[1])
        histogram.record(50)
        assert histogram.percentile(1.0) == 50

    def test_snapshot(self):
        histogram = Histogram("h", bounds=[1, 10])
        histogram.record(5)
        snap = histogram.snapshot()
        assert snap["count"] == 1
        assert snap["buckets"] == [{"le": 10, "count": 1}]
        assert not math.isinf(snap["min"])

    def test_snapshot_quantiles(self):
        histogram = Histogram("h", bounds=[1, 2, 4, 8])
        for _ in range(99):
            histogram.record(1.5)
        histogram.record(7)
        snap = histogram.snapshot()
        assert snap["p50"] == 2
        assert snap["p95"] == 2
        assert snap["p99"] == 2

    def test_quantile_row(self):
        histogram = Histogram("h", bounds=[1, 2, 4, 8])
        for _ in range(99):
            histogram.record(1.5)
        histogram.record(7)
        row = histogram.quantile_row()
        assert row == {
            "n": 100,
            "mean": histogram.mean,
            "min": 1.5,
            "p50": 2,
            "p95": 2,
            "p99": 2,
            "max": 7,
        }

    def test_empty_snapshot_finite(self):
        snap = Histogram("h", bounds=[1]).snapshot()
        assert snap["min"] == 0.0 and snap["max"] == 0.0 and snap["mean"] == 0.0


class TestRegistry:
    def test_snapshot_shape(self):
        collector = enqueued(4)
        collector.task_preempt(Task(body=lambda task: None, klass="t"), 2, 0.0)
        snap = stats_snapshot(collector)
        assert snap["counters"]["context_switches"] == 2
        assert snap["counters"]["task_enqueues"] == 1
        assert snap["gauges"]["queue_depth"] == {"value": 4, "min": 4, "max": 4}
        assert collector.rollup().histograms["queue_depth"].snapshot()["count"] == 1
