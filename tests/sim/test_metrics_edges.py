"""Edge cases of the experiment metrics collector (sim/metrics.py)."""

import pytest

from repro.sim.metrics import ClassSummary, MetricsCollector, TaskRecord


def record(task_id=1, klass="update", release=0.0, start=0.0, end=1.0, cpu=0.5,
           deadline=None, dropped=False):
    return TaskRecord(
        task_id=task_id, klass=klass, release_time=release, start_time=start,
        end_time=end, cpu_time=cpu, deadline=deadline, dropped=dropped,
    )


class TestStdevLength:
    def test_zero_records(self):
        assert ClassSummary("c").stdev_length == 0.0

    def test_one_record(self):
        summary = ClassSummary("c")
        summary.add(record(end=3.0))
        assert summary.count == 1
        assert summary.stdev_length == 0.0

    def test_two_records(self):
        summary = ClassSummary("c")
        summary.add(record(end=1.0))
        summary.add(record(end=3.0))
        # lengths 1 and 3: population stdev is 1
        assert summary.stdev_length == pytest.approx(1.0)

    def test_identical_lengths_never_negative_variance(self):
        summary = ClassSummary("c")
        for _ in range(5):
            summary.add(record(end=0.1))
        assert summary.stdev_length == 0.0


class TestCpuFraction:
    def test_raises_on_zero_duration(self):
        collector = MetricsCollector()
        with pytest.raises(ValueError):
            collector.cpu_fraction(0.0)

    def test_raises_on_negative_duration(self):
        collector = MetricsCollector()
        with pytest.raises(ValueError):
            collector.cpu_fraction(-1.0)

    def test_fraction(self):
        collector = MetricsCollector()
        collector.record(record(cpu=2.0))
        assert collector.cpu_fraction(10.0, "update") == pytest.approx(0.2)


class TestDroppedAccounting:
    def test_dropped_counts_and_misses(self):
        collector = MetricsCollector()
        collector.record(record(task_id=1, klass="r", deadline=5.0, dropped=True,
                                start=6.0, end=6.0, cpu=0.0))
        collector.record(record(task_id=2, klass="r", deadline=50.0, end=1.0))
        summary = collector.by_class["r"]
        assert summary.dropped == 1
        assert summary.deadline_misses == 1  # the dropped one; #2 met its deadline
        assert collector.count("r") == 2
        assert collector.deadline_misses("r") == 1

    def test_dropped_record_is_a_miss_even_within_deadline_time(self):
        summary = ClassSummary("c")
        summary.add(record(deadline=100.0, dropped=True, end=1.0))
        assert summary.deadline_misses == 1


class TestKeepRecords:
    def test_aggregates_survive_without_records(self):
        collector = MetricsCollector()
        collector.set_keep_records(False)
        for i in range(3):
            collector.record(record(task_id=i, cpu=1.0, end=2.0))
        assert collector.records == []
        assert collector.count("update") == 3
        assert collector.total_cpu("update") == pytest.approx(3.0)
        assert collector.mean_length("update") == pytest.approx(2.0)
        assert collector.summary_table()[0]["count"] == 3

    def test_toggle_mid_run(self):
        collector = MetricsCollector()
        collector.record(record(task_id=1))
        collector.set_keep_records(False)
        collector.record(record(task_id=2))
        assert len(collector.records) == 1
        assert collector.count("update") == 2


class TestEmptyPrefixes:
    def test_zero_safe_means(self):
        collector = MetricsCollector()
        assert collector.mean_length("nope") == 0.0
        assert collector.mean_response("nope") == 0.0
        assert collector.count("nope") == 0
        assert collector.total_cpu("nope") == 0.0
