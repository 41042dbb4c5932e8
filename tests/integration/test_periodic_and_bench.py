"""Tests for periodic tasks and the benchmark-harness helpers."""

import pytest

from repro.bench.experiments import bench_scale, is_strict_scale, series_of
from repro.bench.reporting import format_series, format_table
from repro.database import Database
from repro.errors import ExecutionError
from repro.pta.tables import Scale


class TestPeriodicTasks:
    def make_db(self):
        db = Database()
        db.execute("create table log (t real)")
        return db

    def tick(self, ctx):
        ctx.execute("insert into log values (:t)", {"t": ctx.now})

    def test_runs_on_schedule(self):
        db = self.make_db()
        db.schedule_periodic("tick", self.tick, interval=10.0, until=45.0)
        db.drain(until=100.0)
        times = [row[0] for row in db.query("select t from log order by t").rows()]
        assert len(times) == 4
        for expected, actual in zip((10.0, 20.0, 30.0, 40.0), times):
            assert actual == pytest.approx(expected, abs=1e-3)

    def test_until_bounds_series(self):
        db = self.make_db()
        db.schedule_periodic("tick", self.tick, interval=5.0, until=12.0)
        db.drain(until=50.0)
        assert db.query("select count(*) as n from log").scalar() == 2

    def test_unbounded_series_respects_drain_until(self):
        db = self.make_db()
        db.schedule_periodic("tick", self.tick, interval=1.0)
        db.drain(until=5.5)
        assert db.query("select count(*) as n from log").scalar() == 5
        assert db.task_manager.pending == 1  # the successor stays queued

    def test_explicit_start(self):
        db = self.make_db()
        db.schedule_periodic("tick", self.tick, interval=10.0, start=3.0, until=14.0)
        db.drain(until=20.0)
        times = [row[0] for row in db.query("select t from log order by t").rows()]
        assert times[0] == pytest.approx(3.0, abs=1e-3)

    def test_metrics_class(self):
        db = self.make_db()
        db.schedule_periodic("stdev_refresh", self.tick, interval=10.0, until=25.0)
        db.drain(until=30.0)
        assert db.metrics.count("periodic:stdev_refresh") == 2

    def test_bad_interval(self):
        db = self.make_db()
        with pytest.raises(ExecutionError):
            db.schedule_periodic("x", self.tick, interval=0.0)

    def test_periodic_triggers_rules(self):
        """Periodic recomputation interacts with the rule system normally."""
        db = self.make_db()
        seen = []
        db.register_function("watch", lambda ctx: seen.append(ctx.now))
        db.execute("create rule r on log when inserted then execute watch")
        db.schedule_periodic("tick", self.tick, interval=10.0, until=15.0)
        db.drain(until=30.0)
        assert len(seen) == 1


class TestBenchHelpers:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}], "T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], "T")

    def test_format_series_grid(self):
        series = {"u": [(0.5, 1.0), (1.0, 0.5)], "v": [(1.0, 2.0)]}
        text = format_series(series, "delay", "cpu", "F")
        assert "0.5" in text
        assert "-" in text  # v has no 0.5 point

    def test_series_of(self):
        from repro.pta.scaffold import Metric, Result

        def result(variant, delay, n):
            options = dict(variant=variant, delay=delay, n_recomputes=n)
            return Result(None, [Metric(name) for name in options], options)

        curves = series_of(
            [result("u", 1.0, 5), result("u", 0.5, 9), result("n", 0.0, 3)],
            "n_recomputes",
        )
        assert curves["u"] == [(0.5, 9.0), (1.0, 5.0)]
        assert curves["n"] == [(0.0, 3.0)]

    def test_bench_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        assert bench_scale() == Scale.tiny()
        monkeypatch.setenv("REPRO_BENCH_SCALE", "paper")
        assert bench_scale() == Scale.paper()
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        assert bench_scale() == Scale.paper().scaled(0.5)
        monkeypatch.setenv("REPRO_BENCH_SCALE", "bogus")
        with pytest.raises(ValueError):
            bench_scale()

    def test_strict_scale_gate(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        assert not is_strict_scale()
        monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
        assert is_strict_scale()
        assert is_strict_scale(Scale.paper())
