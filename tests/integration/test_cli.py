"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "12"])
        assert args.number == "12"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "15"])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "172.0000" in out
        assert "5814 TPS" in out

    def test_trace_stats(self, capsys):
        assert main(["trace", "--stats", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "active_stocks" in out

    def test_trace_listing(self, capsys):
        assert main(["trace", "--scale", "tiny", "--limit", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3

    def test_experiment(self, capsys):
        code = main(
            [
                "experiment",
                "--view",
                "comps",
                "--variant",
                "unique",
                "--delay",
                "1.0",
                "--scale",
                "tiny",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cpu_fraction" in out
        assert "maintenance CPU" in out

    def test_figure(self, capsys):
        assert main(["figure", "10", "--scale", "tiny", "--delays", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out
        assert "on_comp" in out

    def test_sql(self, capsys):
        assert main(["sql", "select 1 + 1 as two from t"]) == 0
        assert "two" in capsys.readouterr().out

    def test_bad_scale(self):
        with pytest.raises(SystemExit):
            main(["experiment", "--scale", "bogus"])


class TestObservabilityOptions:
    ARGS = ["experiment", "--scale", "tiny", "--variant", "unique", "--delay", "1.0"]

    def test_trace_out_chrome(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(self.ARGS + ["--trace-out", str(trace)]) == 0
        assert "trace:" in capsys.readouterr().out
        document = json.loads(trace.read_text())
        events = document["traceEvents"]
        assert {e["ph"] for e in events} <= {"M", "X", "i", "C"}
        categories = {e.get("cat") for e in events}
        # Transaction, rule-firing, unique-append, and task spans all there.
        assert {"txn.commit", "rule.fire", "unique.append", "task"} <= categories

    def test_trace_out_jsonl(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(self.ARGS + ["--trace-out", str(trace)]) == 0
        lines = trace.read_text().strip().splitlines()
        assert lines and all(json.loads(line)["kind"] for line in lines)

    def test_stats_out_stdout(self, capsys):
        assert main(self.ARGS + ["--stats-out", "-"]) == 0
        out = capsys.readouterr().out
        assert "batch_size_rows" in out
        assert "queue_depth" in out
        assert "CPU by charge kind" in out

    def test_stats_out_file(self, tmp_path):
        stats = tmp_path / "stats.txt"
        assert main(self.ARGS + ["--stats-out", str(stats)]) == 0
        assert "Event counters" in stats.read_text()

    def test_experiment_obs_flag(self, capsys):
        assert main(self.ARGS + ["--obs"]) == 0
        out = capsys.readouterr().out
        assert "Derived-view staleness" in out
        assert "Per-rule staleness" in out
        assert "Per-rule cost attribution" in out
        assert "comp_prices" in out

    def test_stats_subcommand(self, capsys, tmp_path):
        snapshot_path = tmp_path / "snap.json"
        series_path = tmp_path / "series.jsonl"
        code = main(
            [
                "stats", "--scale", "tiny",
                "--json-out", str(snapshot_path),
                "--series-out", str(series_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Derived-view staleness" in out
        assert "Per-rule cost attribution" in out
        assert "Time series" in out
        assert "final backpressure signal:" in out

        import os

        from repro.obs.schema import check

        def schema(name):
            path = os.path.join(os.path.dirname(__file__), "..", "..", "docs", "schemas", name)
            with open(path) as handle:
                return json.load(handle)

        snapshot = json.loads(snapshot_path.read_text())
        check(snapshot, schema("stats_snapshot.schema.json"))
        assert snapshot["staleness"]["views"]
        assert snapshot["attribution"]
        assert snapshot["meta"]["scale"] == "tiny"
        samples = [
            json.loads(line)
            for line in series_path.read_text().splitlines()
            if line.strip()
        ]
        assert samples
        series_schema = schema("stats_series.schema.json")
        for sample in samples:
            check(sample, series_schema)

    def test_stats_subcommand_interval_off(self, capsys):
        assert main(["stats", "--scale", "tiny", "--interval", "0"]) == 0
        out = capsys.readouterr().out
        assert "Time series" not in out

    def test_processors_and_drop_late(self, capsys):
        code = main(
            self.ARGS
            + ["--processors", "2", "--drop-late", "--update-deadline", "0.001"]
        )
        assert code == 0
        assert "dropped (firm deadline):" in capsys.readouterr().out

    def test_figure_trace_out(self, tmp_path, capsys):
        trace = tmp_path / "fig.json"
        stats = tmp_path / "fig-stats.txt"
        code = main(
            [
                "figure", "10", "--scale", "tiny", "--delays", "1.0",
                "--trace-out", str(trace), "--stats-out", str(stats),
            ]
        )
        assert code == 0
        produced = sorted(p.name for p in tmp_path.glob("fig-*.json"))
        assert "fig-unique-1.json" in produced
        document = json.loads((tmp_path / "fig-unique-1.json").read_text())
        assert document["traceEvents"]
        assert "Trace statistics (unique-1)" in stats.read_text()

    def test_experiment_with_faults(self, capsys):
        code = main(
            [
                "experiment", "--scale", "tiny",
                "--faults", "task.exec[recompute]:kill@every=3",
                "--fault-seed", "7",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "faults: " in out and "retried" in out
        assert "convergence oracle: OK" in out

    def test_experiment_with_faults_divergence_exits_nonzero(self, capsys):
        code = main(
            [
                "experiment", "--scale", "tiny",
                "--faults", "task.exec[recompute]:kill@every=1",
                "--max-retries", "0",
            ]
        )
        assert code == 1
        assert "convergence oracle: FAILED" in capsys.readouterr().out

    def test_fault_sweep(self, capsys):
        code = main(["fault", "--scale", "tiny", "--fault-seeds", "0", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fault sweep" in out
        assert out.count("OK") >= 2


class TestServeCommand:
    """The two simulated-channel runs of CI's [network] steps, read back
    from the ``--json-out`` summary the command writes."""

    def summary(self, tmp_path, *flags):
        path = tmp_path / "net.json"
        assert main(["serve", *flags, "--json-out", str(path)]) == 0
        return json.loads(path.read_text())

    def test_lossy_channels_under_a_kill_fault_lose_no_acknowledged_write(self, tmp_path, capsys):
        lossy = self.summary(
            tmp_path, "--clients", "4", "--requests", "20", "--seed", "3",
            "--net-drop", "0.08", "--net-reorder", "0.15", "--net-jitter", "0.01",
            "--faults", "task.exec[net.update]:kill@nth=7", "--fault-seed", "0",
        )
        assert lossy["ok"] and lossy["converged"], lossy
        assert lossy["lost_acked"] == [], lossy
        assert lossy["acked"] == 4 * 20, lossy
        assert "zero lost acknowledged mutations" in capsys.readouterr().out

    def test_overload_degrades_by_refusal_not_queueing(self, tmp_path):
        over = self.summary(
            tmp_path, "--clients", "8", "--requests", "25", "--seed", "11",
            "--burst-size", "20", "--burst-gap", "0.05", "--intra-gap", "0.001",
        )
        assert over["ok"] and over["converged"], over
        assert over["lost_acked"] == [], over
        assert over["throttle_decisions"] > 0, over


class TestReplicationCommands:
    def test_replicate_subcommand(self, capsys):
        code = main(["replicate", "--scale", "tiny", "--replicas", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Replicated experiment (async, 1 replicas)" in out
        assert "Replica apply lag" in out
        assert "replica r0: identical" in out

    def test_replicate_parser_defaults(self):
        args = build_parser().parse_args(["replicate"])
        assert args.replicas == 2
        assert args.repl_mode == "async"
        assert args.net_latency == 0.02
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replicate", "--repl-mode", "sync"])

    def test_experiment_replicas_rejects_incompatible_flags(self):
        with pytest.raises(SystemExit, match="--compact"):
            main(["experiment", "--scale", "tiny", "--replicas", "2", "--compact"])

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--cascade", "--replicas", "2"], "--replicas does not combine with --cascade"),
            (["--replicas", "2", "--wal-sync"], "--replicas does not combine with --wal-sync"),
            (["--cascade", "--processors", "2"], "--cascade does not combine with --processors"),
            (["--cascade", "--drop-late"], "--cascade does not combine with --drop-late"),
            (
                ["--cascade", "--update-deadline", "0.1"],
                "--cascade does not combine with --update-deadline",
            ),
            (
                ["--replicas", "2", "--sector-delay", "5"],
                "--replicas does not combine with --sector-delay",
            ),
            # An explicit default is refused too: the flag has no meaning here.
            (["--sector-delay", "5"], "single-view experiment does not combine with --sector-delay"),
            (["--sector-delay", "1.0"], "single-view experiment does not combine with --sector-delay"),
        ],
        ids=["cascade-replicas", "replicas-wal-sync", "cascade-processors",
             "cascade-drop-late", "cascade-update-deadline", "replicas-sector-delay",
             "single-view-sector-delay", "single-view-sector-delay-default"],
    )
    def test_experiment_refuses_a_flag_its_path_ignores(self, flags, named):
        with pytest.raises(SystemExit, match=named):
            main(["experiment", "--scale", "tiny", *flags])

    def test_cascade_takes_a_sector_delay(self, capsys):
        assert main(["experiment", "--scale", "tiny", "--cascade", "--sector-delay", "5"]) == 0
        out = capsys.readouterr().out
        header, _rule, row = out.splitlines()[1:4]
        assert dict(zip(header.split(), row.split()))["sector_delay_s"] == "5.0000"

    def test_experiment_delegates_to_replication(self, capsys):
        code = main(
            ["experiment", "--scale", "tiny", "--replicas", "1",
             "--repl-mode", "semisync"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Replicated experiment (semisync, 1 replicas)" in out
        assert "semisync:" in out


class TestSharedFlagContract:
    """Flags come from shared groups: wherever a flag appears it parses the
    same way, and a subcommand that delegates has the flags it forwards."""

    @staticmethod
    def _subcommands():
        import argparse

        parser = build_parser()
        (subparsers,) = (
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        return subparsers.choices

    def test_a_flag_has_one_type_and_one_set_of_choices(self):
        seen = {}
        for name, subparser in self._subcommands().items():
            for action in subparser._actions:
                for flag in action.option_strings:
                    if flag in ("-h", "--help"):
                        continue
                    choices = tuple(action.choices) if action.choices else None
                    spec = (type(action).__name__, action.type, choices, action.nargs)
                    seen.setdefault(flag, {})[name] = spec
        shared = {flag: by_sub for flag, by_sub in seen.items() if len(by_sub) > 1}
        assert {"--variant", "--seed", "--faults", "--net-drop"} <= set(shared)
        for flag, by_sub in shared.items():
            assert len(set(by_sub.values())) == 1, (flag, by_sub)

    def test_defaults_that_differ_on_purpose(self):
        parse = build_parser().parse_args
        assert parse(["experiment"]).delay == 1.0
        assert parse(["serve"]).delay == 0.5
        assert parse(["experiment"]).replicas == 0
        assert parse(["replicate"]).replicas == 2

    def test_experiment_accepts_what_it_forwards_to_replicate(self):
        args = build_parser().parse_args(
            ["experiment", "--replicas", "1", "--net-drop", "0.1"]
        )
        assert args.replicas == 1 and args.net_drop == 0.1
        experiment = build_parser().parse_args(["experiment"])
        replicate = build_parser().parse_args(["replicate"])
        forwarded = (
            "net_latency", "net_bandwidth", "net_jitter", "net_drop",
            "net_reorder", "net_seed", "repl_batch", "resend_timeout",
        )
        for dest in forwarded:
            assert getattr(experiment, dest) == getattr(replicate, dest), dest

    def test_experiment_net_flags_reach_the_cluster(self, capsys):
        code = main(
            ["experiment", "--scale", "tiny", "--replicas", "1",
             "--net-drop", "0.2", "--net-seed", "4"]
        )
        assert code == 0
        header, _rule, row = capsys.readouterr().out.splitlines()[1:4]
        dropped = dict(zip(header.split(), row.split()))["send_dropped"]
        assert int(dropped) > 0
