"""Self-test of the benchmark at smoke size (run: python -m pytest benchmarks/e2e -q).

Not part of tier-1 (``testpaths`` stays ``tests``): it checks the ruler, not
the program.  Smoke runs go through the command line in a subprocess, the
way the driver runs them, so process-global id counters start fresh and
counts can be compared exactly between runs.
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from benchmarks.e2e import compare, harness, metrics, trace, workloads  # noqa: E402

ENGINE_ONLY = ["pta_comps_unique", "pta_options_on_symbol", "sql_views_mixed"]


def smoke(tmp_path_factory, trace_flag: int) -> dict:
    """One smoke run of all four workloads: the ``--json-out`` record plus
    each workload's driver line."""
    out = tmp_path_factory.mktemp("smoke") / "out.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seed", "3",
         "--trace", str(trace_flag), "--json-out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = [json.loads(l) for l in done.stdout.splitlines() if l.startswith("{")]
    record = json.loads(out.read_text())
    record["driver_lines"] = dict(zip(record["workloads"], lines))
    return record


@pytest.fixture(scope="module")
def traced_pair(tmp_path_factory):
    return smoke(tmp_path_factory, 1), smoke(tmp_path_factory, 1)


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return smoke(tmp_path_factory, 0)


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
        return json.load(source)


def test_contract_matches_metric_tables(contract):
    def rows(table, bounded):
        keys = ("name", "unit", "better", "bound") if bounded else ("name", "unit", "better")
        return [dict(zip(keys, m)) for m in table]

    assert contract["end_to_end"] == rows(metrics.DRIVER_END_TO_END, True)
    assert contract["per_layer"] == rows(metrics.DRIVER_PER_LAYER, False)
    assert [w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS)
    assert contract["paths"] == ["benchmarks/e2e"]
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    # read_p50_us / read_p99_us appear once: per layer (see metrics.py).
    assert len(set(names)) == len(names)
    for name in names + list(workloads.WORKLOADS):
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)


def test_printed_metric_names(contract, untraced, traced_pair):
    end_to_end = [m["name"] for m in contract["end_to_end"]]
    per_layer = [m["name"] for m in contract["per_layer"]]
    for name in workloads.WORKLOADS:
        line = untraced["driver_lines"][name]
        assert list(line) == ["correct", "attempted", "failed", "metrics"]
        assert list(line["metrics"]) == end_to_end
        assert all(entry["value"] > 0 for entry in line["metrics"].values())
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert list(traced_pair[0]["driver_lines"][name]["metrics"]) == per_layer


def test_counts_repeat_exactly(traced_pair):
    first, second = traced_pair
    for name in workloads.WORKLOADS:
        a, b = first["workloads"][name], second["workloads"][name]
        assert a["fingerprint"] == b["fingerprint"]
        for metric in metrics.PER_LAYER:
            if metric.unit in ("count", "B"):
                assert a["per_layer"][metric.name] == b["per_layer"][metric.name], metric.name


def test_null_paths_stay_free(traced_pair):
    for name in ENGINE_ONLY:
        layers = traced_pair[0]["workloads"][name]["per_layer"]
        for metric in metrics.PER_LAYER:
            if metric.name.split(".")[0] in ("persist", "replic", "net", "io"):
                assert layers[metric.name]["value"] == 0, (name, metric.name)
        assert layers["obs.events"]["value"] == 0
    wire = traced_pair[0]["workloads"]["wire_wal_replica"]["per_layer"]
    for name in ("persist.records", "replic.frames_sent", "net.requests", "obs.events"):
        assert wire[name]["value"] > 0


def test_traced_run_restores_every_wrapped_attribute():
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr, _n, _p in trace.targets()]
    record = harness.run_workload(
        workloads.WORKLOADS["sql_views_mixed"], seed=5, smoke=True, traced=True
    )
    assert record["correct"]
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, (owner, attr)
    names, name_ids, starts, ends, parents = trace.load_spans(
        os.path.join(workloads.WORK_DIR, "spans-sql_views_mixed.bin")
    )
    assert len(name_ids) == len(starts) == len(ends) == len(parents) > 0
    assert (ends >= starts).all() and (parents < len(starts)).all()
    assert "sim.run" in names


def test_steady_latencies_keep_the_operation_and_drop_the_stall():
    quiet = list(range(100, 200))  # operation 99 is the slow one, every time
    stalled = list(quiet)
    stalled[10:20] = [10_000] * 10  # one repetition's stall on one burst
    across = harness.steady_latencies([quiet, stalled, quiet])
    assert across == [float(v) for v in quiet]
    assert harness.percentile(across, 0.99) == 199.0


def test_compare_flags_only_real_regressions(untraced, capsys):
    assert compare.compare(untraced, untraced) == 0
    slower = copy.deepcopy(untraced)
    entry = slower["workloads"]["pta_comps_unique"]["end_to_end"]["throughput_ops_s"]
    for key in ("value", "q1", "q3"):
        entry[key] /= 2
    entry["samples"] = [s / 2 for s in entry["samples"]]
    assert compare.compare(untraced, slower) == 1
    assert "worse" in capsys.readouterr().out


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files the command must exit non-zero without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", ".work", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "pta_comps_unique",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout == ""
