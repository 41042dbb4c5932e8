"""The stats outputs are pinned: text report and JSON snapshot.

Two runs, each made in a fresh interpreter (task and transaction ids come
from process-global counters):

* ``wire`` — the wire-path run of :mod:`tests.obs.test_golden_trace`
  (admission, a WAL flush per commit, an async standby, preemption);
* ``cascade`` — the two-level cascade with delta compaction under a fault
  plan that kills recomputes and aborts commits, with a retry budget of one
  so that a task is dropped too.

``golden/stats_outputs.json`` keeps the SHA-256 of each run's
:func:`~repro.obs.stats_report` text and of its
:func:`~repro.obs.stats_snapshot` JSON, beside the counters and histograms
the run leaves at zero.  Between them the two runs move every counter and
histogram but the few in :data:`COVERED_ELSEWHERE`, each held by the test
named there.

Regenerate the golden file only for a change that means to move a figure::

    PYTHONPATH=src python -m tests.obs.test_golden_stats --regenerate
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

from repro.obs import TraceCollector, stats_report, stats_snapshot
from repro.pta.tables import Scale
from repro.pta.workload import run_cascade_experiment

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "stats_outputs.json")
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Counters neither run moves, and the test that moves and checks each.
COVERED_ELSEWHERE = {
    "task_drops": "tests/obs/test_tracer.py::TestTaskEvents::test_task_drop_event",
    "task_supersedes": (
        "tests/obs/test_tracer.py::TestTaskEvents::"
        "test_superseding_deletion_leaves_no_batch_behind"
    ),
    "unique_rescinds": "tests/fault/test_failed_commit.py",
    "net_refused_connections": (
        "tests/net/test_server_sim.py::TestServerCore::test_refused_connections_are_counted"
    ),
    "net_shed": "tests/net/test_server_sim.py::TestShed::test_overload_past_shed_at_rejects_writes",
    "net_throttle": (
        "tests/net/test_server_sim.py::TestShed::test_overload_past_shed_at_rejects_writes"
    ),
}


def cascade_run() -> TraceCollector:
    collector = TraceCollector()
    run_cascade_experiment(
        Scale.tiny(), compact=True, tracer=collector, fault_seed=7, max_retries=1,
        faults="task.exec[recompute]:kill@every=3;txn.commit:abort@p=0.02",
    )
    return collector


def digests(collector: TraceCollector) -> dict:
    """The two outputs' SHA-256 and what the run left at zero."""
    report = stats_report(collector, "Trace statistics")
    snapshot = stats_snapshot(collector)
    text = json.dumps(snapshot, sort_keys=True)
    empty = re.findall(r"^histogram (\S+): \(empty\)$", report, re.M)
    return {
        "report": hashlib.sha256(report.encode()).hexdigest(),
        "snapshot": hashlib.sha256(text.encode()).hexdigest(),
        "zero": sorted(name for name, n in snapshot["counters"].items() if not n) + empty,
        "histograms": re.findall(r"^histogram ([^\s:]+)", report, re.M),
    }


def outputs() -> dict:
    from tests.obs.test_golden_trace import wire_run

    with tempfile.TemporaryDirectory() as wal_dir:
        wire = wire_run(wal_dir)
    return {"wire": digests(wire), "cascade": digests(cascade_run())}


def fresh_outputs() -> dict:
    """:func:`outputs` in a new interpreter (ids start from scratch)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src") + os.pathsep + ROOT)
    result = subprocess.run(
        [sys.executable, "-m", "tests.obs.test_golden_stats", "--export"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(result.stdout)


class TestGoldenStats:
    def test_outputs_are_byte_identical(self):
        with open(GOLDEN) as handle:
            golden = json.load(handle)
        got = fresh_outputs()
        for run in ("wire", "cascade"):
            assert got[run]["zero"] == golden[run]["zero"], run
            assert got[run] == golden[run], run

    def test_every_figure_moves_in_some_run(self):
        with open(GOLDEN) as handle:
            golden = json.load(handle)
        still = set(golden["wire"]["zero"]) & set(golden["cascade"]["zero"])
        assert still == set(COVERED_ELSEWHERE)
        assert {"batch_firings", "compaction_ratio", "wal_flush_bytes"} <= set(
            golden["wire"]["histograms"] + golden["cascade"]["histograms"]
        )


if __name__ == "__main__":
    if sys.argv[1:] == ["--export"]:
        print(json.dumps(outputs()))
    elif sys.argv[1:] == ["--regenerate"]:
        document = fresh_outputs()
        with open(GOLDEN, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {GOLDEN}")
    else:
        sys.exit("usage: python -m tests.obs.test_golden_stats --regenerate")
