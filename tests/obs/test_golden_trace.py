"""The trace event log is lossless and bounded.

* **Lossless.**  One fixed small run over the whole wire path — binary
  clients through admission control, the comp rule, a WAL flush per
  commit, an async standby — records every event kind the
  ``wire_wal_replica`` benchmark records.  Its JSONL and Chrome exports are
  held byte-identical: ``golden/wire_trace.json`` keeps their SHA-256
  digests beside the per-kind event counts, so a mismatch names the kind
  that moved.  Task and transaction ids come from process-global counters,
  so the run is made in a fresh interpreter.
* **Bounded.**  The bytes the collector's event log keeps per recorded
  event, measured with ``tracemalloc`` over the same event mix.

Regenerate the golden file only for a change that means to move an event::

    PYTHONPATH=src python -m tests.obs.test_golden_trace --regenerate
"""

import gc
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import replace

from repro.database import Database
from repro.net.admission import AdmissionConfig
from repro.net.client import LoadConfig, NetClient, quote_stream
from repro.net.server import NetServer, ServerConfig
from repro.net.sim import SimNetTransport
from repro.obs import TraceCollector, write_chrome_trace, write_jsonl
from repro.persist.manager import PersistenceManager
from repro.pta.rules import function_registry, install_comp_rule
from repro.pta.tables import Scale, populate
from repro.replic.channel import NetworkConfig
from repro.replic.cluster import ReplicationCluster
from repro.sim.costmodel import CostModel
from repro.sim.simulator import Simulator

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "wire_trace.json")
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: What the wire event mix costs in the log, in bytes per event (tracemalloc,
#: CPython 3.11): a list of dataclasses, one ``args`` dict each, kept 357;
#: the columnar log keeps 51.  The bound leaves room for other interpreter
#: versions' object sizes, not for a per-event object.
MAX_BYTES_PER_EVENT = 100


def wire_run(wal_dir: str) -> TraceCollector:
    """Two bursty clients over lossy channels into a WAL-logged primary
    with one async standby; returns the collector once everything drained."""
    scale = Scale.tiny()
    trace = scale.make_trace(seed=0)
    collector = TraceCollector()
    persist = PersistenceManager(wal_dir, checkpoint_every=None, sync=False)
    persist.enabled = False  # set-up goes into the initial checkpoint
    # A quantum short enough that the comp recomputes are preempted.
    db = Database(
        cost_model=CostModel(preempt_quantum=0.0005), tracer=collector, persist=persist
    )
    populate(db, scale, trace, trace.generate(), 0)
    install_comp_rule(db, "unique", 0.5)
    persist.enabled = True
    persist.checkpoint()
    cluster = ReplicationCluster(
        db, persist, replicas=1, mode="async", net_seed=3,
        functions=function_registry(), tracer=collector,
    )
    server = NetServer(
        db, collector=collector,
        config=ServerConfig(admission=AdmissionConfig(session_rate=60, session_burst=8)),
    )
    load = LoadConfig(n_requests=100, burst_size=4, burst_gap=0.4, intra_gap=0.01)
    clients = [
        NetClient(
            f"client-{index}",
            quote_stream(
                trace.symbols, trace.initial_prices, index,
                replace(load, start=index * 0.01),
            ),
            start=index * 0.01,
        )
        for index in range(2)
    ]
    transport = SimNetTransport(
        server, clients,
        network=NetworkConfig(latency=0.005, bandwidth=10e6, jitter=0.002, drop=0.02),
        seed=3,
    )
    simulator = Simulator(db)
    simulator.post_task_hooks.extend([transport.pump, cluster.pump])
    transport.drive(simulator)
    cluster.finish()
    persist.close()
    return collector


def exports(out_dir: str) -> dict:
    """Run :func:`wire_run` and write its two exports; their digests and
    the event count per kind."""
    with tempfile.TemporaryDirectory() as wal_dir:
        collector = wire_run(wal_dir)
    digests = {}
    for name, write in (("trace.jsonl", write_jsonl), ("trace.json", write_chrome_trace)):
        path = os.path.join(out_dir, name)
        write(collector, path)
        with open(path, "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    kinds = Counter(event.kind for event in collector.events)
    return {"sha256": digests, "kinds": dict(sorted(kinds.items()))}


def fresh_exports(out_dir: str) -> dict:
    """:func:`exports` in a new interpreter (ids start from scratch)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src") + os.pathsep + ROOT)
    result = subprocess.run(
        [sys.executable, "-m", "tests.obs.test_golden_trace", "--export", out_dir],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(result.stdout)


class TestGoldenTrace:
    def test_exports_are_byte_identical(self, tmp_path):
        with open(GOLDEN) as handle:
            golden = json.load(handle)
        got = fresh_exports(str(tmp_path))
        assert got["kinds"] == golden["kinds"]
        assert got["sha256"] == golden["sha256"]

    def test_covers_the_wire_event_kinds(self):
        with open(GOLDEN) as handle:
            kinds = set(json.load(handle)["kinds"])
        assert kinds >= {
            "txn.begin", "txn.commit", "rule.check", "rule.fire", "unique.new",
            "unique.append", "task.enqueue", "task.release", "task",
            "task.preempt", "counter.queues", "counter.pending",
            "counter.staleness", "counter.backpressure", "persist.flush",
            "persist.checkpoint", "counter.replication_lag", "net.session",
            "net.admit", "counter.admission", "view.register",
        }


class TestBytesPerEvent:
    def test_log_keeps_at_most_the_budget(self, tmp_path):
        gc.collect()
        tracemalloc.start()
        try:
            collector = wire_run(str(tmp_path))
            events = len(collector.events)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
            collector.events = type(collector.events)()
            gc.collect()
            freed = kept - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert events > 2000
        assert freed / events <= MAX_BYTES_PER_EVENT, freed / events


if __name__ == "__main__":
    if sys.argv[1:2] == ["--export"]:
        print(json.dumps(exports(sys.argv[2])))
    elif sys.argv[1:] == ["--regenerate"]:
        with tempfile.TemporaryDirectory() as scratch:
            document = fresh_exports(scratch)
        with open(GOLDEN, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {GOLDEN}: {sum(document['kinds'].values())} events")
    else:
        sys.exit("usage: python -m tests.obs.test_golden_trace --regenerate")
