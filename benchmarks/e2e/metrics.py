"""Names, units, directions and regression bounds of every metric.

``BENCHMARK.json`` at the repository root is the driver's copy of these
tables (test_e2e.py checks they agree).  It cannot carry three things the
human-facing run reports: ``read_p50_us``/``read_p99_us`` (only
``sql_views_mixed`` has reads, and the driver wants every end-to-end metric
from every workload, never 0 — so it lists them per layer) and
``failed_frac`` (expected 0; the driver takes it from ``failed``/``attempted``).
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: How far the metric may worsen, as a share of the parent's median,
    #: before ``compare`` calls it a regression.  None: reported, not judged.
    bound: Optional[float] = None


# Timing bounds sit at the contract's ceiling because this machine's speed
# moves by 10-20 % between runs of one commit (README, "Steadiness"): a
# tighter bound would reject changes for noise.  Memory repeats to 1-2 %.
END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("throughput_ops_s", "1/s", "higher", 0.25),
    Metric("op_p50_us", "us", "lower", 0.25),
    Metric("op_p99_us", "us", "lower", 0.25),
    Metric("read_p50_us", "us", "lower", 0.25),
    Metric("read_p99_us", "us", "lower", 0.25),
    Metric("maint_us_per_op", "us", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("failed_frac", "ratio", "lower", 0.0),
]

#: End-to-end metrics the driver can bound: reported by all four workloads.
DRIVER_END_TO_END = [
    m for m in END_TO_END if m.name not in ("read_p50_us", "read_p99_us", "failed_frac")
]

_LAYERS = """
storage.lookups count higher
storage.index_probes count higher
storage.lookup_s s lower
storage.indexed_lookup_frac ratio higher
storage.record_writes count lower
storage.write_s s lower
storage.temptable_rows count lower
storage.temptable_s s lower
txn.commits count lower
txn.aborts count lower
txn.commit_s s lower
txn.lock_acquires count lower
txn.lock_s s lower
txn.queue_ops count lower
txn.queue_s s lower
sql.parse_calls count lower
sql.parse_cache_hit_frac ratio higher
sql.select_calls count lower
sql.select_s s lower
sql.plan_builds count lower
sql.plan_cache_hit_frac ratio higher
sql.bind_calls count lower
sql.bind_s s lower
sql.dml_calls count lower
sql.dml_s s lower
core.firings count lower
core.process_commit_s s lower
core.dispatch_s s lower
core.absorb_frac ratio higher
core.bound_rows count lower
core.tasks_created count lower
sim.tasks count lower
sim.loop_s s lower
sim.charge_calls count lower
views.maint_tasks count lower
views.maint_s s lower
views.rows_touched count lower
views.full_recomputes count lower
pta.function_calls count lower
pta.function_s s lower
io.feed_tasks count lower
persist.records count lower
persist.bytes B lower
persist.bytes_per_op B lower
persist.flushes count lower
persist.append_s s lower
persist.flush_s s lower
persist.checkpoint_s s lower
persist.recover_s s lower
replic.frames_sent count lower
replic.frames_resent count lower
replic.bytes_shipped B lower
replic.pump_s s lower
replic.apply_s s lower
replic.drain_s s lower
net.requests count lower
net.admit_frac ratio higher
net.retransmits count lower
net.bytes B lower
net.handle_s s lower
net.codec_s s lower
net.pump_s s lower
obs.events count lower
obs.overhead_frac ratio lower
bench.trace_overhead_frac ratio lower
"""

PER_LAYER = [Metric(*line.split()) for line in _LAYERS.strip().splitlines()]

#: What the driver's ``per_layer`` list holds: the traced layers plus the
#: read latencies (from the untraced repetitions of the same invocation).
DRIVER_PER_LAYER = PER_LAYER + [
    Metric("read_p50_us", "us", "lower"),
    Metric("read_p99_us", "us", "lower"),
]
