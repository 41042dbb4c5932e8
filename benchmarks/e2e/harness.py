"""Repetitions, medians, the correctness gate, and the per-layer read-out."""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from benchmarks.e2e.metrics import END_TO_END, PER_LAYER
from benchmarks.e2e.trace import SpanRecorder, SpanStat
from benchmarks.e2e.workloads import (
    WORK_DIR, WORKLOADS, PtaWorkload, Rep, Workload, fingerprint,
)

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_VIRTUAL = os.path.join(HERE, "expected_virtual.json")

#: A time-budgeted run (``--seconds``) never reports a median of fewer.
MIN_REPS = 3


@dataclass
class RepResult:
    setup_s: float
    wall_s: float
    ops: int
    failed: int  # operations that raised, plus what verification found wrong
    op_ns: list[int]
    read_ns: list[int]
    maint_ns: int
    fingerprint: dict
    layers: dict[str, float] = field(default_factory=dict)
    layer_share: dict[str, float] = field(default_factory=dict)


def percentile(ordered: list[int], q: float) -> float:
    """Nearest-rank percentile of sorted samples."""
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def steady_latencies(reps: list[list[int]]) -> list[float]:
    """Each operation's median latency across repetitions, sorted.

    Every repetition replays the same stream in the same (virtual-time)
    order, so sample ``i`` is the same operation in each.  A stall of the
    machine lands on different operations in different repetitions; what the
    operation itself costs — its queue, its recompute, a young-generation
    collection due at that allocation count — lands on it every time.  On a
    quiet machine this reads like the median of per-repetition percentiles.
    With a neighbour taking the cores for 0.3-1.5 s every few seconds, wire
    op_p99_us over ten seeds of seven repetitions spread 0.13 that way (one
    repetition's p99 is ~40 samples in 6-8 bursts; single repetitions read
    10-21 ms) and 0.04 this way.
    """
    return sorted(statistics.median(samples) for samples in zip(*reps))


def run_rep(
    workload: Workload, inputs: Any, spans: Optional[SpanRecorder] = None
) -> RepResult:
    """One repetition on a fresh database: set-up, timed run, verification."""
    gc.collect()
    start = time.perf_counter()
    rep = workload.setup(inputs, spans)
    setup_s = time.perf_counter() - start
    try:
        # Young-generation collection stays on inside the timed section, so
        # allocation rate still costs what it costs.  Full collections are
        # held back to between repetitions and the populated database is
        # frozen out of the collector's view, as a tuned long-running server
        # would arrange: left alone they are 9 pauses of ~100 ms per wire
        # repetition, which made op_p99_us a coin toss between 10 ms and
        # 100 ms depending on whether a pause caught 1 % of the requests.
        gc.collect()
        gc.freeze()
        thresholds = gc.get_threshold()
        gc.set_threshold(thresholds[0], thresholds[1], 1 << 30)
        if spans is not None:
            spans.recording = True
        try:
            start = time.perf_counter()
            workload.run(rep)
            wall_s = time.perf_counter() - start
        finally:
            gc.set_threshold(*thresholds)
            gc.unfreeze()
        if spans is not None:
            spans.recording = False
        result = RepResult(
            setup_s, wall_s, rep.ops, rep.failed + workload.verify(rep),
            rep.op_ns, rep.read_ns, rep.maint_ns, fingerprint(rep),
        )
        if spans is not None:
            result.layers, result.layer_share = layer_metrics(spans, rep, wall_s)
    finally:
        workload.teardown(rep)
    return result


# ---------------------------------------------------------------- per layer


def layer_metrics(
    spans: SpanRecorder, rep: Rep, wall_s: float
) -> tuple[dict[str, float], dict[str, float]]:
    """Every traced per-layer metric of one repetition, and each layer's
    share of the traced wall time (self time, so the shares add up)."""
    stats = spans.stats()
    counts = spans.counts
    none = SpanStat(0, 0.0)

    def calls(*names: str) -> int:
        return sum(stats.get(name, none).count for name in names)

    def self_s(*names: str) -> float:
        return sum(stats.get(name, none).self_s for name in names)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    db = rep.db
    virtual = fingerprint(rep)
    out = {
        "storage.lookups": calls("storage.lookup"),
        "storage.index_probes": calls("storage.index_probe"),
        "storage.lookup_s": self_s("storage.lookup", "storage.index_probe"),
        "storage.indexed_lookup_frac": ratio(
            counts["storage.indexed_lookups"], calls("storage.lookup")
        ),
        "storage.record_writes": calls("storage.write"),
        "storage.write_s": self_s("storage.write"),
        "storage.temptable_rows": counts["storage.temptable_rows"],
        "storage.temptable_s": self_s("storage.temptable"),
        "txn.commits": calls("txn.commit"),
        "txn.aborts": calls("txn.abort"),
        "txn.commit_s": self_s("txn.commit"),
        "txn.lock_acquires": calls("txn.lock_acquire"),
        "txn.lock_s": self_s("txn.lock_acquire", "txn.lock_release"),
        "txn.queue_ops": calls("txn.queue"),
        "txn.queue_s": self_s("txn.queue"),
        "sql.parse_calls": calls("sql.parse"),
        "sql.parse_cache_hit_frac": ratio(
            calls("sql.parse") - calls("sql.parse_miss"), calls("sql.parse")
        ),
        "sql.select_calls": calls("sql.select"),
        "sql.select_s": self_s("sql.select", "sql.plan_lookup"),
        "sql.plan_builds": calls("sql.plan_build"),
        "sql.plan_cache_hit_frac": ratio(
            calls("sql.plan_lookup") - calls("sql.plan_build"), calls("sql.plan_lookup")
        ),
        "sql.bind_calls": calls("sql.bind"),
        "sql.bind_s": self_s("sql.bind"),
        "sql.dml_calls": calls("sql.dml"),
        "sql.dml_s": self_s("sql.dml"),
        "core.firings": virtual["rule_firings"],
        "core.process_commit_s": self_s("core.process_commit"),
        "core.dispatch_s": self_s("core.dispatch"),
        "core.absorb_frac": ratio(virtual["batched_firings"], virtual["rule_firings"]),
        "core.bound_rows": virtual["bound_rows"],
        "core.tasks_created": counts["core.tasks_created"],
        "sim.tasks": rep.simulator.executed,
        "sim.loop_s": self_s("sim.run", "sim.task"),
        "sim.charge_calls": counts["sim.charge_calls"],
        "views.maint_tasks": sum(plan.stats.tasks for plan in rep.view_plans),
        "views.maint_s": self_s("views.maint"),
        "views.rows_touched": sum(plan.stats.rows_touched for plan in rep.view_plans),
        "views.full_recomputes": sum(plan.stats.full_recomputes for plan in rep.view_plans),
        "pta.function_calls": calls("pta.function"),
        "pta.function_s": self_s("pta.function"),
        "persist.records": db.persist.records_logged,
        "persist.bytes": counts["persist.bytes"],
        "persist.bytes_per_op": ratio(counts["persist.bytes"], rep.ops),
        "persist.flushes": calls("persist.flush"),
        "persist.append_s": self_s("persist.append"),
        "persist.flush_s": self_s("persist.flush"),
        "persist.checkpoint_s": rep.checkpoint_s,
        "persist.recover_s": rep.recover_s,
        "replic.pump_s": self_s("replic.pump"),
        "replic.apply_s": self_s("replic.apply"),
        "replic.drain_s": self_s("replic.drain"),
        "net.handle_s": self_s("net.handle"),
        "net.codec_s": self_s("net.codec"),
        "net.pump_s": self_s("net.pump"),
        "obs.events": len(rep.collector.events) if rep.collector is not None else 0,
    }
    links = rep.cluster.shipper.stats()["links"] if rep.cluster is not None else []
    out["replic.frames_sent"] = sum(link["frames_sent"] for link in links)
    out["replic.frames_resent"] = sum(link["frames_resent"] for link in links)
    out["replic.bytes_shipped"] = sum(link["send"]["bytes_sent"] for link in links)
    server = rep.server
    decisions = server.admission.counts() if server is not None else {}
    out["io.feed_tasks"] = (
        server.quotes.records_seen + server.sql_writes.records_seen if server is not None else 0
    )
    out["net.requests"] = server.stats()["received"] if server is not None else 0
    out["net.admit_frac"] = ratio(decisions.get("admit", 0), sum(decisions.values()))
    out["net.retransmits"] = sum(client.stats.retransmits for client in rep.clients)
    out["net.bytes"] = (
        rep.transport.channel_stats()["bytes_sent"] if rep.transport is not None else 0
    )
    share: dict[str, float] = {}
    for name, stat in stats.items():
        layer = name.split(".", 1)[0]
        share[layer] = share.get(layer, 0.0) + stat.self_s / wall_s
    return out, share


def obs_overhead(seed: int, smoke: bool) -> float:
    """Wall-clock cost of an attached ``TraceCollector``: one repetition pair
    of pta_comps_unique, collector over the default ``NullTracer``, minus 1."""
    plain = WORKLOADS["pta_comps_unique"]
    observed = PtaWorkload(plain.name, plain.why, 1, plain.view, plain.variant, collector=True)
    inputs = plain.inputs(seed, smoke)
    with_collector, without = run_rep(observed, inputs), run_rep(plain, inputs)
    if with_collector.fingerprint != without.fingerprint:
        raise RuntimeError("attaching a TraceCollector moved a virtual result")
    return with_collector.wall_s / without.wall_s - 1.0


# ------------------------------------------------------------- one workload


def _summary(samples: list[float], unit: str, n: int) -> dict:
    """A metric's median across repetitions with its quartiles; ``n`` is the
    number of raw samples behind each repetition's value."""
    if len(samples) > 1:
        q1, _median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "value": statistics.median(samples), "unit": unit,
        "q1": q1, "q3": q3, "n": n, "samples": samples,
    }


def _expected_fingerprint(workload: str, seed: int) -> Optional[dict]:
    with open(EXPECTED_VIRTUAL) as source:
        return json.load(source).get(workload, {}).get(str(seed))


def run_workload(
    workload: Workload,
    seed: int,
    smoke: bool = False,
    traced: bool = False,
    seconds: Optional[float] = None,
) -> dict:
    """Run one workload and return its result record.

    Without ``seconds`` the workload's fixed repetition count applies (1 in
    smoke size); with it, repetitions continue until their timed sections
    have used the budget (at least ``MIN_REPS``).  A traced run puts the one
    traced repetition first, so its counts do not depend on how many untraced
    repetitions the budget allowed.
    """
    inputs = workload.inputs(seed, smoke)
    record: dict = {"workload": workload.name, "seed": seed, "smoke": smoke}
    traced_rep: Optional[RepResult] = None
    measured = 0.0
    if traced:
        with SpanRecorder() as spans:
            traced_rep = run_rep(workload, inputs, spans)
        os.makedirs(WORK_DIR, exist_ok=True)
        spans.dump(os.path.join(WORK_DIR, f"spans-{workload.name}.bin"))
        measured = traced_rep.wall_s
    reps: list[RepResult] = []
    floor = 1 if smoke else workload.reps if seconds is None else MIN_REPS
    while len(reps) < floor or measured < (seconds or 0.0):
        reps.append(run_rep(workload, inputs))
        measured += reps[-1].wall_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    every = reps + ([traced_rep] if traced_rep is not None else [])
    virtual = every[0].fingerprint
    mismatches = [r.fingerprint for r in every if r.fingerprint != virtual]
    expected = None if smoke else _expected_fingerprint(workload.name, seed)
    if expected is not None and expected != virtual:
        mismatches.append(expected)
    attempted = sum(r.ops for r in every)
    failed = sum(r.failed for r in every)

    ops = reps[0].ops
    units = {m.name: m.unit for m in END_TO_END}
    per_rep: dict[str, tuple[list[float], int]] = {
        "setup_s": ([r.setup_s for r in reps], 1),
        "throughput_ops_s": ([r.ops / r.wall_s for r in reps], ops),
        "maint_us_per_op": ([r.maint_ns / 1e3 / r.ops for r in reps], ops),
    }
    steady: dict[str, float] = {}
    for kind, latencies in (("op", [r.op_ns for r in reps]), ("read", [r.read_ns for r in reps])):
        if latencies[0]:  # only sql_views_mixed reads
            ordered = [sorted(samples) for samples in latencies]
            across = steady_latencies(latencies)
            for tag, q in (("p50", 0.50), ("p99", 0.99)):
                per_rep[f"{kind}_{tag}_us"] = (
                    [percentile(samples, q) / 1e3 for samples in ordered], len(ordered[0])
                )
                steady[f"{kind}_{tag}_us"] = percentile(across, q) / 1e3
    end_to_end = {
        name: _summary(samples, units[name], n) for name, (samples, n) in per_rep.items()
    }
    for name, value in steady.items():
        # The per-repetition percentiles stay as the quartiles and samples.
        end_to_end[name]["value"] = value
    end_to_end["peak_rss_mb"] = _summary([peak_rss_mb], "MB", 1)
    end_to_end["failed_frac"] = _summary([failed / attempted], "ratio", attempted)

    record.update(
        reps=len(reps), ops=ops, attempted=attempted, failed=failed,
        fingerprint=virtual, fingerprint_mismatches=mismatches,
        correct=failed == 0 and not mismatches,
        end_to_end=end_to_end,
    )
    if traced_rep is not None:
        layers = dict(traced_rep.layers)
        layers["obs.overhead_frac"] = obs_overhead(seed, smoke)
        layers["bench.trace_overhead_frac"] = (
            traced_rep.wall_s / statistics.median(r.wall_s for r in reps) - 1.0
        )
        record["per_layer"] = {
            m.name: {"value": layers[m.name], "unit": m.unit} for m in PER_LAYER
        }
        record["layer_share"] = traced_rep.layer_share
        record["traced_wall_s"] = traced_rep.wall_s
    return record
