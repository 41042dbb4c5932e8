"""Observability overhead: wall-clock throughput with tracing off vs on.

The collector charges no *virtual* CPU (obs components only read engine
state; the simulated results are identical with tracing on or off — the
invariant is asserted below); its cost is real time.  This benchmark runs
the same experiment three ways — default NullTracer, a bare
TraceCollector, and a collector with time-series sampling — and reports
wall-clock updates/second for each, plus a ``BENCH_obs.json`` record.
"""

import json
import os

from repro.bench.experiments import bench_scale, grid
from repro.bench.reporting import emit, format_table, results_dir
from repro.obs.tracer import TraceCollector
from repro.pta.workload import VIEW


def obs_overhead_rows() -> list[dict]:
    """The same experiment with the default NullTracer, a bare collector,
    and a collector sampling a time series; wall-clock updates/second of
    each run beside what it observed."""
    tracers = {
        "null": None,
        "collector": TraceCollector(sample_interval=0.0),
        "collector+ts": TraceCollector(sample_interval=1.0),
    }
    results = grid(
        VIEW, [dict(tracer=tracer) for tracer in tracers.values()],
        scale=bench_scale(), view="comps", variant="unique", delay=1.0,
    )
    return [
        {
            "mode": mode,
            "wall_s": round(result.wall_s, 3),
            "updates_per_s": round(result.n_updates / result.wall_s, 1),
            "events": len(tracer.events) if tracer is not None else 0,
            "samples": len(tracer.timeseries.samples)
            if tracer is not None and tracer.timeseries is not None
            else 0,
            **result.row(),
            "end_time": round(result.end_time, 6),
        }
        for (mode, tracer), result in zip(tracers.items(), results)
    ]


def test_obs_overhead(benchmark):
    rows = benchmark.pedantic(obs_overhead_rows, rounds=1, iterations=1)
    emit(
        format_table(rows, f"Observability overhead (scale: {bench_scale()})"),
        "obs_overhead",
    )
    for row in rows:
        benchmark.extra_info[row["mode"]] = {
            "wall_s": row["wall_s"],
            "updates_per_s": row["updates_per_s"],
        }
    by_mode = {row["mode"]: row for row in rows}
    # Tracing must not change the simulated experiment at all: attaching a
    # collector never calls db.charge, so every virtual result is identical.
    for mode in ("collector", "collector+ts"):
        assert by_mode[mode]["cpu_fraction"] == by_mode["null"]["cpu_fraction"]
        assert by_mode[mode]["n_recomputes"] == by_mode["null"]["n_recomputes"]
        assert by_mode[mode]["end_time"] == by_mode["null"]["end_time"]
    # And the traced runs actually observed something.
    assert by_mode["collector"]["events"] > 0
    assert by_mode["collector+ts"]["samples"] > 0
    assert by_mode["null"]["events"] == 0
    try:
        target = results_dir()
        os.makedirs(target, exist_ok=True)
        with open(os.path.join(target, "BENCH_obs.json"), "w") as handle:
            json.dump({"scale": str(bench_scale()), "rows": rows}, handle, indent=2)
    except OSError:
        pass  # results files are a convenience, never a failure
