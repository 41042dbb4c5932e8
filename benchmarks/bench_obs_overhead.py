"""Observability overhead: wall-clock throughput with tracing off vs on.

The collector charges no *virtual* CPU (obs components only read engine
state; the simulated results are identical with tracing on or off — the
invariant is asserted below); its cost is real time.  This benchmark runs
the same experiment three ways — default NullTracer, a bare
TraceCollector, and a collector with time-series sampling — in
:data:`REPETITIONS` interleaved rounds whose mode order rotates, so each
mode runs first, second and last alike and a drift of the machine lands on
all three.  It reports each mode's median wall-clock time and range, plus a
``BENCH_obs.json`` record.
"""

import json
import os
import statistics

from repro.bench.experiments import bench_scale
from repro.bench.reporting import emit, format_table, results_dir
from repro.obs.tracer import TraceCollector
from repro.pta.workload import VIEW

#: Interleaved rounds; one round runs every mode once.
REPETITIONS = 5

#: Each mode's tracer, made fresh for every run.
MODES = {
    "null": lambda: None,
    "collector": lambda: TraceCollector(sample_interval=0.0),
    "collector+ts": lambda: TraceCollector(sample_interval=1.0),
}


def obs_overhead_rows() -> list[dict]:
    """The same experiment with the default NullTracer, a bare collector,
    and a collector sampling a time series, :data:`REPETITIONS` times each
    in rotating order: per mode the median and range of the wall-clock
    time, updates/second at the median, and what the first run observed
    beside its virtual results."""
    names = list(MODES)
    walls: dict[str, list[float]] = {mode: [] for mode in names}
    updates: dict[str, int] = {}
    first: dict[str, dict] = {}
    for round_ in range(REPETITIONS):
        turn = round_ % len(names)
        for mode in names[turn:] + names[:turn]:
            tracer = MODES[mode]()
            result = VIEW.run(
                tracer=tracer, scale=bench_scale(), view="comps", variant="unique", delay=1.0,
            )
            walls[mode].append(result.wall_s)
            virtual = {**result.row(), "end_time": round(result.end_time, 6)}
            if mode not in first:
                updates[mode] = result.n_updates
                first[mode] = {
                    "events": len(tracer.events) if tracer is not None else 0,
                    "samples": len(tracer.timeseries.samples)
                    if tracer is not None and tracer.timeseries is not None
                    else 0,
                    **virtual,
                }
            # A repeated run is the same simulation: only its wall clock moves.
            assert all(first[mode][key] == value for key, value in virtual.items()), mode
            result.detach()
    rows = []
    for mode in names:
        wall = statistics.median(walls[mode])
        rows.append({
            "mode": mode,
            "runs": len(walls[mode]),
            "wall_s": round(wall, 3),
            "wall_min_s": round(min(walls[mode]), 3),
            "wall_max_s": round(max(walls[mode]), 3),
            "updates_per_s": round(updates[mode] / wall, 1),
            **first[mode],
        })
    return rows


def test_obs_overhead(benchmark):
    rows = benchmark.pedantic(obs_overhead_rows, rounds=1, iterations=1)
    emit(
        format_table(rows, f"Observability overhead (scale: {bench_scale()})"),
        "obs_overhead",
    )
    for row in rows:
        benchmark.extra_info[row["mode"]] = {
            "wall_s": row["wall_s"],
            "wall_range_s": [row["wall_min_s"], row["wall_max_s"]],
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
