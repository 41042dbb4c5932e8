"""Durability overhead: wall-clock throughput with persistence off vs on.

The WAL charges no *virtual* CPU (the simulated results are byte-identical
with persistence on or off — a test pins this); its cost is real time.
This benchmark runs the same experiment three ways — no persistence,
buffered WAL with fuzzy checkpoints, and WAL with per-record fsync — and
reports wall-clock updates/second for each, plus the derived-result
invariant that makes the comparison meaningful.
"""

import tempfile

from repro.bench.experiments import bench_scale, grid
from repro.bench.reporting import emit, format_table
from repro.pta.workload import VIEW

MODES = ("off", "wal", "wal+fsync")


def wal_overhead_rows() -> list[dict]:
    """The same experiment with persistence off, WAL on, and WAL+fsync;
    wall-clock updates/second of each run beside its record counts."""
    with tempfile.TemporaryDirectory() as wal, tempfile.TemporaryDirectory() as synced:
        results = grid(
            VIEW,
            [{}, dict(wal_dir=wal, checkpoint_every=5.0),
             dict(wal_dir=synced, checkpoint_every=5.0, wal_sync=True)],
            scale=bench_scale(), view="comps", variant="unique", delay=1.0,
        )
    return [
        {
            "mode": mode,
            "wall_s": round(result.wall_s, 3),
            "updates_per_s": round(result.n_updates / result.wall_s, 1),
            **result.row(),
            "wal_records": result.wal_records,
            "checkpoints": result.checkpoints,
        }
        for mode, result in zip(MODES, results)
    ]


def test_wal_overhead(benchmark):
    rows = benchmark.pedantic(wal_overhead_rows, rounds=1, iterations=1)
    emit(
        format_table(rows, f"WAL overhead (scale: {bench_scale()})"),
        "wal_overhead",
    )
    for row in rows:
        benchmark.extra_info[row["mode"]] = {
            "wall_s": row["wall_s"],
            "updates_per_s": row["updates_per_s"],
        }
    by_mode = {row["mode"]: row for row in rows}
    # Persistence must not change the simulated experiment at all.
    assert by_mode["wal"]["cpu_fraction"] == by_mode["off"]["cpu_fraction"]
    assert by_mode["wal"]["n_recomputes"] == by_mode["off"]["n_recomputes"]
    assert by_mode["wal+fsync"]["wal_records"] == by_mode["wal"]["wal_records"]
    # And the durable runs actually logged something.
    assert by_mode["wal"]["wal_records"] > 0
    assert by_mode["wal"]["checkpoints"] >= 1
