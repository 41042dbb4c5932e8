"""Delete-and-rederive vs incremental vs full recompute on deletions.

Runs the deletion-heavy workload (position close-outs and index
delistings) once per maintenance strategy over the same event schedule
and compares the derived-row work each strategy performs per base
deletion.  DRed must strictly beat full recompute on that metric — the
whole point of overdeletion/rederivation is touching only the derived
rows the removed base rows could have supported.  The convergence oracle
runs inside each sweep leg, so the bench is also a correctness gate for
all three strategies.  Emits ``BENCH_dred.json``.
"""

import json
import os

from repro.bench.experiments import grid
from repro.bench.reporting import emit, format_table, results_dir
from repro.pta.workload import DELETION

DELETE_MIX = 0.4
N_EVENTS = 400


def dred_rows() -> list[dict]:
    """One deletion-heavy run per maintenance strategy (identical event
    schedule): the spec's row — derived-row work per base deletion, the
    oracle's verdict — and the run's wall clock."""
    results = grid(
        DELETION,
        [dict(maintenance=strategy) for strategy in ("incremental", "dred", "recompute")],
        delete_mix=DELETE_MIX, n_events=N_EVENTS,
    )
    return [
        {**result.row(), "oracle_rows": result.oracle_rows, "wall_s": round(result.wall_s, 3)}
        for result in results
    ]


def test_dred_vs_recompute(benchmark):
    rows = benchmark.pedantic(dred_rows, rounds=1, iterations=1)
    emit(
        format_table(
            rows,
            f"Deletion maintenance strategies (delete mix {DELETE_MIX}, "
            f"{N_EVENTS} events)",
        ),
        "dred",
    )
    by_strategy = {row["maintenance"]: row for row in rows}
    for row in rows:
        benchmark.extra_info[row["maintenance"]] = {
            "rows_per_deletion": row["rows_per_deletion"],
            "cpu_maint_s": row["cpu_maint_s"],
            "wall_s": row["wall_s"],
        }
    # Every strategy must converge (the oracle ran inside the sweep).
    for row in rows:
        assert row["oracle_divergent"] == 0, row
        assert row["oracle_rows"] > 0, row
    # The tentpole claim: DRed touches strictly fewer derived rows per base
    # deletion than full recompute, and costs less maintenance CPU.
    dred = by_strategy["dred"]
    recompute = by_strategy["recompute"]
    assert dred["rows_per_deletion"] < recompute["rows_per_deletion"]
    assert dred["cpu_maint_s"] < recompute["cpu_maint_s"]
    # DRed actually exercised its two passes on this workload.
    assert dred["overdeleted"] > 0
    assert dred["rederived"] > 0
    assert dred["full_recomputes"] == 0
    try:
        target = results_dir()
        os.makedirs(target, exist_ok=True)
        with open(os.path.join(target, "BENCH_dred.json"), "w") as handle:
            json.dump(
                {"delete_mix": DELETE_MIX, "n_events": N_EVENTS, "rows": rows},
                handle,
                indent=2,
            )
    except OSError:
        pass  # results files are a convenience, never a failure
