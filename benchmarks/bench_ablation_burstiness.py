"""Ablation: batching gain vs trace burstiness (the temporal-locality claim).

Section 5.2 explains why option maintenance benefits less from batching
than composite maintenance: options need changes to the *same* stock
inside the window (temporal locality), composites only need changes to
different member stocks (temporal-spatial locality) [AKGM96a].  So the
batching gain of ``unique on symbol`` for options should grow with how
bursty per-stock quoting is — and vanish as the trace approaches
independent single quotes.
"""

import pytest

from repro.bench.experiments import bench_scale
from repro.bench.reporting import emit, format_table
from repro.pta.workload import VIEW


def _run(burst_mean: float):
    scale = bench_scale().scaled(0.5)  # ablations use a lighter grid
    return VIEW.run(
        scale=scale,
        view="options",
        variant="on_symbol",
        delay=1.5,
        trace_kwargs={"burst_mean": burst_mean},
    )


def test_batching_gain_grows_with_burstiness(benchmark):
    def sweep():
        return {burst: _run(burst) for burst in (1.0, 3.0, 6.0)}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for burst, result in sorted(results.items()):
        absorbed = result.batched_firings / max(result.rule_firings, 1)
        rows.append(
            {
                "burst_mean": burst,
                "firings": result.rule_firings,
                "batched_fraction": round(absorbed, 4),
                "n_recomputes": result.n_recomputes,
                "cpu_fraction": round(result.cpu_fraction, 4),
            }
        )
        benchmark.extra_info[f"burst_{burst}"] = absorbed
    emit(format_table(rows, "Ablation: temporal locality vs batching gain"), "ablation_burstiness")

    fractions = [row["batched_fraction"] for row in rows]
    # More burstiness -> a larger share of firings absorbed into pending
    # unique tasks -> fewer Black-Scholes recomputations per firing.
    assert fractions[0] < fractions[-1]
    per_firing = [
        row["n_recomputes"] / max(row["firings"], 1) for row in rows
    ]
    assert per_firing[-1] < per_firing[0]
