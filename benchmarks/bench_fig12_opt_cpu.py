"""Figure 12: CPU fraction to maintain option_prices vs delay window.

Paper shape: the non-unique rule is a flat line; both unique rules cross
below it (the paper: slightly past 1 second; ours cross earlier because
the synthetic trace is burstier); and — the section's headline result —
**batching on stock symbol uses less CPU than coarse batching**, despite
running far more recomputations, because the rule system's partitioning is
cheaper than user-code grouping and long coarse transactions pay for
context switches.
"""

from repro.bench.experiments import bench_scale, is_strict_scale, option_sweep, series_of
from repro.bench.reporting import emit, format_series
from repro.pta.workload import VIEW


def option_symbol_probe():
    """One ``unique on option_symbol`` run (the excluded configuration)."""
    return VIEW.run(scale=bench_scale(), view="options", variant="on_option", delay=1.0)


def test_fig12_option_cpu_fraction(benchmark):
    results = benchmark.pedantic(option_sweep, rounds=1, iterations=1)
    series = series_of(results, "cpu_fraction")
    emit(
        format_series(
            series,
            x_label="delay_s",
            y_label="CPU fraction for option_prices maintenance",
            title=f"Figure 12 (scale: {bench_scale()})",
        ),
        "fig12_opt_cpu",
    )
    for variant, points in series.items():
        benchmark.extra_info[variant] = points

    nonunique = series["nonunique"][0][1]
    final = {variant: points[-1][1] for variant, points in series.items()}
    # Both unique rules beat the standard approach at the largest delay.
    assert final["unique"] < nonunique
    assert final["on_symbol"] < nonunique
    # The headline: stock-symbol batching beats coarse batching.
    assert final["on_symbol"] < final["unique"]
    # CPU decreases with the window.
    for variant in ("unique", "on_symbol"):
        assert series[variant][-1][1] <= series[variant][0][1]


def test_fig12_option_symbol_exclusion(benchmark):
    """The configuration the paper dropped: ``unique on option_symbol``
    floods the system with tasks (more recomputations than there are
    updates) and loses to batching on stock symbol."""
    probe = benchmark.pedantic(option_symbol_probe, rounds=1, iterations=1)
    reference = next(
        result
        for result in option_sweep()
        if result.variant == "on_symbol" and result.delay == probe.delay
    )
    emit(
        f"unique on option_symbol @ {probe.delay}s: N_r={probe.n_recomputes} "
        f"(vs {reference.n_recomputes} for on_symbol; updates={probe.n_updates}), "
        f"cpu={probe.cpu_fraction:.4f} vs {reference.cpu_fraction:.4f}",
        "fig12_opt_exclusion",
    )
    benchmark.extra_info["on_option_n_r"] = probe.n_recomputes
    benchmark.extra_info["on_symbol_n_r"] = reference.n_recomputes
    assert probe.n_recomputes > reference.n_recomputes
    if is_strict_scale():
        assert probe.n_recomputes > reference.n_recomputes * 5
        assert probe.cpu_fraction > reference.cpu_fraction
