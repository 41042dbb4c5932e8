"""Figure 9: CPU fraction to maintain comp_prices vs delay window.

Paper shape: the non-unique rule is a flat line (36% at paper scale);
every unique rule drops below it for delays >= ~0.7s and decreases with
the window; coarse ``unique`` ends lowest, ``unique on comp`` suffers at
small delays (the critical region) but approaches coarse at 3s.
"""

import pytest

from repro.bench.experiments import bench_scale, comp_sweep, series_of
from repro.bench.reporting import emit, format_series


def test_fig09_comp_cpu_fraction(benchmark):
    results = benchmark.pedantic(comp_sweep, rounds=1, iterations=1)
    series = series_of(results, "cpu_fraction")
    emit(
        format_series(
            series,
            x_label="delay_s",
            y_label="CPU fraction for comp_prices maintenance",
            title=f"Figure 9 (scale: {bench_scale()})",
        ),
        "fig09_comp_cpu",
    )
    for variant, points in series.items():
        benchmark.extra_info[variant] = points

    nonunique = series["nonunique"][0][1]
    final = {variant: points[-1][1] for variant, points in series.items()}
    # Paper claims: all unique rules beat non-unique at the largest delay...
    assert final["unique"] < nonunique
    assert final["on_comp"] < nonunique
    assert final["on_symbol"] < nonunique
    # ... coarse batching reduces CPU the most, with on_comp nearly as good.
    assert final["unique"] <= final["on_comp"]
    # Unique curves decrease with the delay window.
    for variant in ("unique", "on_comp", "on_symbol"):
        first = series[variant][0][1]
        assert final[variant] <= first
