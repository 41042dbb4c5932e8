"""Shared harness for the benchmark suite (one module per table/figure).

The drivers here run the paper's experiment grids once per process and
cache the results, so the three figures that share a sweep (e.g. 9/10/11
all come from the composite-maintenance grid) only pay for it once.
"""

from repro.bench.experiments import (
    bench_scale,
    comp_sweep,
    is_strict_scale,
    option_sweep,
)
from repro.bench.reporting import format_series, format_table

__all__ = [
    "bench_scale",
    "comp_sweep",
    "format_series",
    "is_strict_scale",
    "format_table",
    "option_sweep",
]
