"""Cached experiment grids backing the benchmarks and the sweep commands.

A grid is one spec run once per option set (:func:`grid`); the figures,
the compaction and fault sweeps, the overhead benchmarks and the DRed
comparison are each one grid.

Scale selection: set ``REPRO_BENCH_SCALE`` to ``paper``, ``small``,
``tiny``, or a float factor applied to the paper scale.  The default is
``small`` (~1/8 of the paper's dimensions), which keeps the full suite in
the minutes range; EXPERIMENTS.md records the scale behind every reported
number.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from repro.pta.scaffold import Result, Spec
from repro.pta.tables import Scale
from repro.pta.workload import DELAYS, FIGURE_VARIANTS, VIEW, paper_grid

_GRID_CACHE: dict[tuple, list[Result]] = {}

#: The default fault mix for the fault sweep: periodically kill recompute
#: tasks, rarely abort commits, and occasionally delay task releases.
DEFAULT_FAULT_PLAN = (
    "task.exec[recompute]:kill@every=7;"
    "txn.commit:abort@p=0.002;"
    "queue.delay:delay=0.25@p=0.05"
)


def grid(spec: Spec, option_sets: Sequence[dict], **common: object) -> list[Result]:
    """One run of ``spec`` per option set, each over the ``common``
    options, in order.  Each distinct grid runs once per process
    (figures share grids) and keeps its results' metrics, not their runs:
    a cached run would hold its whole database for the life of the
    process."""
    key = (spec.name, repr(list(option_sets)), repr(sorted(common.items())))
    if key not in _GRID_CACHE:
        _GRID_CACHE[key] = [
            spec.run(**{**common, **options}).detach() for options in option_sets
        ]
    return _GRID_CACHE[key]


def is_strict_scale(scale: Optional[Scale] = None) -> bool:
    """True when the scale is large enough for the paper's magnitude claims
    (order-of-magnitude ratios) to hold; tiny smoke scales only preserve the
    orderings."""
    scale = scale or bench_scale()
    return scale.n_comps >= 40 and scale.n_options >= 3000


def bench_scale() -> Scale:
    """The Scale used by the benchmark suite (env-configurable)."""
    return Scale.parse(os.environ.get("REPRO_BENCH_SCALE", "small"))


def comp_sweep(
    scale: Optional[Scale] = None,
    delays: Sequence[float] = DELAYS,
    seed: int = 0,
) -> list[Result]:
    """The Figure 9/10/11 grid: composite maintenance, all four rules."""
    points = paper_grid(FIGURE_VARIANTS["comps"], delays)
    return grid(VIEW, points, scale=scale or bench_scale(), view="comps", seed=seed)


def option_sweep(
    scale: Optional[Scale] = None,
    delays: Sequence[float] = DELAYS,
    seed: int = 0,
) -> list[Result]:
    """The Figure 12/13/14 grid: option maintenance.

    ``unique on option_symbol`` is excluded from the grid exactly as the
    paper excluded it ("the fan-out from stocks to options was so high that
    batching on option symbols led to an unmanageable number of
    transactions"); ``bench_fig12_opt_cpu`` demonstrates the blow-up.
    """
    points = paper_grid(FIGURE_VARIANTS["options"], delays)
    return grid(VIEW, points, scale=scale or bench_scale(), view="options", seed=seed)


def series_of(
    results: Sequence[Result], metric: str
) -> dict[str, list[tuple[float, float]]]:
    """Extract {variant: [(delay, value)]} curves for one metric."""
    curves: dict[str, list[tuple[float, float]]] = {}
    for result in results:
        curves.setdefault(result.variant, []).append(
            (result.delay, float(getattr(result, metric)))
        )
    for points in curves.values():
        points.sort()
    return curves
