"""Cached experiment grids backing the figure benchmarks.

Scale selection: set ``REPRO_BENCH_SCALE`` to ``paper``, ``small``,
``tiny``, or a float factor applied to the paper scale.  The default is
``small`` (~1/8 of the paper's dimensions), which keeps the full suite in
the minutes range; EXPERIMENTS.md records the scale behind every reported
number.
"""

from __future__ import annotations

import os
from typing import Callable, Optional, Sequence

from repro.pta.tables import Scale
from repro.pta.workload import (
    DELAYS,
    FIGURE_VARIANTS,
    ExperimentResult,
    run_deletion_experiment,
    run_experiment,
    sweep,
)

_SWEEP_CACHE: dict[tuple, list] = {}


def _cached(key: tuple, compute: Callable[[], list]) -> list:
    """Run each distinct sweep once per process (figures share grids)."""
    if key not in _SWEEP_CACHE:
        _SWEEP_CACHE[key] = compute()
    return _SWEEP_CACHE[key]


def is_strict_scale(scale: Optional[Scale] = None) -> bool:
    """True when the scale is large enough for the paper's magnitude claims
    (order-of-magnitude ratios) to hold; tiny smoke scales only preserve the
    orderings."""
    scale = scale or bench_scale()
    return scale.n_comps >= 40 and scale.n_options >= 3000


def bench_scale() -> Scale:
    """The Scale used by the benchmark suite (env-configurable)."""
    return Scale.parse(os.environ.get("REPRO_BENCH_SCALE", "small"))


def _sweep(
    view: str,
    variants: Sequence[str],
    scale: Optional[Scale],
    delays: Sequence[float],
    seed: int,
) -> list[ExperimentResult]:
    scale = scale or bench_scale()
    return _cached(
        (view, tuple(variants), scale, tuple(delays), seed),
        lambda: sweep(scale, view, variants, delays, seed),
    )


def comp_sweep(
    scale: Optional[Scale] = None,
    delays: Sequence[float] = DELAYS,
    seed: int = 0,
) -> list[ExperimentResult]:
    """The Figure 9/10/11 grid: composite maintenance, all four rules."""
    return _sweep("comps", FIGURE_VARIANTS["comps"], scale, delays, seed)


def option_sweep(
    scale: Optional[Scale] = None,
    delays: Sequence[float] = DELAYS,
    seed: int = 0,
) -> list[ExperimentResult]:
    """The Figure 12/13/14 grid: option maintenance.

    ``unique on option_symbol`` is excluded from the grid exactly as the
    paper excluded it ("the fan-out from stocks to options was so high that
    batching on option symbols led to an unmanageable number of
    transactions"); :func:`option_symbol_probe` demonstrates the blow-up.
    """
    return _sweep("options", FIGURE_VARIANTS["options"], scale, delays, seed)


def compaction_sweep(
    scale: Optional[Scale] = None,
    delays: Sequence[float] = DELAYS,
    seed: int = 0,
    view: str = "comps",
    variant: str = "unique",
) -> list[tuple[ExperimentResult, ExperimentResult]]:
    """The Figure-5-style delta-compaction sweep: (off, on) result pairs
    per delay window.

    Runs the same view/variant with the ``compact on`` fast path off and
    on at each delay — the off runs are the faithful-reproduction
    baseline, the on runs show the net-effect win growing with the window
    (longer windows accumulate more redundant rows per key).
    """
    scale = scale or bench_scale()
    return _cached(
        ("compaction", view, variant, scale, tuple(delays), seed),
        lambda: [
            (
                run_experiment(scale, view, variant, delay, seed),
                run_experiment(scale, view, variant, delay, seed, compact=True),
            )
            for delay in delays
        ],
    )


#: The default fault mix for the sweep: periodically kill recompute tasks,
#: rarely abort commits, and occasionally delay task releases.
DEFAULT_FAULT_PLAN = (
    "task.exec[recompute]:kill@every=7;"
    "txn.commit:abort@p=0.002;"
    "queue.delay:delay=0.25@p=0.05"
)


def fault_sweep(
    scale: Optional[Scale] = None,
    fault_seeds: Sequence[int] = (0, 1, 2),
    seed: int = 0,
    view: str = "comps",
    variant: str = "unique",
    delay: float = 1.0,
    plan: str = DEFAULT_FAULT_PLAN,
    max_retries: int = 5,
) -> list[ExperimentResult]:
    """One faulted run per injection seed, each checked by the oracle.

    The workload itself is fixed (same trace seed); only the injection
    schedule varies, so divergence between rows of the report isolates the
    fault/recovery machinery rather than workload noise.
    """
    scale = scale or bench_scale()
    return _cached(
        ("faults", view, variant, scale, delay, seed, plan, tuple(fault_seeds), max_retries),
        lambda: [
            run_experiment(
                scale, view, variant, delay, seed,
                faults=plan, fault_seed=fault_seed, max_retries=max_retries,
            )
            for fault_seed in fault_seeds
        ],
    )


def wal_overhead_sweep(
    scale: Optional[Scale] = None,
    delay: float = 1.0,
    seed: int = 0,
    checkpoint_every: float = 5.0,
    view: str = "comps",
    variant: str = "unique",
) -> list[dict]:
    """Real wall-clock cost of durability: the same experiment with
    persistence off, WAL on, and WAL+fsync.

    Persistence charges **no virtual CPU** — the paper's cost model never
    covered it, and the simulated results must stay byte-identical — so
    its price is real time per run, reported here as updates/second of
    wall clock alongside the record/checkpoint counts.
    """
    import tempfile
    import time

    scale = scale or bench_scale()
    modes = [
        ("off", dict()),
        ("wal", dict(checkpoint_every=checkpoint_every)),
        ("wal+fsync", dict(checkpoint_every=checkpoint_every, wal_sync=True)),
    ]
    rows = []
    for mode, extra in modes:
        with tempfile.TemporaryDirectory() as wal_dir:
            kwargs = dict(extra)
            if mode != "off":
                kwargs["wal_dir"] = wal_dir
            begin = time.perf_counter()
            result = run_experiment(scale, view, variant, delay, seed, **kwargs)
            wall = time.perf_counter() - begin
            rows.append(
                {
                    "mode": mode,
                    "wall_s": round(wall, 3),
                    "updates_per_s": round(result.n_updates / wall, 1),
                    "wal_records": result.wal_records,
                    "checkpoints": result.checkpoints,
                    "n_recomputes": result.n_recomputes,
                    "cpu_fraction": round(result.cpu_fraction, 4),
                }
            )
    return rows


def obs_overhead_sweep(
    scale: Optional[Scale] = None,
    delay: float = 1.0,
    seed: int = 0,
    view: str = "comps",
    variant: str = "unique",
) -> list[dict]:
    """Real wall-clock cost of observability: the same experiment with the
    default :class:`~repro.obs.tracer.NullTracer`, a bare
    :class:`~repro.obs.tracer.TraceCollector`, and a collector with
    time-series sampling enabled.

    Like persistence, observability charges **no virtual CPU** — the
    collector only reads engine state, never calls ``db.charge`` — so the
    simulated results must be identical across modes; the price is real
    time per run, reported as wall-clock updates/second.
    """
    import time

    from repro.obs.tracer import TraceCollector

    scale = scale or bench_scale()
    modes = [
        ("null", lambda: None),
        ("collector", lambda: TraceCollector(sample_interval=0.0)),
        ("collector+ts", lambda: TraceCollector(sample_interval=1.0)),
    ]
    rows = []
    for mode, make_tracer in modes:
        tracer = make_tracer()
        begin = time.perf_counter()
        result = run_experiment(scale, view, variant, delay, seed, tracer=tracer)
        wall = time.perf_counter() - begin
        events = len(tracer.events) if tracer is not None else 0
        samples = (
            len(tracer.timeseries.samples)
            if tracer is not None and tracer.timeseries is not None
            else 0
        )
        rows.append(
            {
                "mode": mode,
                "wall_s": round(wall, 3),
                "updates_per_s": round(result.n_updates / wall, 1),
                "events": events,
                "samples": samples,
                "n_recomputes": result.n_recomputes,
                "cpu_fraction": round(result.cpu_fraction, 4),
                "end_time": round(result.end_time, 6),
            }
        )
    return rows


def dred_sweep(
    delete_mix: float = 0.4,
    n_events: int = 400,
    seed: int = 0,
    faults: Optional[str] = None,
) -> list[dict]:
    """The deletion-heavy workload under each maintenance strategy.

    One :func:`~repro.pta.workload.run_deletion_experiment` per strategy
    (identical event schedule), reporting the derived-row work per base
    deletion in virtual terms plus the real wall-clock of each run.  The
    convergence oracle verdict rides along so the bench doubles as a
    correctness gate.
    """

    def strategy_row(strategy: str) -> dict:
        result = run_deletion_experiment(
            n_events=n_events,
            delete_mix=delete_mix,
            maintenance=strategy,
            seed=seed,
            faults=faults,
        )
        return {
            "maintenance": strategy,
            "n_deletions": result.n_deletions,
            "rows_touched": result.rows_touched,
            "rows_per_deletion": round(result.rows_touched_per_deletion, 2),
            "overdeleted": result.rows_overdeleted,
            "rederived": result.rows_rederived,
            "full_recomputes": result.full_recomputes,
            "superseded": result.superseded,
            "cpu_maint_s": round(result.cpu_maintenance, 4),
            "virtual_end_s": round(result.end_time, 2),
            "wall_s": round(result.wall_s, 3),
            "oracle_divergent": result.oracle_divergent,
            "oracle_rows": result.oracle_rows,
        }

    return _cached(
        ("dred", delete_mix, n_events, seed, faults),
        lambda: [
            strategy_row(strategy)
            for strategy in ("incremental", "dred", "recompute")
        ],
    )


def option_symbol_probe(
    scale: Optional[Scale] = None, delay: float = 1.0, seed: int = 0
) -> ExperimentResult:
    """One ``unique on option_symbol`` run (the excluded configuration)."""
    scale = scale or bench_scale()
    return run_experiment(scale, "options", "on_option", delay, seed)


def series_of(
    results: Sequence[ExperimentResult], metric: str
) -> dict[str, list[tuple[float, float]]]:
    """Extract {variant: [(delay, value)]} curves for one metric."""
    curves: dict[str, list[tuple[float, float]]] = {}
    for result in results:
        value = getattr(result, metric)
        if callable(value):  # pragma: no cover - properties only
            value = value()
        curves.setdefault(result.variant, []).append((result.delay, float(value)))
    for points in curves.values():
        points.sort()
    return curves
