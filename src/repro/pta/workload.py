"""Drive a full PTA experiment (paper sections 4 and 5).

Two transaction types run, exactly as in the paper's evaluation: update
transactions (one per quote in the trace, released at the quote's time) and
the recomputation transactions the rules trigger.  Everything executes in
virtual time on the single-server simulator; the returned
:class:`ExperimentResult` carries the three quantities the paper plots —

* ``cpu_fraction`` — maintenance CPU (recompute tasks **plus** the rule-
  processing overhead inside update transactions, measured against a
  no-rules baseline) as a fraction of the trace duration (Figures 9/12);
* ``n_recomputes`` — N_r, the number of recompute transactions (10/13);
* ``mean_recompute_length`` — mean system time minus queueing (11/14).

Every driver — the three here and the replicated / networked / crash
ones in :mod:`repro.pta.distributed` — runs on the
:class:`~repro.pta.scaffold.ExperimentRun` scaffold and supplies only what
is its own: tables and rules, the arrival stream, workload metrics.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from repro.database import Database
from repro.errors import SimulationError
from repro.io.feed import FeedRecord, ImportFeed, quote_feed
from repro.obs.tracer import TraceCollector, Tracer
from repro.pta.rules import install_comp_rule, install_option_rule, install_sector_rule
from repro.pta.scaffold import ExperimentRun, RunOutcome
from repro.pta.tables import Scale, populate, populate_sectors
from repro.pta.trace import QuoteEvent, TaqTraceGenerator
from repro.sim.costmodel import CostModel
from repro.sim.simulator import Simulator
from repro.txn.tasks import Task

#: Shared trace cache so a sweep over variants/delays reuses one trace.
_TRACE_CACHE: dict[tuple, tuple[TaqTraceGenerator, list[QuoteEvent]]] = {}
#: Per-update CPU of a rule-free run, used to isolate maintenance overhead.
_BASELINE_CACHE: dict[tuple, float] = {}


def get_trace(
    scale: Scale, seed: int = 0, trace_kwargs: Optional[dict] = None
) -> tuple[TaqTraceGenerator, list[QuoteEvent]]:
    """The (cached) trace for one scale/seed, shared across a sweep."""
    kwargs = dict(trace_kwargs or {})
    key = (scale, seed, tuple(sorted(kwargs.items())))
    cached = _TRACE_CACHE.get(key)
    if cached is None:
        trace = scale.make_trace(seed=seed, **kwargs)
        cached = _TRACE_CACHE[key] = (trace, trace.generate())
    return cached


def clear_caches() -> None:
    """Drop the trace and baseline caches (tests / ablations)."""
    _TRACE_CACHE.clear()
    _BASELINE_CACHE.clear()


@dataclass
class ExperimentResult(RunOutcome):
    """Everything one experiment run produced."""

    view: str
    variant: str
    delay: float
    scale: Scale
    seed: int
    n_updates: int
    n_recomputes: int
    cpu_update: float  # CPU seconds spent in update tasks
    cpu_recompute: float  # CPU seconds spent in recompute tasks
    cpu_baseline_update: float  # what update tasks would cost with no rules
    mean_recompute_length: float  # seconds (system time minus queueing)
    mean_recompute_response: float  # seconds (includes queueing)
    batched_firings: int  # firings absorbed into pending unique tasks
    rule_firings: int
    total_bound_rows: int
    context_switches: int
    end_time: float  # virtual time when the last task finished
    dropped_tasks: int = 0  # firm-deadline drops (only with drop_late)
    compact: bool = False  # the rule ran with the delta-compaction fast path
    compact_rows_in: int = 0  # rows that entered compacted bound tables
    compact_rows_out: int = 0  # rows the recompute tasks actually saw
    #: Histogram snapshots from the trace collector (None without tracing):
    #: rows per recompute batch at start, and queue depth at each enqueue.
    batch_size_hist: Optional[dict] = None
    queue_depth_hist: Optional[dict] = None
    #: Per-rule cost attribution rows (None without a collector).
    attribution: Optional[list] = None

    @property
    def duration(self) -> float:
        return self.scale.duration

    @property
    def maintenance_cpu(self) -> float:
        """CPU attributable to derived-data maintenance: the recompute tasks
        plus the rule-processing overhead inside the update transactions."""
        overhead = max(self.cpu_update - self.cpu_baseline_update, 0.0)
        return self.cpu_recompute + overhead

    @property
    def cpu_fraction(self) -> float:
        """The Figure 9/12 y-axis."""
        return self.maintenance_cpu / self.duration

    @property
    def compaction_ratio(self) -> float:
        """Rows folded away per surviving row (1.0 when compaction is off
        or nothing folded)."""
        if not self.compact or self.compact_rows_in == 0:
            return 1.0
        return self.compact_rows_in / max(self.compact_rows_out, 1)

    def row(self) -> dict[str, object]:
        """A flat dict for report tables.  Compaction columns only appear
        for compacted runs, so compaction-off reports are unchanged."""
        out: dict[str, object] = {
            "view": self.view,
            "variant": self.variant,
            "delay_s": self.delay,
            "cpu_fraction": round(self.cpu_fraction, 4),
            "n_recomputes": self.n_recomputes,
            "mean_length_ms": round(self.mean_recompute_length * 1e3, 4),
            "batched_firings": self.batched_firings,
            "n_updates": self.n_updates,
        }
        if self.compact:
            out["compaction_ratio"] = round(self.compaction_ratio, 2)
            out["recomputed_rows"] = self.compact_rows_out
        out.update(self.outcome_row())
        return out


def _update_task(feed: ImportFeed, time: float, symbol: str, price: float) -> Task:
    """One quote as an update task: the feed's Table 1 simple-update path,
    with the value and CPU estimate the EDF/VDF policies order by."""
    task = feed.task_for(FeedRecord(time, (symbol, price)))
    task.value = 10.0
    task.estimated_cpu = 200e-6
    return task


def trace_tasks(
    db: Database,
    events: Sequence[QuoteEvent],
    update_deadline: Optional[float] = None,
) -> list[Task]:
    """Update-stream tasks, handed to the simulator as an arrivals stream
    (the market feed enters the system over time, not as a preloaded queue;
    the paper excludes feed handling from its measurements, section 4.1).

    ``update_deadline`` gives each update task a relative deadline — only
    meaningful under the EDF scheduling policy (ablation experiments)."""
    feed = quote_feed(db)
    feed.deadline = update_deadline
    return [_update_task(feed, event.time, event.symbol, event.price) for event in events]


def populate_trace(
    db: Database, scale: Scale, seed: int = 0, trace_kwargs: Optional[dict] = None
) -> tuple[TaqTraceGenerator, list[QuoteEvent]]:
    """Populate the six PTA tables from the (cached) trace; returns it."""
    trace, events = get_trace(scale, seed, trace_kwargs)
    populate(db, scale, trace, events, seed)
    return trace, events


_VIEW_RULES = {"comps": install_comp_rule, "options": install_option_rule}


def view_rule(view: str) -> Callable[..., str]:
    """The rule installer maintaining ``view`` (Figures 9-11 / 12-14)."""
    if view not in _VIEW_RULES:
        raise ValueError(f"view must be 'comps' or 'options', got {view!r}")
    return _VIEW_RULES[view]


def _baseline_update_cpu(
    scale: Scale,
    seed: int,
    cost_model: Optional[CostModel],
    trace_kwargs: Optional[dict] = None,
) -> float:
    """Total update-task CPU of a run with **no rules installed**."""
    key = (scale, seed, cost_model, tuple(sorted((trace_kwargs or {}).items())))
    cached = _BASELINE_CACHE.get(key)
    if cached is not None:
        return cached
    db = Database(cost_model=cost_model)
    db.metrics.set_keep_records(False)
    _trace, events = populate_trace(db, scale, seed, trace_kwargs)
    Simulator(db).run(arrivals=trace_tasks(db, events))
    total = db.metrics.total_cpu("update")
    _BASELINE_CACHE[key] = total
    return total


def run_experiment(
    scale: Scale,
    view: str = "comps",
    variant: str = "unique",
    delay: float = 1.0,
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
    policy: str = "fifo",
    processors: int = 1,
    drop_late: bool = False,
    keep_records: bool = False,
    db_out: Optional[list] = None,
    trace_kwargs: Optional[dict] = None,
    update_deadline: Optional[float] = None,
    tracer: Optional[Tracer] = None,
    compact: bool = False,
    faults: Optional[str] = None,
    fault_seed: int = 0,
    max_retries: int = 5,
    retry_backoff: float = 0.25,
    wal_dir: Optional[str] = None,
    checkpoint_every: Optional[float] = None,
    wal_sync: bool = False,
) -> ExperimentResult:
    """Run one full PTA experiment and collect the paper's metrics.

    Args:
        scale: workload dimensions (:meth:`Scale.paper` for the full setup).
        view: ``"comps"`` (Figures 9-11) or ``"options"`` (Figures 12-14).
        variant: batching unit — ``nonunique``, ``unique``, ``on_symbol``,
            or the per-derived-key unit (``on_comp`` / ``on_option``).
        delay: the ``after`` window in seconds (ignored for ``nonunique``).
        compact: run the rule with the delta-compaction fast path
            (``compact on`` the view's derived key; requires a unique
            variant).  Off by default — the paper's rules carry every
            firing's rows to the action transaction.
        cost_model: override the Table-1-calibrated defaults (ablations).
        policy: task scheduling policy (``fifo`` / ``edf`` / ``vdf``).
        processors: simulated server-pool size (start-time assignment).
        drop_late: firm-deadline policy — drop tasks already past their
            deadline instead of running them.
        keep_records: retain per-task records (large runs: keep False).
        db_out: if given, the Database is appended for post-hoc inspection.
        tracer: an observability hook (e.g. a
            :class:`~repro.obs.tracer.TraceCollector`); when it is a
            collector, the result carries batch/queue histogram snapshots.
        faults / fault_seed / max_retries / retry_backoff / wal_dir /
            checkpoint_every / wal_sync: fault injection and durability, as
            documented on :class:`~repro.pta.scaffold.ExperimentRun`.  With
            ``faults`` the convergence oracle checks every derived view
            after the queues drain.
    """
    install_rule = view_rule(view)
    run = ExperimentRun(
        cost_model=cost_model, policy=policy, processors=processors,
        drop_late=drop_late, keep_records=keep_records, tracer=tracer,
        faults=faults, fault_seed=fault_seed, max_retries=max_retries,
        retry_backoff=retry_backoff, wal_dir=wal_dir,
        checkpoint_every=checkpoint_every, wal_sync=wal_sync,
    )
    db = run.db
    _trace, events = populate_trace(db, scale, seed, trace_kwargs)
    function_name = install_rule(db, variant, delay, compact=compact)
    run.run(trace_tasks(db, events, update_deadline))
    outcome = run.finish(oracle=bool(faults))

    prefix = f"recompute:{function_name}"
    metrics = db.metrics
    summary = metrics.by_class.get(prefix)
    collector = tracer if isinstance(tracer, TraceCollector) else None
    histograms = collector.rollup().histograms if collector is not None else None
    result = ExperimentResult(
        view=view,
        variant=variant,
        delay=delay,
        scale=scale,
        seed=seed,
        n_updates=len(events),
        n_recomputes=metrics.count(prefix),
        cpu_update=metrics.total_cpu("update"),
        cpu_recompute=metrics.total_cpu(prefix),
        cpu_baseline_update=_baseline_update_cpu(scale, seed, cost_model, trace_kwargs),
        mean_recompute_length=metrics.mean_length(prefix),
        mean_recompute_response=metrics.mean_response(prefix),
        batched_firings=db.unique_manager.batch_count,
        rule_firings=db.rule_engine.firing_count,
        total_bound_rows=summary.total_bound_rows if summary else 0,
        context_switches=summary.total_context_switches if summary else 0,
        end_time=db.clock.base,
        dropped_tasks=run.simulator.dropped,
        compact=compact,
        compact_rows_in=db.unique_manager.compact_rows_in,
        compact_rows_out=db.unique_manager.compact_rows_out,
        batch_size_hist=histograms["batch_size_rows"].snapshot() if histograms else None,
        queue_depth_hist=histograms["queue_depth"].snapshot() if histograms else None,
        attribution=collector.attribution().profile_rows() if collector else None,
        **vars(outcome),
    )
    if db_out is not None:
        db_out.append(db)
    return result


# --------------------------------------------------------------------------
# Multi-level (cascade) variant: sector indexes over composite indexes
# --------------------------------------------------------------------------


@dataclass
class CascadeExperimentResult(RunOutcome):
    """Metrics of one two-level run (:func:`run_cascade_experiment`)."""

    variant: str  # the composite rule's batching unit
    delay: float  # the composite rule's after window
    sector_delay: float  # the sector rule's after window
    scale: Scale
    seed: int
    n_updates: int
    n_comp_recomputes: int  # stratum-1 recompute transactions
    n_sector_recomputes: int  # stratum-2 (cascade) recompute transactions
    rule_firings: int
    batched_firings: int
    tasks_held: int  # releases deferred by the stratum gate
    max_stratum: int
    end_time: float
    compact: bool = False
    compact_rows_in: int = 0  # rows that entered compacted bound tables
    compact_rows_out: int = 0  # rows the recompute tasks actually saw

    @property
    def compaction_ratio(self) -> float:
        if not self.compact or self.compact_rows_in == 0:
            return 1.0
        return self.compact_rows_in / max(self.compact_rows_out, 1)

    def row(self) -> dict[str, object]:
        out: dict[str, object] = {
            "variant": self.variant,
            "delay_s": self.delay,
            "sector_delay_s": self.sector_delay,
            "n_updates": self.n_updates,
            "comp_recomputes": self.n_comp_recomputes,
            "sector_recomputes": self.n_sector_recomputes,
            "tasks_held": self.tasks_held,
            "max_stratum": self.max_stratum,
            "virtual_end_s": round(self.end_time, 2),
        }
        if self.compact:
            out["compaction_ratio"] = round(self.compaction_ratio, 2)
            out["recomputed_rows"] = self.compact_rows_out
        out.update(self.outcome_row())
        return out


def run_cascade_experiment(
    scale: Scale,
    variant: str = "unique",
    delay: float = 1.0,
    sector_delay: float = 1.0,
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
    policy: str = "fifo",
    tracer: Optional[Tracer] = None,
    compact: bool = False,
    oracle: bool = True,
    faults: Optional[str] = None,
    fault_seed: int = 0,
    max_retries: int = 5,
    retry_backoff: float = 0.25,
    wal_dir: Optional[str] = None,
    checkpoint_every: Optional[float] = None,
    wal_sync: bool = False,
    db_out: Optional[list] = None,
) -> CascadeExperimentResult:
    """Run the two-level PTA scenario: quotes -> composites -> sectors.

    A composite rule (stratum 1) maintains ``comp_prices`` off the quote
    stream; the sector rule (stratum 2) triggers on the composite rule's
    own writes and maintains ``sector_prices``.  Every sector task is a
    cascade: it inherits the originating quotes' staleness stamps and is
    released only after same-batch stratum-1 work has quiesced.  With
    ``oracle`` on (default), the convergence oracle recomputes both
    levels bottom-up from ``stocks`` after the queues drain."""
    run = ExperimentRun(
        cost_model=cost_model, policy=policy, tracer=tracer,
        faults=faults, fault_seed=fault_seed, max_retries=max_retries,
        retry_backoff=retry_backoff, wal_dir=wal_dir,
        checkpoint_every=checkpoint_every, wal_sync=wal_sync,
    )
    db = run.db
    _trace, events = populate_trace(db, scale, seed)
    comp_function = install_comp_rule(db, variant, delay, compact=compact)
    populate_sectors(db, scale, seed=seed)
    sector_function = install_sector_rule(db, sector_delay, compact=compact)
    run.run(trace_tasks(db, events))
    outcome = run.finish(oracle=oracle)

    metrics = db.metrics
    result = CascadeExperimentResult(
        variant=variant,
        delay=delay,
        sector_delay=sector_delay,
        scale=scale,
        seed=seed,
        n_updates=len(events),
        n_comp_recomputes=metrics.count(f"recompute:{comp_function}"),
        n_sector_recomputes=metrics.count(f"recompute:{sector_function}"),
        rule_firings=db.rule_engine.firing_count,
        batched_firings=db.unique_manager.batch_count,
        tasks_held=db.task_manager.held_count,
        max_stratum=db.max_stratum(),
        end_time=db.clock.base,
        compact=compact,
        compact_rows_in=db.unique_manager.compact_rows_in,
        compact_rows_out=db.unique_manager.compact_rows_out,
        **vars(outcome),
    )
    if db_out is not None:
        db_out.append(db)
    return result


# --------------------------------------------------------------------------
# Deletion-heavy variant: position close-outs and index delistings
# --------------------------------------------------------------------------


@dataclass
class DeletionExperimentResult(RunOutcome):
    """Metrics of one deletion-heavy run (:func:`run_deletion_experiment`)."""

    maintenance: str  # the requested strategy ("auto" included)
    strategies: dict[str, str]  # view name -> resolved strategy
    delay: float
    seed: int
    delete_mix: float
    n_events: int
    n_updates: int
    n_opens: int
    n_closeouts: int
    n_delists: int
    n_maintenance_tasks: int
    deletions_seen: int  # base deletions the maintenance rules processed
    keys_marked: int  # overdeletion candidates (DRed)
    rows_overdeleted: int
    rows_rederived: int
    rows_touched: int  # every derived-row write any strategy performed
    full_recomputes: int
    superseded: int  # pending tasks retired because a delisting mooted them
    cpu_update: float  # CPU seconds in the event-stream tasks
    cpu_maintenance: float  # CPU seconds in the view-maintenance tasks
    end_time: float
    wall_s: float

    @property
    def n_deletions(self) -> int:
        return self.n_closeouts + self.n_delists

    @property
    def rows_touched_per_deletion(self) -> float:
        """The tentpole metric: derived-row writes per base deletion."""
        return self.rows_touched / max(self.n_deletions, 1)

    def row(self) -> dict[str, object]:
        out: dict[str, object] = {
            "maintenance": self.maintenance,
            "strategies": "/".join(
                self.strategies[name] for name in sorted(self.strategies)
            ),
            "delete_mix": self.delete_mix,
            "n_deletions": self.n_deletions,
            "rows_touched": self.rows_touched,
            "rows_per_deletion": round(self.rows_touched_per_deletion, 2),
            "overdeleted": self.rows_overdeleted,
            "rederived": self.rows_rederived,
            "full_recomputes": self.full_recomputes,
            "superseded": self.superseded,
            "cpu_maint_s": round(self.cpu_maintenance, 4),
            "virtual_end_s": round(self.end_time, 2),
        }
        out.update(self.outcome_row())
        out.pop("fault_drops", None)  # this table reports retries only
        return out


def _listed_quote_feed(db: Database) -> ImportFeed:
    """The quote feed for a run that delists symbols: a faulted update can
    be retried past its symbol's delisting and then has nothing left to do,
    where the market feed proper treats an unknown symbol as a feed error."""
    feed = quote_feed(db)
    apply_quote = feed.handler

    def handler(txn, payload) -> None:
        try:
            apply_quote(txn, payload)
        except SimulationError:
            db.charge("cursor_close")  # the cursor the failed lookup left open

    feed.handler = handler
    return feed


def _make_open_body(db: Database, pos_id: str, symbol: str, shares: float):
    """Open a fresh position (keeps deletion-heavy runs from draining)."""

    def body(task: Task) -> None:
        with db.begin(task) as txn:
            db.charge("cursor_open")
            txn.insert(
                "positions", {"pos_id": pos_id, "symbol": symbol, "shares": shares}
            )
            db.charge("cursor_close")

    return body


def _make_closeout_body(db: Database, pos_id: str):
    """Close one position: delete its row, maintenance reflects the rest."""

    def body(task: Task) -> None:
        with db.begin(task) as txn:
            positions = db.catalog.table("positions")
            db.charge("cursor_open")
            db.charge("index_probe")
            record = positions.get_one("pos_id", pos_id)
            db.charge("cursor_fetch")
            if record is not None:
                txn.delete_record(positions, record)
            db.charge("cursor_close")

    return body


def _make_delist_body(
    db: Database, symbol: str, exposure_function: str, superseded: list
):
    """Delist a symbol: one transaction removes the stock, its positions,
    and the derived rows the application knows are doomed, then retires the
    now-moot pending exposure-maintenance task for that symbol."""

    def body(task: Task) -> None:
        with db.begin(task) as txn:
            stocks = db.catalog.table("stocks")
            positions = db.catalog.table("positions")
            position_values = db.catalog.table("position_values")
            exposure = db.catalog.table("symbol_exposure")
            db.charge("cursor_open")
            db.charge("index_probe")
            record = stocks.get_one("symbol", symbol)
            if record is not None:
                txn.delete_record(stocks, record)
            for doomed in list(positions.lookup(("symbol",), symbol)):
                db.charge("cursor_fetch")
                txn.delete_record(positions, doomed)
            # The application purges the derived rows itself: the delisting
            # is definitive, there is nothing left to maintain for this symbol.
            for doomed in list(position_values.lookup(("symbol",), symbol)):
                db.charge("cursor_fetch")
                txn.delete_record(position_values, doomed)
            record = exposure.get_one("symbol", symbol)
            if record is not None:
                txn.delete_record(exposure, record)
            db.charge("cursor_close")
        if db.unique_manager.supersede(
            exposure_function, (symbol,), db.clock.now()
        ) is not None:
            superseded.append(symbol)

    return body


def make_deletion_events(
    n_symbols: int,
    positions_per_symbol: int,
    n_events: int,
    duration: float,
    delete_mix: float,
    seed: int,
) -> list[tuple]:
    """A seeded schedule of ``(kind, time, ...)`` events over live state.

    Kinds: ``("update", t, symbol, price)``, ``("close", t, pos_id)``,
    ``("delist", t, symbol)``, ``("open", t, pos_id, symbol, shares)``.
    Generation tracks which symbols/positions are still live so deletions
    always target existing rows (stragglers hitting already-deleted rows
    are still tolerated by the task bodies).  Delistings stop at half the
    symbol universe and a slice of the non-deletion events opens fresh
    positions, so the run stays deletion-heavy without draining the base
    tables to nothing (an empty end state would make the convergence
    oracle's pass vacuous).
    """
    rng = random.Random(seed)
    live_symbols = [f"S{i}" for i in range(n_symbols)]
    open_positions = [
        (f"P{i}_{j}", f"S{i}")
        for i in range(n_symbols)
        for j in range(positions_per_symbol)
    ]
    delist_floor = max(1, n_symbols // 2)
    opened = 0
    events: list[tuple] = []
    for k in range(n_events):
        t = (k + 1) * duration / n_events
        deleting = rng.random() < delete_mix
        if (
            deleting
            and rng.random() < 0.25  # a quarter of the deletions are delistings
            and len(live_symbols) > delist_floor
        ):
            symbol = live_symbols.pop(rng.randrange(len(live_symbols)))
            open_positions = [p for p in open_positions if p[1] != symbol]
            events.append(("delist", t, symbol))
        elif deleting and open_positions:
            pos_id, _symbol = open_positions.pop(rng.randrange(len(open_positions)))
            events.append(("close", t, pos_id))
        elif live_symbols and rng.random() < 0.55:
            symbol = live_symbols[rng.randrange(len(live_symbols))]
            pos_id = f"PX{opened}"
            opened += 1
            open_positions.append((pos_id, symbol))
            events.append(
                ("open", t, pos_id, symbol, float(rng.randrange(1, 100)))
            )
        elif live_symbols:
            symbol = live_symbols[rng.randrange(len(live_symbols))]
            events.append(("update", t, symbol, round(rng.uniform(10.0, 200.0), 2)))
    return events


def run_deletion_experiment(
    n_symbols: int = 20,
    positions_per_symbol: int = 5,
    n_events: int = 400,
    duration: float = 60.0,
    delete_mix: float = 0.4,
    maintenance: str = "auto",
    delay: float = 1.0,
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
    tracer: Optional[Tracer] = None,
    faults: Optional[str] = None,
    fault_seed: int = 0,
    max_retries: int = 5,
    retry_backoff: float = 0.25,
    oracle: bool = True,
    db_out: Optional[list] = None,
) -> DeletionExperimentResult:
    """The deletion-heavy PTA variant: close-outs and delistings.

    A lean portfolio schema — ``stocks(symbol, price)`` and
    ``positions(pos_id, symbol, shares)`` — feeds two materialized views:

    * ``position_values`` — a projection join (one derived row per open
      position), coarse-batched;
    * ``symbol_exposure`` — a sum aggregate over the same join, batched
      per symbol (``unique on symbol``, which both delta tables carry, so
      dispatch uses union partitioning).

    The event stream mixes price updates with position close-outs and
    index delistings (``delete_mix`` deletions overall, a quarter of those
    delistings).  A delisting deletes the stock, its positions,
    and the derived rows in the same transaction, then supersedes the
    pending per-symbol maintenance task — the deletion IS the reflection.

    ``maintenance`` is the strategy override threaded to
    :func:`repro.views.maintain.materialize` for both views (``auto``
    consults the advisor with ``delete_fraction=delete_mix``).  With
    ``oracle`` on (default), the convergence oracle recomputes both views
    from the surviving base rows after the queues drain.
    """
    from repro.views.maintain import materialize

    run = ExperimentRun(
        cost_model=cost_model, tracer=tracer, faults=faults, fault_seed=fault_seed,
        max_retries=max_retries, retry_backoff=retry_backoff,
    )
    db = run.db
    db.execute("create table stocks (symbol text, price real)")
    db.execute("create table positions (pos_id text, symbol text, shares real)")
    rng = random.Random(seed + 1)
    txn = db.begin()
    for i in range(n_symbols):
        txn.insert(
            "stocks",
            {"symbol": f"S{i}", "price": round(rng.uniform(10.0, 200.0), 2)},
        )
        for j in range(positions_per_symbol):
            txn.insert(
                "positions",
                {
                    "pos_id": f"P{i}_{j}",
                    "symbol": f"S{i}",
                    "shares": float(rng.randrange(1, 100)),
                },
            )
    txn.commit()
    db.execute(
        "create view position_values as "
        "select pos_id, positions.symbol as symbol, shares * price as value "
        "from positions, stocks where positions.symbol = stocks.symbol"
    )
    db.execute(
        "create view symbol_exposure as "
        "select positions.symbol as symbol, sum(shares * price) as exposure "
        "from positions, stocks where positions.symbol = stocks.symbol "
        "group by positions.symbol"
    )
    pv_plan = materialize(
        db, "position_values", unique=True, delay=delay, key=("pos_id",),
        maintenance=maintenance, delete_fraction=delete_mix,
    )
    se_plan = materialize(
        db, "symbol_exposure", unique=True, unique_on=("symbol",), delay=delay,
        maintenance=maintenance, delete_fraction=delete_mix,
    )

    events = make_deletion_events(
        n_symbols, positions_per_symbol, n_events, duration,
        delete_mix, seed,
    )
    superseded: list = []
    tasks = []
    n_updates = n_opens = n_closeouts = n_delists = 0
    quotes = _listed_quote_feed(db)
    for event in events:
        kind, t = event[0], event[1]
        if kind == "update":
            tasks.append(_update_task(quotes, t, event[2], event[3]))
            n_updates += 1
            continue
        if kind == "open":
            body = _make_open_body(db, event[2], event[3], event[4])
            n_opens += 1
        elif kind == "close":
            body = _make_closeout_body(db, event[2])
            n_closeouts += 1
        else:
            body = _make_delist_body(db, event[2], se_plan.function_name, superseded)
            n_delists += 1
        tasks.append(
            Task(
                body=body,
                klass=kind,
                release_time=t,
                created_time=t,
                value=10.0,
                estimated_cpu=200e-6,
            )
        )
    wall_start = time.perf_counter()
    run.run(tasks)
    wall_s = time.perf_counter() - wall_start
    outcome = run.finish(oracle=oracle)

    metrics = db.metrics
    plans = {"position_values": pv_plan, "symbol_exposure": se_plan}
    stats_total = {
        "tasks": 0, "deletions_seen": 0, "keys_marked": 0,
        "rows_overdeleted": 0, "rows_rederived": 0, "rows_touched": 0,
        "full_recomputes": 0,
    }
    for plan in plans.values():
        for name in stats_total:
            stats_total[name] += getattr(plan.stats, name)
    cpu_maintenance = sum(
        metrics.total_cpu(f"recompute:{plan.function_name}")
        for plan in plans.values()
    )
    result = DeletionExperimentResult(
        maintenance=maintenance,
        strategies={name: plan.maintenance for name, plan in plans.items()},
        delay=delay,
        seed=seed,
        delete_mix=delete_mix,
        n_events=len(events),
        n_updates=n_updates,
        n_opens=n_opens,
        n_closeouts=n_closeouts,
        n_delists=n_delists,
        n_maintenance_tasks=stats_total["tasks"],
        deletions_seen=stats_total["deletions_seen"],
        keys_marked=stats_total["keys_marked"],
        rows_overdeleted=stats_total["rows_overdeleted"],
        rows_rederived=stats_total["rows_rederived"],
        rows_touched=stats_total["rows_touched"],
        full_recomputes=stats_total["full_recomputes"],
        superseded=len(superseded),
        cpu_update=sum(
            metrics.total_cpu(kind)
            for kind in ("update", "open", "close", "delist")
        ),
        cpu_maintenance=cpu_maintenance,
        end_time=db.clock.base,
        wall_s=wall_s,
        **vars(outcome),
    )
    if db_out is not None:
        db_out.append(db)
    return result


#: The paper sweeps the delay window from 0.5 to 3 seconds (section 5.1).
DELAYS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)

#: The rule variants each figure family plots (the paper leaves ``unique on
#: option_symbol`` out: an unmanageable number of transactions).
FIGURE_VARIANTS = {
    "comps": ("nonunique", "unique", "on_symbol", "on_comp"),
    "options": ("nonunique", "unique", "on_symbol"),
}


def grid(
    variants: Sequence[str], delays: Sequence[float]
) -> Iterator[tuple[str, float]]:
    """The paper's experiment grid: every (variant, delay) combination.

    Non-unique variants run once, at delay 0 (the delay axis does not
    apply)."""
    for variant in variants:
        for delay in (0.0,) if variant == "nonunique" else delays:
            yield variant, delay


def sweep(
    scale: Scale,
    view: str,
    variants: Sequence[str],
    delays: Sequence[float],
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
) -> list[ExperimentResult]:
    """One :func:`run_experiment` per point of :func:`grid`."""
    return [
        run_experiment(scale, view, variant, delay, seed, cost_model)
        for variant, delay in grid(variants, delays)
    ]
