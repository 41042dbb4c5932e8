"""The PTA experiments on one database (paper sections 4 and 5), as specs.

Two transaction types run, exactly as in the paper's evaluation: update
transactions (one per quote in the trace, released at the quote's time) and
the recomputation transactions the rules trigger.  Everything executes in
virtual time on the single-server simulator.  :data:`VIEW` reads the three
quantities the paper plots —

* ``cpu_fraction`` — maintenance CPU (recompute tasks **plus** the rule-
  processing overhead inside update transactions, measured against a
  no-rules baseline) as a fraction of the trace duration (Figures 9/12);
* ``n_recomputes`` — N_r, the number of recompute transactions (10/13);
* ``mean_recompute_length`` — mean system time minus queueing (11/14).

:data:`CASCADE` is the comps view plus the sector rule over it;
:data:`DELETION` is the deletion-heavy portfolio.  Each is a
:class:`~repro.pta.scaffold.Spec`: run one with ``VIEW.run(scale=...,
variant=..., delay=...)``.  The replicated and networked specs live in
:mod:`repro.pta.distributed`.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable, Optional, Sequence

from repro.database import Database
from repro.errors import SimulationError
from repro.io.feed import FeedRecord, ImportFeed, quote_feed
from repro.obs.tracer import TraceCollector
from repro.pta.rules import install_comp_rule, install_option_rule, install_sector_rule
from repro.pta.scaffold import (
    FAULT_OPTIONS,
    OUTCOME,
    RUN_OPTIONS,
    ExperimentRun,
    Metric,
    Result,
    Spec,
    outcome,
)
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


# --------------------------------------------------------------------------
# Quotes in, one view (or a view and the sectors over it) maintained
# --------------------------------------------------------------------------


def _play_quotes(run: ExperimentRun, options: dict) -> dict:
    """Populate from the trace, install the view's rule — and, when the
    spec has a ``sector_delay``, the sector rule over the composites —
    replay the quotes, finish.  The oracle runs for a faulted run, or as
    the ``oracle`` option says."""
    db, o = run.db, options
    install_rule = view_rule(o.get("view", "comps"))
    _trace, events = populate_trace(db, o["scale"], o["seed"], o.get("trace_kwargs"))
    state = dict(events=events, function=install_rule(db, o["variant"], o["delay"], compact=o["compact"]))
    if "sector_delay" in o:  # stratum 2: sector indexes over composite indexes
        populate_sectors(db, o["scale"], seed=o["seed"])
        state["sector_function"] = install_sector_rule(db, o["sector_delay"], compact=o["compact"])
    run.run(trace_tasks(db, events, o.get("update_deadline")))
    run.finish(oracle=o.get("oracle", bool(o["faults"])))
    collector = db.tracer if isinstance(db.tracer, TraceCollector) else None
    state["collector"] = collector
    state["histograms"] = collector.rollup().histograms if collector is not None else None
    return state


def _recomputes(attribute: str) -> Callable[[Result], int]:
    """N_r of the rule whose function the play handed back as ``attribute``."""
    return lambda r: r.run.db.metrics.count(f"recompute:{getattr(r, attribute)}")


def _summary(r: Result):
    return r.run.db.metrics.by_class.get(f"recompute:{r.function}")


def _compacted(r: Result) -> bool:
    return r.compact


def _histogram(name: str) -> Callable[[Result], Optional[dict]]:
    return lambda r: r.histograms[name].snapshot() if r.histograms else None


def _rounded(places: int) -> Callable[[float], float]:
    return lambda value: round(value, places)


N_UPDATES = Metric("n_updates", lambda r: len(r.events), "n_updates")
END_TIME = Metric("end_time", lambda r: r.run.db.clock.base)  # when the last task finished
RULE_FIRINGS = Metric("rule_firings", lambda r: r.run.db.rule_engine.firing_count)
#: Firings absorbed into pending unique tasks.
BATCHED = Metric("batched_firings", lambda r: r.run.db.unique_manager.batch_count, "batched_firings")
#: The ``compact on`` fast path; its columns only appear for compacted runs.
COMPACTION = (
    Metric("compact"),
    Metric("compact_rows_in", lambda r: r.run.db.unique_manager.compact_rows_in),
    Metric(
        "compaction_ratio",  # rows folded away per surviving row
        lambda r: r.compact_rows_in / max(r.compact_rows_out, 1)
        if r.compact and r.compact_rows_in
        else 1.0,
        "compaction_ratio", _rounded(2), _compacted,
    ),
    Metric(  # rows the recompute tasks actually saw
        "compact_rows_out", lambda r: r.run.db.unique_manager.compact_rows_out,
        "recomputed_rows", when=_compacted,
    ),
)

#: One view maintained off the quote stream: Figures 9-11 (``view="comps"``)
#: and 12-14 (``"options"``).  ``variant`` is the batching unit
#: (``nonunique``, ``unique``, ``on_symbol``, ``on_comp`` / ``on_option``),
#: ``delay`` the ``after`` window, ``compact`` the ``compact on`` fast path
#: (requires a unique variant), ``trace_kwargs`` reshape the trace,
#: ``update_deadline`` gives each update a relative deadline (EDF).  Takes
#: every :class:`~repro.pta.scaffold.ExperimentRun` option; the oracle runs
#: when the run is faulted.
VIEW = Spec(
    "a single-view experiment",
    params=dict(
        scale=Scale.tiny(), view="comps", variant="unique", delay=1.0, seed=0,
        compact=False, trace_kwargs=None, update_deadline=None,
    ),
    takes=frozenset(RUN_OPTIONS),
    play=_play_quotes,
    metrics=(
        Metric("view", column="view"),
        Metric("variant", column="variant"),
        Metric("delay", column="delay_s"),
        Metric("cpu_fraction", lambda r: r.maintenance_cpu / r.duration, "cpu_fraction", _rounded(4)),
        Metric("n_recomputes", _recomputes("function"), "n_recomputes"),
        Metric(  # seconds of system time minus queueing
            "mean_recompute_length",
            lambda r: r.run.db.metrics.mean_length(f"recompute:{r.function}"),
            "mean_length_ms", lambda value: round(value * 1e3, 4),
        ),
        BATCHED,
        N_UPDATES,
        *COMPACTION,
        Metric("scale"),
        Metric("seed"),
        Metric("duration", lambda r: r.scale.duration),
        Metric("cpu_update", lambda r: r.run.db.metrics.total_cpu("update")),
        Metric("cpu_recompute", lambda r: r.run.db.metrics.total_cpu(f"recompute:{r.function}")),
        Metric(  # what update tasks would cost with no rules
            "cpu_baseline_update",
            lambda r: _baseline_update_cpu(
                r.scale, r.seed, r.options["cost_model"], r.options["trace_kwargs"]
            ),
        ),
        Metric(  # the recompute tasks plus the rule overhead inside the updates
            "maintenance_cpu",
            lambda r: r.cpu_recompute + max(r.cpu_update - r.cpu_baseline_update, 0.0),
        ),
        Metric(  # seconds, queueing included
            "mean_recompute_response",
            lambda r: r.run.db.metrics.mean_response(f"recompute:{r.function}"),
        ),
        RULE_FIRINGS,
        Metric("total_bound_rows", lambda r: _summary(r).total_bound_rows if _summary(r) else 0),
        Metric("context_switches", lambda r: _summary(r).total_context_switches if _summary(r) else 0),
        END_TIME,
        Metric("dropped_tasks", lambda r: r.run.simulator.dropped),  # firm-deadline drops
        # From the trace collector (None without one): rows per recompute
        # batch at start, queue depth at each enqueue, per-rule attribution.
        Metric("batch_size_hist", _histogram("batch_size_rows")),
        Metric("queue_depth_hist", _histogram("queue_depth")),
        Metric(
            "attribution",
            lambda r: r.collector.attribution().profile_rows() if r.collector else None,
        ),
        *OUTCOME,
    ),
)

#: The two-level scenario, quotes -> composites -> sectors: the comps view
#: plus the sector rule (stratum 2), which triggers on the composite rule's
#: own writes.  Every sector task is a cascade: it inherits the originating
#: quotes' staleness stamps and is released only after same-batch stratum-1
#: work has quiesced.  With ``oracle`` (default) the convergence oracle
#: recomputes both levels bottom-up from ``stocks``.
CASCADE = Spec(
    "a cascade experiment",
    params=dict(
        scale=Scale.tiny(), variant="unique", delay=1.0, sector_delay=1.0, seed=0,
        compact=False, oracle=True,
    ),
    takes=frozenset(RUN_OPTIONS) - {"processors", "drop_late", "keep_records"},
    play=_play_quotes,
    metrics=(
        Metric("variant", column="variant"),  # the composite rule's batching unit
        Metric("delay", column="delay_s"),
        Metric("sector_delay", column="sector_delay_s"),
        N_UPDATES,
        Metric("n_comp_recomputes", _recomputes("function"), "comp_recomputes"),
        Metric("n_sector_recomputes", _recomputes("sector_function"), "sector_recomputes"),
        # releases deferred by the stratum gate
        Metric("tasks_held", lambda r: r.run.db.task_manager.held_count, "tasks_held"),
        Metric("max_stratum", lambda r: r.run.db.max_stratum(), "max_stratum"),
        replace(END_TIME, column="virtual_end_s", show=_rounded(2)),
        *COMPACTION,
        Metric("scale"),
        Metric("seed"),
        RULE_FIRINGS,
        replace(BATCHED, column=None),
        *OUTCOME,
    ),
)


# --------------------------------------------------------------------------
# Deletion-heavy variant: position close-outs and index delistings
# --------------------------------------------------------------------------


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


def _play_deletions(run: ExperimentRun, options: dict) -> dict:
    """A lean portfolio schema — ``stocks(symbol, price)`` and
    ``positions(pos_id, symbol, shares)`` — feeding two materialized views,
    then the seeded event stream (:func:`make_deletion_events`)."""
    from repro.views.maintain import materialize

    db, o = run.db, options
    db.execute("create table stocks (symbol text, price real)")
    db.execute("create table positions (pos_id text, symbol text, shares real)")
    rng = random.Random(o["seed"] + 1)
    txn = db.begin()
    for i in range(o["n_symbols"]):
        txn.insert("stocks", {"symbol": f"S{i}", "price": round(rng.uniform(10.0, 200.0), 2)})
        for j in range(o["positions_per_symbol"]):
            shares = float(rng.randrange(1, 100))
            txn.insert("positions", {"pos_id": f"P{i}_{j}", "symbol": f"S{i}", "shares": shares})
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
    plans = {
        "position_values": materialize(
            db, "position_values", unique=True, delay=o["delay"], key=("pos_id",),
            maintenance=o["maintenance"], delete_fraction=o["delete_mix"],
        ),
        "symbol_exposure": materialize(
            db, "symbol_exposure", unique=True, unique_on=("symbol",), delay=o["delay"],
            maintenance=o["maintenance"], delete_fraction=o["delete_mix"],
        ),
    }
    events = make_deletion_events(
        o["n_symbols"], o["positions_per_symbol"], o["n_events"], o["duration"],
        o["delete_mix"], o["seed"],
    )
    superseded: list = []
    tasks = []
    quotes = _listed_quote_feed(db)
    exposure_function = plans["symbol_exposure"].function_name
    for event in events:
        kind, t = event[0], event[1]
        if kind == "update":
            tasks.append(_update_task(quotes, t, event[2], event[3]))
            continue
        if kind == "open":
            body = _make_open_body(db, event[2], event[3], event[4])
        elif kind == "close":
            body = _make_closeout_body(db, event[2])
        else:
            body = _make_delist_body(db, event[2], exposure_function, superseded)
        tasks.append(
            Task(body=body, klass=kind, release_time=t, created_time=t, value=10.0,
                 estimated_cpu=200e-6)
        )
    run.run(tasks)
    run.finish(oracle=o["oracle"])
    return dict(events=events, plans=plans, delisted=superseded)


def _events(kind: str) -> Callable[[Result], int]:
    return lambda r: sum(1 for event in r.events if event[0] == kind)


def _stats(name: str) -> Callable[[Result], int]:
    """One maintenance counter, summed over both views."""
    return lambda r: sum(getattr(plan.stats, name) for plan in r.plans.values())


#: The deletion-heavy PTA variant.  ``position_values`` is a projection join
#: (one derived row per open position), coarse-batched; ``symbol_exposure``
#: a sum aggregate over the same join, batched per symbol (``unique on
#: symbol``, which both delta tables carry, so dispatch uses union
#: partitioning).  The event stream mixes price updates with position
#: close-outs and index delistings (``delete_mix`` deletions overall, a
#: quarter of those delistings).  A delisting deletes the stock, its
#: positions and the derived rows in the same transaction, then supersedes
#: the pending per-symbol maintenance task — the deletion IS the reflection.
#: ``maintenance`` is the strategy override threaded to
#: :func:`repro.views.maintain.materialize` for both views (``auto``
#: consults the advisor with ``delete_fraction=delete_mix``).  With
#: ``oracle`` (default) the convergence oracle recomputes both views from
#: the surviving base rows.
DELETION = Spec(
    "a deletion-heavy experiment",
    params=dict(
        n_symbols=20, positions_per_symbol=5, n_events=400, duration=60.0,
        delete_mix=0.4, maintenance="auto", delay=1.0, seed=0, oracle=True,
    ),
    takes=FAULT_OPTIONS | {"cost_model", "tracer"},
    play=_play_deletions,
    metrics=(
        Metric("maintenance", column="maintenance"),  # the requested strategy
        Metric(  # view name -> resolved strategy
            "strategies",
            lambda r: {name: plan.maintenance for name, plan in r.plans.items()},
            "strategies", lambda strategies: "/".join(strategies[n] for n in sorted(strategies)),
        ),
        Metric("delete_mix", column="delete_mix"),
        Metric("n_deletions", lambda r: r.n_closeouts + r.n_delists, "n_deletions"),
        Metric("rows_touched", _stats("rows_touched"), "rows_touched"),  # every derived-row write
        Metric(  # derived-row writes per base deletion
            "rows_touched_per_deletion",
            lambda r: r.rows_touched / max(r.n_deletions, 1),
            "rows_per_deletion", _rounded(2),
        ),
        Metric("rows_overdeleted", _stats("rows_overdeleted"), "overdeleted"),
        Metric("rows_rederived", _stats("rows_rederived"), "rederived"),
        Metric("full_recomputes", _stats("full_recomputes"), "full_recomputes"),
        # pending tasks retired because a delisting mooted them
        Metric("superseded", lambda r: len(r.delisted), "superseded"),
        Metric(  # CPU seconds in the view-maintenance tasks
            "cpu_maintenance",
            lambda r: sum(
                r.run.db.metrics.total_cpu(f"recompute:{plan.function_name}")
                for plan in r.plans.values()
            ),
            "cpu_maint_s", _rounded(4),
        ),
        replace(END_TIME, column="virtual_end_s", show=_rounded(2)),
        Metric("delay"),
        Metric("seed"),
        Metric("n_events", lambda r: len(r.events)),
        Metric("n_updates", _events("update")),
        Metric("n_opens", _events("open")),
        Metric("n_closeouts", _events("close")),
        Metric("n_delists", _events("delist")),
        Metric("n_maintenance_tasks", _stats("tasks")),
        Metric("deletions_seen", _stats("deletions_seen")),  # base deletions maintenance processed
        Metric("keys_marked", _stats("keys_marked")),  # overdeletion candidates (DRed)
        Metric(  # CPU seconds in the event-stream tasks
            "cpu_update",
            lambda r: sum(
                r.run.db.metrics.total_cpu(kind) for kind in ("update", "open", "close", "delist")
            ),
        ),
        # this table reports retries only
        *outcome("faults_injected", "fault_retries", "oracle_divergent", "wal_records", "checkpoints"),
    ),
)


#: The paper sweeps the delay window from 0.5 to 3 seconds (section 5.1).
DELAYS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)

#: The rule variants each figure family plots (the paper leaves ``unique on
#: option_symbol`` out: an unmanageable number of transactions).
FIGURE_VARIANTS = {
    "comps": ("nonunique", "unique", "on_symbol", "on_comp"),
    "options": ("nonunique", "unique", "on_symbol"),
}


def paper_grid(variants: Sequence[str], delays: Sequence[float]) -> list[dict]:
    """The paper's experiment grid as option sets: every (variant, delay)
    combination.  Non-unique variants run once, at delay 0 (the delay axis
    does not apply)."""
    return [
        dict(variant=variant, delay=delay)
        for variant in variants
        for delay in ((0.0,) if variant == "nonunique" else delays)
    ]
