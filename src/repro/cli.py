"""Command-line interface: run the paper's experiments from a shell.

A subcommand's flags are generated from what it runs: the options of its
spec (:mod:`repro.pta`), the fields of the configs it builds and the
parameters of the objects it constructs.  A flag parses as its option's
default or annotation says; its parser default is None, so the option's own
default applies.  A flag the chosen path does not take — ``experiment``'s
single view, ``--cascade`` or ``--replicas``, ``serve``'s two transports —
is refused.
"""

from __future__ import annotations

import argparse
import asyncio
import inspect
import json
import os
import sys
import typing
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

from repro.bench.experiments import DEFAULT_FAULT_PLAN, grid, series_of
from repro.bench.reporting import format_series, format_table
from repro.database import Database
from repro.errors import InjectedCrashError
from repro.fault import ConvergenceReport, RetryPolicy, check_convergence
from repro.net import AdmissionConfig, LoadConfig, NetServer, ServerConfig
from repro.net.aio import AsyncNetServer
from repro.obs import (
    TimeSeriesSampler, TraceCollector, ensure_parent, export_trace, freshness_sections,
    sparkline, stats_report, stats_snapshot, write_series_jsonl,
)
from repro.pta.distributed import NETWORKED, REPLICATED, recover_run
from repro.pta.rules import install_comp_rule
from repro.pta.scaffold import RUN_OPTIONS, ExperimentRun, Metric, Spec
from repro.pta.tables import Scale
from repro.pta.workload import CASCADE, DELAYS, DELETION, FIGURE_VARIANTS, VIEW, paper_grid, populate_trace
from repro.replic import NetworkConfig
from repro.sim.costmodel import SIMPLE_UPDATE_PATH, TABLE1_US, CostModel
from repro.sim.simulator import Simulator

_FIGURES = {
    "9": ("comps", "cpu_fraction", "CPU fraction"),
    "10": ("comps", "n_recomputes", "N_r"),
    "11": ("comps", "mean_recompute_length", "mean recompute length (s)"),
    "12": ("options", "cpu_fraction", "CPU fraction"),
    "13": ("options", "n_recomputes", "N_r"),
    "14": ("options", "mean_recompute_length", "mean recompute length (s)"),
}


@dataclass(frozen=True)
class _CliOptions:
    """What the CLI reads beside the run: outputs, path selectors, sweeps."""

    trace_out: Optional[str] = None
    stats_out: Optional[str] = None
    obs: bool = False
    json_out: Optional[str] = None
    series_out: Optional[str] = None
    cascade: bool = False
    transport: str = "sim"
    delays: tuple = DELAYS
    plan: str = DEFAULT_FAULT_PLAN
    fault_seeds: tuple = (0, 1, 2)
    stats: bool = False
    limit: int = 20
    no_drain: bool = False


async def _listen(server: AsyncNetServer, what: str, duration: Optional[float] = None) -> None:
    """Serve real sockets for ``duration`` wall seconds (None: until interrupted)."""
    await server.start()
    print(f"listening on {server.host}:{server.port} {what}", flush=True)
    try:
        await asyncio.sleep(float("inf") if duration is None else duration)
    finally:
        await server.close()


#: One help line per flag, keyed by the option it sets.  A spec, config or
#: callable a path runs gives a flag for each of its options named here.
_HELP = {
    "view": "the derived view: comps (Figures 9-11) or options (12-14)",
    "variant": "the rule variant, i.e. the unit of batching",
    "delay": "the rule's after window in virtual seconds",
    "scale": "workload size: paper, small, tiny or a float factor of paper",
    "seed": "workload seed",
    "compact": "run the rule with the delta-compaction fast path (a unique variant)",
    "update_deadline": "give each update task a relative deadline (for edf / --drop-late)",
    "policy": "scheduling policy",
    "processors": "simulated server-pool size (1 is the paper's setup)",
    "drop_late": "firm-deadline policy: drop tasks already past their deadline",
    "sector_delay": "the sector rule's after window (with --cascade)",
    "cascade": "run the two-level scenario: a sector rule over the composite rule's writes",
    "faults": "fault plan (docs/FAULTS.md), oracle-checked afterwards; dred takes 'default'",
    "fault_seed": "seed for the injection schedule (the workload's stays --seed)",
    "max_retries": "retry budget per fault-killed (or, on recovery, orphaned) task",
    "retry_backoff": "base backoff in virtual seconds for fault retries",
    "wal_dir": "write-ahead log + checkpoints into DIR (docs/PERSISTENCE.md)",
    "checkpoint_every": "fuzzy-checkpoint interval in virtual seconds (default: setup only)",
    "wal_sync": "fsync the WAL after every flush (real durability, slower)",
    "trace_out": "write a Chrome trace_event JSON (JSONL when PATH ends in .jsonl)",
    "stats_out": "write a plain-text stats report ('-' for stdout)",
    "obs": "attach a trace collector: staleness and cost-attribution tables",
    "replicas": "hot-standby replicas over WAL shipping (docs/REPLICATION.md)",
    "mode": "async: commits never wait; semisync: each waits for the first ack",
    "net_seed": "seed for the replication links (drops, jitter, reorders)",
    "batch_records": "max WAL records batched into one shipped frame",
    "resend_timeout": "go-back-N retransmission timeout in virtual seconds",
    "net_latency": "one-way channel latency in virtual seconds",
    "net_bandwidth": "channel bandwidth in bytes per virtual second",
    "net_jitter": "uniform extra delay in [0, JITTER) per message",
    "net_drop": "per-message drop probability (senders retransmit)",
    "net_reorder": "probability a message is held back and arrives late",
    "transport": "sim: seeded channels on the virtual clock; asyncio: a real socket",
    "n_clients": "concurrent protocol sessions",
    "requests_per_client": "quote updates per client",
    "ack_timeout": "client retransmission timeout in virtual seconds",
    "burst_size": "mean burst length of the Bleach-style quote stream",
    "burst_gap": "mean quiet period between bursts",
    "intra_gap": "spacing of quotes inside a burst",
    "session_rate": "per-session token bucket refill rate",
    "session_burst": "per-session token bucket capacity",
    "delay_at": "backpressure threshold where writes start throttling",
    "shed_at": "backpressure threshold where writes are rejected outright",
    "interval": "sampling cadence in virtual seconds; admission reads its backpressure",
    "sample_interval": "time-series sampling cadence in virtual seconds (<= 0: off)",
    "max_queue_depth": "queue depth at which the backpressure signal saturates",
    "max_staleness": "staleness watermark at which the backpressure signal saturates",
    "host": "bind address",
    "port": "bind port (0 picks an ephemeral port)",
    "duration": "exit after this many wall seconds (default: serve until interrupted)",
    "json_out": "write the run summary as JSON (stats: the full snapshot)",
    "series_out": "write the sampled time series as JSONL",
    "maintenance": "deletion-maintenance strategy for both materialized views",
    "delete_mix": "share of the events that delete",
    "n_symbols": "symbols in the portfolio",
    "positions_per_symbol": "open positions per symbol",
    "n_events": "events in the stream",
    "delays": "the after windows to sweep",
    "plan": "fault plan (default: the bench suite's)",
    "fault_seeds": "injection seeds to sweep",
    "stats": "print the trace's shape instead of its quotes",
    "limit": "quotes to print",
    "no_drain": "stop after recovery: run no resurrected task and no oracle",
}
_CHOICES = {
    "view": ("comps", "options"),
    "variant": ("nonunique", "unique", "on_symbol", "on_comp", "on_option"),
    "policy": ("fifo", "edf", "vdf"),
    "mode": ("async", "semisync"),
    "transport": ("sim", "asyncio"),
    "maintenance": ("auto", "incremental", "dred", "recompute"),
}
#: The flags spelled apart from their option.
_SPELLED = {
    "n_clients": "clients", "requests_per_client": "requests", "n_symbols": "symbols",
    "positions_per_symbol": "positions", "n_events": "events", "mode": "repl-mode",
    "batch_records": "repl-batch", "sample_interval": "interval",
}


@dataclass(frozen=True)
class _From:
    """The ``names`` options of ``source`` (a spec, config or callable), or
    each that has a help line; ``prefix`` is prepended to a config's fields."""

    source: object
    names: tuple = ()
    prefix: str = ""


def _declared(source) -> dict:
    """``{option: (default, annotation)}`` of a spec, a config or a callable;
    a bare name is a field of :class:`_CliOptions`."""
    if isinstance(source, str):
        source = _From(_CliOptions, (source,))
    elif not isinstance(source, _From):
        source = _From(source)
    if isinstance(source.source, Spec):  # the run's annotations type what it passes on
        run = _declared(ExperimentRun)
        options = {name: run.get(name, (default, None)) for name, default in source.source.resolve().items()}
    else:
        parameters = inspect.signature(source.source, eval_str=True).parameters.values()
        options = {source.prefix + p.name: (p.default, p.annotation) for p in parameters}
    return {name: options[name] for name in source.names or [n for n in options if n in _HELP]}


def _taken(path) -> dict:
    """Every option a ``(label, sources)`` path takes, declared."""
    return {name: found for source in path[1] for name, found in _declared(source).items()}


def _flag(option: str) -> str:
    return "--" + _SPELLED.get(option, option).replace("_", "-")


def _argument(option: str, default, annotation) -> dict:
    """How ``option``'s flag parses: a switch for a bool, a list for a tuple, else
    as its default — its annotation for a None default, seconds without one."""
    kwargs = dict(dest=option, default=None, help=_HELP[option])
    if isinstance(default, bool):
        return {**kwargs, "action": "store_true"}
    if isinstance(default, tuple):
        return {**kwargs, "type": type(default[0]), "nargs": "*"}
    if default is None:
        kind = next((a for a in typing.get_args(annotation) if a is not type(None)), float)
    else:
        kind = type(default) if isinstance(default, (int, float, str)) else str
    return {**kwargs, "type": kind, "choices": _CHOICES.get(option)}


def _flags(args: argparse.Namespace, names, prefix: str = "") -> dict:
    """``{name: value}`` for each of ``names`` whose flag ``prefix + name`` was given
    (a list flag given no values is not)."""
    return {name: value for name in names if (value := getattr(args, prefix + name, None)) not in (None, [])}


def _config(cls, args: argparse.Namespace, prefix: str = ""):
    """``cls`` from the flags named like its parameters; the rest keep their defaults."""
    return cls(**_flags(args, inspect.signature(cls).parameters, prefix))


def _options(spec, args: argparse.Namespace, **given) -> dict:
    """Every option ``spec`` runs with: its flags, then ``given``, over its defaults."""
    options = _flags(args, spec.options)
    if "scale" in options:
        try:
            options["scale"] = Scale.parse(options["scale"])
        except ValueError as exc:
            raise SystemExit(str(exc))
    return spec.resolve(**{**options, **given})


def _refuse(args: argparse.Namespace, path) -> None:
    """Refuse each flag given that ``path`` does not take."""
    taken = _taken(path)
    ignored = [_flag(name) for name in args.flags if name not in taken and getattr(args, name) is not None]
    if ignored:
        raise SystemExit(f"{path[0]} does not combine with {', '.join(ignored)}")


def _make_collector(args: argparse.Namespace) -> Optional[TraceCollector]:
    return TraceCollector() if args.trace_out or args.stats_out or getattr(args, "obs", None) else None


def _table(rows: list, title: str) -> None:
    if rows:
        print(format_table(rows, title))


def _freshness_sections(collector: TraceCollector) -> None:
    """Print the staleness and attribution tables one experiment produced."""
    for section in freshness_sections(collector):
        print(section)


def _write_stats(text: str, path: str) -> None:
    """A stats report to ``path``, or to stdout for ``-``."""
    if path == "-":
        return print(text)
    ensure_parent(path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(f"stats report -> {path}")


def _write_outputs(collector: TraceCollector, args: argparse.Namespace, stats_title: str) -> None:
    """Honour ``--trace-out`` / ``--stats-out`` for one traced run."""
    if args.trace_out:
        print(f"trace: {export_trace(collector, args.trace_out)} events -> {args.trace_out}")
    if args.stats_out:
        _write_stats(stats_report(collector, stats_title), args.stats_out)


def _print_faults(result, recovery: bool) -> None:
    """A faulted run's ``faults:`` line; ``recovery`` adds retries and drops."""
    if result.faults is not None:
        recovered = f" ({result.fault_retries} retried, {result.fault_drops} dropped)" if recovery else ""
        print(f"faults: {result.faults_injected} injected{recovered} "
              f"from plan {result.faults!r} seed {result.options['fault_seed']}")


def _oracle_exit(report: ConvergenceReport) -> int:
    """Print the oracle's verdict; returns the exit code it implies."""
    print(report.format())
    return 0 if report.ok else 1


def _write_json(document: dict, path: str, what: str, **dump) -> None:
    ensure_parent(path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, **dump)
    print(f"{what} -> {path}")


def _cmd_table1(_args: argparse.Namespace) -> int:
    model = CostModel()
    rows = [{"operation": op, "virtual_us": TABLE1_US[op]} for op in SIMPLE_UPDATE_PATH] + [
        {"operation": "TOTAL (simple update)", "virtual_us": model.simple_update_us()}]
    print(format_table(rows, "Table 1 - basic operation timings"))
    print(f"computed throughput: {model.simple_update_tps():.0f} TPS")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    """One PTA run: a single view, the two-level scenario (``--cascade``:
    sector indexes over composite indexes), or on a cluster (``--replicas``)."""
    path = args.paths[2 if args.replicas is not None else 1 if args.cascade else 0]
    _refuse(args, path)
    if args.replicas is not None:
        return _cmd_replicate(args)
    spec, collector = path[1][0], _make_collector(args)
    options = _options(spec, args, tracer=collector)
    try:
        result = spec.run(**options)
    except InjectedCrashError as exc:
        print(f"process crashed mid-run: {exc}", file=sys.stderr)
        if options["wal_dir"]:
            print(f"recover with: python -m repro recover {options['wal_dir']}", file=sys.stderr)
        return 3
    print(format_table([result.row()], "Cascade experiment result" if args.cascade else "Experiment result"))
    if result.compact:
        print(f"delta compaction: {result.compact_rows_in} rows folded to "
              f"{result.compact_rows_out} (ratio {result.compaction_ratio:.2f})")
    if not args.cascade:
        print(f"maintenance CPU: {result.maintenance_cpu:.3f}s over {result.duration:.0f}s "
              f"(recompute {result.cpu_recompute:.3f}s + rule overhead in updates "
              f"{max(result.cpu_update - result.cpu_baseline_update, 0.0):.3f}s)")
        if options["drop_late"]:
            print(f"dropped (firm deadline): {result.dropped_tasks}")
    if collector is not None:
        _freshness_sections(collector)
        _table(collector.staleness.stratum_rows() if args.cascade else [], "Staleness by stratum")
        what = f"{'cascade' if args.cascade else options['view']}/{options['variant']}"
        _write_outputs(collector, args, f"Trace statistics ({what}, delay {options['delay']}s)")
    if options["wal_dir"]:
        print(f"durability: {result.wal_records} WAL records, "
              f"{result.checkpoints} checkpoints -> {options['wal_dir']}")
    _print_faults(result, recovery=True)
    return 0 if result.oracle_report is None else _oracle_exit(result.oracle_report)


def _cmd_replicate(args: argparse.Namespace) -> int:
    """Run one PTA experiment on a WAL-shipping replication cluster."""
    if args.replicas is not None and args.replicas < 1:
        raise SystemExit(f"--replicas must be at least 1, got {args.replicas}")
    collector = _make_collector(args)
    network = _config(NetworkConfig, args, "net_")
    result = REPLICATED.run(**_options(REPLICATED, args, network=network, tracer=collector))
    print(format_table([result.row()], f"Replicated experiment ({result.mode}, {result.replicas} replicas)"))
    lag_rows = [
        {"replica": s["name"], "applied_lsn": s["applied_lsn"], "acked_lsn": s["acked_lsn"],
         "frames": s["frames_received"], "stale": s["frames_stale"], "buffered": s["frames_buffered"],
         **{f"lag_{q}_ms": round(s["apply_lag"][q] * 1e3, 3) for q in ("p50", "p95", "max")},
         "behind_s": round(s["lag_behind_primary_s"], 3)}
        for s in result.replica_stats
    ]
    print(format_table(lag_rows, "Replica apply lag (commit -> apply)"))
    if result.mode == "semisync":
        print(f"semisync: {result.commit_waits} commits waited {result.commit_wait_mean * 1e3:.1f}ms "
              f"mean ({result.commit_wait_max * 1e3:.1f}ms max) for the first ack")
    _print_faults(result, recovery=False)
    if result.crashed:
        print("primary crashed mid-run; failover drill:")
        print(result.failover.describe())
    else:
        print(result.oracle_report.format())
    for name, report in sorted(result.equivalence_reports.items()):  # none after a crash
        print(f"replica {name}: {'identical' if report.ok else 'DIVERGENT'} "
              f"({report.rows_checked} rows across {len(report.views_checked)} tables)")
        if not report.ok:
            print(report.format())
    if collector is not None:
        _freshness_sections(collector)
        what = f"{result.options['view']}/{result.options['variant']}, {result.mode}"
        _write_outputs(collector, args, f"Trace statistics (replicated {what})")
    return 0 if result.converged else 1


def _serve_sim(args: argparse.Namespace) -> int:
    """The simulated-channel mode: one seeded network experiment."""
    if args.interval is not None and args.interval <= 0:
        print("repro serve: error: --interval must be > 0 (admission reads the sampler)", file=sys.stderr)
        raise SystemExit(2)
    collector = TraceCollector(timeseries=_config(TimeSeriesSampler, args))
    configs = dict(load=_config(LoadConfig, args), admission=_config(AdmissionConfig, args))
    network = _config(NetworkConfig, args, "net_")
    result = NETWORKED.run(**_options(NETWORKED, args, network=network, tracer=collector, **configs))
    what = f"{result.n_clients} clients, binary protocol over simulated channels"
    print(format_table([result.row()], f"Network experiment ({what})"))
    client_rows = [{"client": client.name, **client.stats.row()} for client in result.clients]
    print(format_table(client_rows, "Per-client protocol statistics"))
    print(f"admission decisions: {result.server.admission.counts()}")
    print(f"channel: {result.channel}")
    _print_faults(result, recovery=False)
    lost = result.lost_acked
    print(f"LOST ACKNOWLEDGED MUTATIONS: {lost}" if lost else "zero lost acknowledged mutations")
    print(result.oracle_report.format())
    if args.json_out:
        names = ("admit_decisions", "throttle_decisions", "shed_decisions", "lost_acked",
                 "faults_injected", "channel", "ok")
        summary = {**result.row(), **{name: getattr(result, name) for name in names}}
        _write_json({**summary, "converged": result.oracle_report.ok}, args.json_out, "summary", sort_keys=True)
    _write_outputs(collector, args, f"Trace statistics (serve --transport sim, {result.n_clients} clients)")
    return 0 if result.ok else 1


def _serve_asyncio(args: argparse.Namespace) -> int:
    """The real-socket mode: listen until --duration elapses (or forever)."""
    options = _options(NETWORKED, args)
    db = ExperimentRun(tracer=TraceCollector()).db
    populate_trace(db, options["scale"], options["seed"])
    install_comp_rule(db, options["variant"], options["delay"])
    core = NetServer(db, collector=db.tracer, config=ServerConfig(admission=_config(AdmissionConfig, args)))
    server = AsyncNetServer(core, **_flags(args, ("host", "port")))
    what = f"({options['scale'].n_stocks} stocks, variant {options['variant']!r})"
    with suppress(KeyboardInterrupt):  # Ctrl-C ends an open-ended listen
        asyncio.run(_listen(server, what, **_flags(args, ("duration",))))
    stats = core.stats()
    print(f"served {stats['received']} requests across {stats['sessions']} "
          f"sessions ({stats['acked']} writes acknowledged)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the network front-end in one of its two transports."""
    asyncio_path = args.transport == "asyncio"
    _refuse(args, args.paths[asyncio_path])
    return _serve_asyncio(args) if asyncio_path else _serve_sim(args)


def _cmd_stats(args: argparse.Namespace) -> int:
    """One experiment under full observability: staleness, attribution, time series."""
    collector = _config(TraceCollector, args)
    options = _options(VIEW, args, tracer=collector)
    result = VIEW.run(**options)
    print(format_table([result.row()], "Experiment result"))
    _freshness_sections(collector)
    samples = collector.timeseries.samples if collector.timeseries is not None else []
    if samples:
        title = f"Time series ({len(samples)} samples, every {collector.timeseries.interval:g}s virtual)"
        print(format_table(collector.timeseries.summary_rows(), title))
        for label, key in (("queue depth ", "queue_depth"), ("staleness   ", "staleness_watermark_s")):
            print(f"{label} {sparkline([sample.get(key, 0.0) for sample in samples])}")
        latest = collector.timeseries.latest() or {}
        print(f"final backpressure signal: {latest.get('backpressure', 0.0):.3f}")
    if args.json_out:
        meta = {name: options[name] for name in ("view", "variant", "delay", "scale", "seed")}
        meta.update(scale=options["scale"].name, end_time=result.end_time)
        _write_json(stats_snapshot(collector, meta), args.json_out, "stats snapshot")
    if args.series_out:
        ensure_parent(args.series_out)
        print(f"time series: {write_series_jsonl(samples, args.series_out)} samples -> {args.series_out}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    view, metric, label = _FIGURES[args.number]
    root, ext = os.path.splitext(args.trace_out or "")
    results, stats_sections = [], []
    for point in paper_grid(FIGURE_VARIANTS[view], _config(_CliOptions, args).delays):
        collector = _make_collector(args)
        results.append(VIEW.run(**_options(VIEW, args, view=view, tracer=collector, **point)).detach())
        tag = f"{point['variant']}-{point['delay']:g}"
        if args.trace_out:  # one trace per grid point
            path = f"{root}-{tag}{ext or '.json'}"
            print(f"trace: {export_trace(collector, path)} events -> {path}")
        if args.stats_out:
            stats_sections.append(stats_report(collector, f"Trace statistics ({tag})"))
    if stats_sections:
        _write_stats("\n\n".join(stats_sections), args.stats_out)
    print(format_series(series_of(results, metric), "delay_s", label, f"Figure {args.number}"))
    return 0


_ROUND_2, _ROUND_4 = partial(round, ndigits=2), partial(round, ndigits=4)
#: The compaction sweep's row per delay, from its off (0) and on (1) runs.
_COMPACTION_ROW = (
    (0, Metric("delay", column="delay_s")),
    (0, Metric("total_bound_rows", column="rows_off")),
    (1, Metric("compact_rows_out", column="rows_on")),
    (1, Metric("compaction_ratio", column="ratio", show=_ROUND_2)),
    (0, Metric("cpu_recompute", column="recompute_cpu_off", show=_ROUND_4)),
    (1, Metric("cpu_recompute", column="recompute_cpu_on", show=_ROUND_4)),
    (0, Metric("maintenance_cpu", column="maint_cpu_off", show=_ROUND_4)),
    (1, Metric("maintenance_cpu", column="maint_cpu_on", show=_ROUND_4)),
)


def _cmd_compaction(args: argparse.Namespace) -> int:
    """The delta-compaction sweep: off/on pairs across the delay windows."""
    options = _options(VIEW, args)
    delays = _config(_CliOptions, args).delays
    results = grid(VIEW, [dict(delay=delay, compact=on) for delay in delays for on in (False, True)], **options)
    rows = [
        {key: value for side, column in _COMPACTION_ROW for key, value in pair[side].row((column,)).items()}
        for pair in zip(results[::2], results[1::2])
    ]
    what = f"{options['view']}/{options['variant']}, scale {options['scale'].name}"
    print(format_table(rows, f"Delta compaction sweep ({what})"))
    return 0


def _cmd_dred(args: argparse.Namespace) -> int:
    """The deletion-heavy run (close-outs, delistings), checked by the oracle."""
    faults = DEFAULT_FAULT_PLAN if args.faults == "default" else args.faults
    result = DELETION.run(**_options(DELETION, args, faults=faults))
    title = f"Deletion-heavy run (maintenance {result.maintenance}, delete mix {result.delete_mix})"
    print(format_table([result.row()], title))
    return _oracle_exit(result.oracle_report)


#: The fault sweep's row per injection seed.
_FAULT_ROW = (
    Metric("fault_seed", lambda r: r.options["fault_seed"], "fault_seed"),
    Metric("faults_injected", column="injected"),
    Metric("fault_retries", column="retries"), Metric("fault_drops", column="drops"),
    Metric("n_recomputes", column="n_recomputes"), Metric("oracle_rows", column="oracle_rows"),
    Metric("oracle_divergent", column="divergent"),
    Metric("oracle_report", column="verdict", show=lambda report: "OK" if report.ok else "FAILED"),
)


def _cmd_fault(args: argparse.Namespace) -> int:
    """The fault sweep: one injected run per seed, each checked by the oracle."""
    own = _config(_CliOptions, args)
    options = _options(VIEW, args, faults=own.plan)
    results = grid(VIEW, [dict(fault_seed=seed) for seed in own.fault_seeds], **options)
    what = f"{options['view']}/{options['variant']}, scale {options['scale'].name}, plan {own.plan!r}"
    print(format_table([result.row(_FAULT_ROW) for result in results], f"Fault sweep ({what})"))
    failed = [result for result in results if not result.oracle_report.ok]
    for result in failed:
        print(f"--- fault seed {result.options['fault_seed']} ---")
        print(result.oracle_report.format())
    return 1 if failed else 0


def _cmd_recover(args: argparse.Namespace) -> int:
    """Rebuild a crashed run from its WAL directory and verify convergence."""
    run = {**RUN_OPTIONS, **_flags(args, RUN_OPTIONS)}
    db, report = recover_run(args.wal_dir, RetryPolicy(run["max_retries"], run["retry_backoff"]))
    print(report.describe())
    if args.no_drain:
        return 0
    print(f"drained {Simulator(db).run()} resurrected tasks")
    return _oracle_exit(check_convergence(db))


def _cmd_trace(args: argparse.Namespace) -> int:
    options = _options(VIEW, args)
    generator = options["scale"].make_trace(seed=options["seed"])
    events = generator.generate()
    if not args.stats:
        for event in events[: _config(_CliOptions, args).limit]:
            print(f"{event.time:10.3f}  {event.symbol}  {event.price}")
        return 0
    print(format_table([generator.describe(events)], f"Trace statistics (scale {options['scale'].name})"))
    print(f"top-5 stock quote counts: {sorted(generator.activity(events).values(), reverse=True)[:5]}")
    return 0


def _cmd_sql(args: argparse.Namespace) -> int:
    db = Database()
    db.execute_script("create table t (x int); insert into t values (1)")
    result = db.execute(args.statement)
    print(format_table(result.dicts() or [], "result") if hasattr(result, "dicts") else result)
    return 0


_WORKLOAD = ("view", "variant", "delay", "scale", "seed")
_OUTPUTS = ("trace_out", "stats_out", "obs")
_LINK = _From(NetworkConfig, prefix="net_")
_REPLICATED = (REPLICATED, _LINK, *_OUTPUTS)

#: Each subcommand: its function, help, paths — ``(label, sources)``, whose
#: options are its flags — and positional arguments.
_COMMANDS = {
    "table1": (_cmd_table1, "print Table 1", ()),
    "experiment": (_cmd_experiment, "run one PTA experiment", (
        ("a single-view experiment", (VIEW, *_OUTPUTS)),
        ("--cascade", (CASCADE, "cascade", *_OUTPUTS)),
        ("--replicas", _REPLICATED),
    )),
    "replicate": (_cmd_replicate, "run one PTA experiment on a WAL-shipping replication cluster",
                  (("replicate", _REPLICATED),)),
    "serve": (_cmd_serve, "run the network front-end: protocol server with admission control", (
        ("--transport sim", (NETWORKED, LoadConfig, _LINK, AdmissionConfig, TimeSeriesSampler,
                             "transport", "json_out", "trace_out", "stats_out")),
        ("--transport asyncio", (_From(NETWORKED, ("variant", "delay", "scale", "seed")),
                                 AdmissionConfig, AsyncNetServer, _listen, "transport")),
    )),
    "stats": (_cmd_stats, "run one experiment under full observability: a dashboard", (
        ("stats", (_From(VIEW, (*_WORKLOAD, "compact")), _From(TraceCollector, ("sample_interval",)),
                   "json_out", "series_out")),
    )),
    "figure": (_cmd_figure, "regenerate one paper figure", (
        ("figure", (_From(VIEW, ("scale", "seed")), "delays", "trace_out", "stats_out")),
    ), ("number", dict(choices=sorted(_FIGURES)))),
    "compaction": (_cmd_compaction, "sweep the delta-compaction fast path off vs on", (
        ("compaction", (_From(VIEW, ("view", "variant", "scale", "seed")), "delays")),
    )),
    "dred": (_cmd_dred, "run the deletion-heavy workload (close-outs, delistings)", (
        ("dred", (_From(DELETION, ("delay", "seed", "faults", "fault_seed", "maintenance", "delete_mix",
                                   "n_symbols", "positions_per_symbol", "n_events")),)),
    )),
    "fault": (_cmd_fault, "run seeded fault-injection sweeps with the oracle", (
        ("fault", (_From(VIEW, (*_WORKLOAD, "max_retries")), "plan", "fault_seeds")),
    )),
    "recover": (_cmd_recover, "rebuild a crashed run from its WAL directory and check it", (
        ("recover", (_From(ExperimentRun, ("max_retries", "retry_backoff")), "no_drain")),
    ), ("wal_dir", dict(metavar="WAL_DIR"))),
    "trace": (_cmd_trace, "generate / inspect a synthetic TAQ trace", (
        ("trace", (_From(VIEW, ("scale", "seed")), "stats", "limit")),
    )),
    "sql": (_cmd_sql, "run one SQL statement against a demo db", (), ("statement", {})),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI definition (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(prog="repro", description="STRIP rule system reproduction (SIGMOD 1997)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, paths, *positional) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for dest, kwargs in positional:
            command.add_argument(dest, **kwargs)
        declared = dict(item for path in paths for item in _taken(path).items())
        for option, (default, annotation) in declared.items():
            command.add_argument(_flag(option), **_argument(option, default, annotation))
        command.set_defaults(fn=fn, paths=paths, flags=tuple(declared))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
