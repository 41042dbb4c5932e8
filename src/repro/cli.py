"""Command-line interface: run the paper's experiments from a shell.

Examples::

    python -m repro table1
    python -m repro experiment --view options --variant on_symbol --delay 1.5
    python -m repro figure 9 --scale tiny
    python -m repro stats --scale tiny --json-out snapshot.json
    python -m repro trace --stats
    python -m repro sql "select 40 + 2 as answer from t"   # against a demo db
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional, Sequence

from repro.bench.experiments import DEFAULT_FAULT_PLAN, grid, series_of
from repro.bench.reporting import format_series, format_table
from repro.errors import InjectedCrashError
from repro.fault import ConvergenceReport, RetryPolicy, check_convergence
from repro.obs import (
    TimeSeriesSampler,
    TraceCollector,
    ensure_parent,
    export_stats,
    export_trace,
    sparkline,
    stats_report,
    stats_snapshot,
    write_series_jsonl,
)
from repro.pta.scaffold import RUN_OPTIONS
from repro.pta.tables import Scale
from repro.pta.workload import (
    CASCADE,
    DELAYS,
    DELETION,
    FIGURE_VARIANTS,
    VIEW,
    paper_grid,
    populate_trace,
)
from repro.sim.costmodel import SIMPLE_UPDATE_PATH, TABLE1_US, CostModel

_FIGURES = {
    "9": ("comps", "cpu_fraction", "CPU fraction"),
    "10": ("comps", "n_recomputes", "N_r"),
    "11": ("comps", "mean_recompute_length", "mean recompute length (s)"),
    "12": ("options", "cpu_fraction", "CPU fraction"),
    "13": ("options", "n_recomputes", "N_r"),
    "14": ("options", "mean_recompute_length", "mean recompute length (s)"),
}


def _scale(args: argparse.Namespace) -> Scale:
    try:
        return Scale.parse(args.scale)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _make_collector(args: argparse.Namespace) -> Optional[TraceCollector]:
    if args.trace_out or args.stats_out or getattr(args, "obs", False):
        return TraceCollector()
    return None


def _flags(args: argparse.Namespace, names, prefix: str = "") -> dict:
    """``{name: value}`` for each of ``names`` whose flag ``prefix + name``
    the command has and did not leave at None."""
    return {
        name: value
        for name in names
        if (value := getattr(args, prefix + name, None)) is not None
    }


def _config(cls, args: argparse.Namespace, prefix: str = ""):
    """A config dataclass (link, admission, load) from the flags named like
    its fields; the rest keep their defaults."""
    return cls(**_flags(args, [field.name for field in dataclasses.fields(cls)], prefix))


def _freshness_sections(collector: TraceCollector) -> None:
    """Print the staleness and attribution tables one experiment produced."""
    view_rows = collector.staleness.view_rows()
    if view_rows:
        print(format_table(view_rows, "Derived-view staleness (virtual seconds)"))
    rule_rows = collector.staleness.rule_rows()
    if rule_rows:
        print(format_table(rule_rows, "Per-rule staleness (virtual seconds)"))
    if collector.staleness.lost:
        print(
            f"staleness: {collector.staleness.lost} mutations lost to dropped tasks"
        )
    attribution_rows = collector.attribution().profile_rows()
    if attribution_rows:
        print(format_table(attribution_rows, "Per-rule cost attribution"))


def _write_trace(collector: TraceCollector, path: str) -> None:
    count = export_trace(collector, path)
    print(f"trace: {count} events -> {path}")


def _write_outputs(
    collector: TraceCollector, args: argparse.Namespace, stats_title: str
) -> None:
    """Honour ``--trace-out`` / ``--stats-out`` for one traced run."""
    if args.trace_out:
        _write_trace(collector, args.trace_out)
    if args.stats_out:
        text = export_stats(collector, args.stats_out, stats_title)
        if text is not None:
            print(text)
        else:
            print(f"stats report -> {args.stats_out}")


def _print_faults(result, fault_seed: int, recovery: bool) -> None:
    """The ``faults: N injected ...`` line of a faulted run.  ``recovery``
    adds the retry/drop counts (engine faults; network seams have none)."""
    if result.faults is None:
        return
    recovered = (
        f" ({result.fault_retries} retried, {result.fault_drops} dropped)"
        if recovery
        else ""
    )
    print(
        f"faults: {result.faults_injected} injected{recovered} "
        f"from plan {result.faults!r} seed {fault_seed}"
    )


def _oracle_exit(report: ConvergenceReport) -> int:
    """Print the oracle's verdict; returns the exit code it implies."""
    print(report.format())
    return 0 if report.ok else 1


def _cmd_table1(_args: argparse.Namespace) -> int:
    model = CostModel()
    rows = [{"operation": op, "virtual_us": TABLE1_US[op]} for op in SIMPLE_UPDATE_PATH]
    rows.append({"operation": "TOTAL (simple update)", "virtual_us": model.simple_update_us()})
    print(format_table(rows, "Table 1 - basic operation timings"))
    print(f"computed throughput: {model.simple_update_tps():.0f} TPS")
    return 0


#: The ``experiment`` flags a path may not take, by the spec option each
#: one sets (``--cascade`` asks for the sector rule), and why each path
#: takes fewer.
_PATH_FLAGS = (
    ("--cascade", "sector_delay"), ("--policy", "policy"), ("--processors", "processors"),
    ("--drop-late", "drop_late"), ("--update-deadline", "update_deadline"),
    ("--compact", "compact"), ("--checkpoint-every", "checkpoint_every"),
    ("--wal-sync", "wal_sync"), ("--sector-delay", "sector_delay"),
)
_PATH_REASONS = {
    "--replicas": "the replicated driver pins the scheduler defaults and "
    "checkpoints once, when armed; see docs/REPLICATION.md",
    "--cascade": "the two-level driver runs one processor and drops no late task",
    "a single-view experiment": "the sector rule exists only with --cascade",
}


def _options(spec, args: argparse.Namespace, **given) -> dict:
    """What ``spec`` runs with: each option it takes from the flag of the
    same name (a flag left at None keeps the spec's default), then
    ``given`` for the ones the flags spell differently."""
    options = _flags(args, spec.options)
    if "scale" in options:
        options["scale"] = _scale(args)
    return {**options, **given}


def _cmd_experiment(args: argparse.Namespace) -> int:
    """One PTA run: a single view, or with ``--cascade`` the two-level
    scenario (sector indexes maintained over composite indexes, rule
    cascades scheduled bottom-up by stratum).  A flag the chosen path would
    silently ignore — an option its spec does not take — is refused."""
    if args.replicas:
        from repro.pta.distributed import REPLICATED

        path, spec = "--replicas", REPLICATED
    elif args.cascade:
        path, spec = "--cascade", CASCADE
    else:
        path, spec = "a single-view experiment", VIEW
    ignored = []
    for flag, option in _PATH_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        # Set: neither off (None / False) nor the run's default.
        if not (value is None or value is False or value == RUN_OPTIONS.get(option)):
            if option not in spec.options:
                ignored.append(flag)
    if ignored:
        raise SystemExit(
            f"{path} does not combine with {', '.join(ignored)} ({_PATH_REASONS[path]})"
        )
    if args.replicas:
        return _cmd_replicate(args)
    if args.cascade and args.view != "comps":
        raise SystemExit("--cascade implies the comps view (sectors build on it)")

    collector = _make_collector(args)
    try:
        result = spec.run(**_options(spec, args, tracer=collector))
    except InjectedCrashError as exc:
        print(f"process crashed mid-run: {exc}", file=sys.stderr)
        if args.wal_dir:
            print(
                f"recover with: python -m repro recover {args.wal_dir}",
                file=sys.stderr,
            )
        return 3
    title = "Cascade experiment result" if args.cascade else "Experiment result"
    print(format_table([result.row()], title))
    if result.compact:
        print(
            f"delta compaction: {result.compact_rows_in} rows folded to "
            f"{result.compact_rows_out} (ratio {result.compaction_ratio:.2f})"
        )
    if not args.cascade:
        print(
            f"maintenance CPU: {result.maintenance_cpu:.3f}s over {result.duration:.0f}s "
            f"(recompute {result.cpu_recompute:.3f}s + rule overhead in updates "
            f"{max(result.cpu_update - result.cpu_baseline_update, 0.0):.3f}s)"
        )
        if args.drop_late:
            print(f"dropped (firm deadline): {result.dropped_tasks}")
    if collector is not None:
        _freshness_sections(collector)
        strata = collector.staleness.stratum_rows() if args.cascade else []
        if strata:
            print(format_table(strata, "Staleness by stratum"))
        what = "cascade" if args.cascade else args.view
        _write_outputs(
            collector,
            args,
            f"Trace statistics ({what}/{args.variant}, delay {args.delay}s)",
        )
    if args.wal_dir:
        print(
            f"durability: {result.wal_records} WAL records, "
            f"{result.checkpoints} checkpoints -> {args.wal_dir}"
        )
    _print_faults(result, args.fault_seed, recovery=True)
    if result.oracle_report is not None:
        return _oracle_exit(result.oracle_report)
    return 0


def _cmd_replicate(args: argparse.Namespace) -> int:
    """Run one PTA experiment on a WAL-shipping replication cluster."""
    from repro.pta.distributed import REPLICATED
    from repro.replic import NetworkConfig

    if args.replicas < 1:
        raise SystemExit(f"--replicas must be at least 1, got {args.replicas}")
    collector = _make_collector(args)
    result = REPLICATED.run(
        **_options(
            REPLICATED, args, mode=args.repl_mode, network=_config(NetworkConfig, args, "net_"),
            batch_records=args.repl_batch, tracer=collector,
        )
    )
    print(
        format_table(
            [result.row()],
            f"Replicated experiment ({result.mode}, "
            f"{result.replicas} replicas)",
        )
    )
    lag_rows = []
    for stats in result.replica_stats:
        lag = stats["apply_lag"]
        lag_rows.append(
            {
                "replica": stats["name"],
                "applied_lsn": stats["applied_lsn"],
                "acked_lsn": stats["acked_lsn"],
                "frames": stats["frames_received"],
                "stale": stats["frames_stale"],
                "buffered": stats["frames_buffered"],
                "lag_p50_ms": round(lag["p50"] * 1e3, 3),
                "lag_p95_ms": round(lag["p95"] * 1e3, 3),
                "lag_max_ms": round(lag["max"] * 1e3, 3),
                "behind_s": round(stats["lag_behind_primary_s"], 3),
            }
        )
    print(format_table(lag_rows, "Replica apply lag (commit -> apply)"))
    if result.mode == "semisync":
        print(
            f"semisync: {result.commit_waits} commits waited "
            f"{result.commit_wait_mean * 1e3:.1f}ms mean "
            f"({result.commit_wait_max * 1e3:.1f}ms max) for the first ack"
        )
    _print_faults(result, args.fault_seed, recovery=False)
    if result.crashed:
        print("primary crashed mid-run; failover drill:")
        print(result.failover.describe())
    else:
        if result.oracle_report is not None:
            print(result.oracle_report.format())
        for name, report in sorted(result.equivalence_reports.items()):
            verdict = "identical" if report.ok else "DIVERGENT"
            print(
                f"replica {name}: {verdict} "
                f"({report.rows_checked} rows across "
                f"{len(report.views_checked)} tables)"
            )
            if not report.ok:
                print(report.format())
    if collector is not None:
        _freshness_sections(collector)
        _write_outputs(
            collector,
            args,
            f"Trace statistics (replicated {args.view}/{args.variant}, "
            f"{result.mode})",
        )
    return 0 if result.converged else 1


def _serve_sim(args: argparse.Namespace) -> int:
    """The simulated-channel mode: one seeded network experiment."""
    from repro.net import AdmissionConfig, LoadConfig
    from repro.pta.distributed import NETWORKED
    from repro.replic import NetworkConfig

    collector = TraceCollector(
        timeseries=TimeSeriesSampler(
            interval=args.interval if args.interval > 0 else 1.0,
            max_queue_depth=args.max_queue_depth,
            max_staleness=args.max_staleness,
        )
    )
    result = NETWORKED.run(
        **_options(
            NETWORKED, args, n_clients=args.clients, requests_per_client=args.requests,
            load=_config(LoadConfig, args), network=_config(NetworkConfig, args, "net_"),
            admission=_config(AdmissionConfig, args), tracer=collector,
        )
    )
    print(
        format_table(
            [result.row()],
            f"Network experiment ({result.n_clients} clients, "
            f"binary protocol over simulated channels)",
        )
    )
    client_rows = [
        {"client": client.name, **client.stats.row()} for client in result.clients
    ]
    print(format_table(client_rows, "Per-client protocol statistics"))
    counts = {
        "admit": result.admit_decisions,
        "throttle": result.throttle_decisions,
        "shed": result.shed_decisions,
    }
    print(f"admission decisions: {counts}")
    print(f"channel: {result.channel}")
    _print_faults(result, args.fault_seed, recovery=False)
    if result.lost_acked:
        print(f"LOST ACKNOWLEDGED MUTATIONS: {result.lost_acked}")
    else:
        print("zero lost acknowledged mutations")
    print(result.oracle_report.format())
    if args.json_out:
        summary = {
            **result.row(),
            "admit_decisions": result.admit_decisions,
            "throttle_decisions": result.throttle_decisions,
            "shed_decisions": result.shed_decisions,
            "lost_acked": result.lost_acked,
            "faults_injected": result.faults_injected,
            "channel": result.channel,
            "converged": result.oracle_report.ok,
            "ok": result.ok,
        }
        ensure_parent(args.json_out)
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        print(f"summary -> {args.json_out}")
    _write_outputs(
        collector,
        args,
        f"Trace statistics (serve --transport sim, {args.clients} clients)",
    )
    return 0 if result.ok else 1


def _serve_asyncio(args: argparse.Namespace) -> int:
    """The real-socket mode: listen until --duration elapses (or forever)."""
    import asyncio

    from repro.database import Database
    from repro.net import AdmissionConfig, NetServer, ServerConfig
    from repro.net.aio import AsyncNetServer
    from repro.pta.rules import install_comp_rule

    collector = TraceCollector()
    db = Database(tracer=collector)
    db.metrics.set_keep_records(False)
    scale = _scale(args)
    populate_trace(db, scale, args.seed)
    install_comp_rule(db, args.variant, args.delay)
    core = NetServer(
        db,
        collector=collector,
        config=ServerConfig(admission=_config(AdmissionConfig, args)),
    )
    server = AsyncNetServer(core, host=args.host, port=args.port)

    async def main() -> None:
        await server.start()
        print(f"listening on {args.host}:{server.port} "
              f"({scale.n_stocks} stocks, variant {args.variant!r})")
        sys.stdout.flush()
        try:
            if args.duration is not None:
                await asyncio.sleep(args.duration)
            else:
                while True:
                    await asyncio.sleep(3600)
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            await server.close()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    stats = core.stats()
    print(f"served {stats['received']} requests across {stats['sessions']} "
          f"sessions ({stats['acked']} writes acknowledged)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the network front-end in one of its two transports."""
    if args.transport == "sim":
        return _serve_sim(args)
    return _serve_asyncio(args)


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run one experiment under full observability and render a dashboard:
    staleness percentiles, the per-rule cost attribution table, and the
    virtual-time series (with optional JSON / JSONL exports)."""
    collector = TraceCollector(sample_interval=args.interval)
    result = VIEW.run(**_options(VIEW, args, tracer=collector))
    print(format_table([result.row()], "Experiment result"))
    _freshness_sections(collector)
    sampler = collector.timeseries
    if sampler is not None and sampler.samples:
        print(
            format_table(
                sampler.summary_rows(),
                f"Time series ({len(sampler.samples)} samples, "
                f"every {sampler.interval:g}s virtual)",
            )
        )
        depths = [sample.get("queue_depth", 0.0) for sample in sampler.samples]
        print(f"queue depth  {sparkline(depths)}")
        lags = [
            sample.get("staleness_watermark_s", 0.0) for sample in sampler.samples
        ]
        print(f"staleness    {sparkline(lags)}")
        latest = sampler.latest() or {}
        print(f"final backpressure signal: {latest.get('backpressure', 0.0):.3f}")
    meta = {
        "view": args.view,
        "variant": args.variant,
        "delay": args.delay,
        "scale": args.scale,
        "seed": args.seed,
        "end_time": result.end_time,
    }
    if args.json_out:
        ensure_parent(args.json_out)
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(stats_snapshot(collector, meta), handle, indent=2)
        print(f"stats snapshot -> {args.json_out}")
    if args.series_out:
        ensure_parent(args.series_out)
        count = write_series_jsonl(
            sampler.samples if sampler is not None else [], args.series_out
        )
        print(f"time series: {count} samples -> {args.series_out}")
    return 0


def _suffixed(path: str, tag: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}-{tag}{ext or '.json'}"


def _cmd_figure(args: argparse.Namespace) -> int:
    view, metric, label = _FIGURES[args.number]
    results = []
    stats_sections: list[str] = []
    for point in paper_grid(FIGURE_VARIANTS[view], args.delays or DELAYS):
        collector = _make_collector(args)
        options = _options(VIEW, args, view=view, tracer=collector, **point)
        results.append(VIEW.run(**options).detach())
        if collector is not None:
            tag = f"{point['variant']}-{point['delay']:g}"
            if args.trace_out:
                _write_trace(collector, _suffixed(args.trace_out, tag))
            if args.stats_out:
                stats_sections.append(
                    stats_report(collector, f"Trace statistics ({tag})")
                )
    if stats_sections and args.stats_out:
        if args.stats_out == "-":
            print("\n\n".join(stats_sections))
        else:
            with open(args.stats_out, "w", encoding="utf-8") as handle:
                handle.write("\n\n".join(stats_sections) + "\n")
            print(f"stats report -> {args.stats_out}")
    print(format_series(series_of(results, metric), "delay_s", label, f"Figure {args.number}"))
    return 0


def _cmd_compaction(args: argparse.Namespace) -> int:
    """The delta-compaction sweep: off/on pairs across the delay windows."""
    points = [dict(delay=delay, compact=on) for delay in args.delays or DELAYS for on in (False, True)]
    results = grid(VIEW, points, **_options(VIEW, args))
    rows = []
    for off, on in zip(results[::2], results[1::2]):
        rows.append(
            {
                "delay_s": off.delay,
                "rows_off": off.total_bound_rows,
                "rows_on": on.compact_rows_out,
                "ratio": round(on.compaction_ratio, 2),
                "recompute_cpu_off": round(off.cpu_recompute, 4),
                "recompute_cpu_on": round(on.cpu_recompute, 4),
                "maint_cpu_off": round(off.maintenance_cpu, 4),
                "maint_cpu_on": round(on.maintenance_cpu, 4),
            }
        )
    print(
        format_table(
            rows,
            f"Delta compaction sweep ({args.view}/{args.variant}, scale {args.scale})",
        )
    )
    return 0


def _cmd_dred(args: argparse.Namespace) -> int:
    """The deletion-heavy variant: close-outs and delistings under a chosen
    maintenance strategy, always checked by the convergence oracle."""
    faults = DEFAULT_FAULT_PLAN if args.faults == "default" else args.faults
    result = DELETION.run(
        **_options(
            DELETION, args, faults=faults, n_symbols=args.symbols,
            positions_per_symbol=args.positions, n_events=args.events,
        )
    )
    print(
        format_table(
            [result.row()],
            f"Deletion-heavy run (maintenance {args.maintenance}, "
            f"delete mix {args.delete_mix})",
        )
    )
    return _oracle_exit(result.oracle_report)


def _cmd_fault(args: argparse.Namespace) -> int:
    """The fault sweep: one injected run per seed, each checked by the oracle."""
    plan = args.plan if args.plan is not None else DEFAULT_FAULT_PLAN
    fault_seeds = args.fault_seeds or [0, 1, 2]
    points = [dict(fault_seed=fault_seed) for fault_seed in fault_seeds]
    results = grid(VIEW, points, **_options(VIEW, args, faults=plan))
    rows = []
    for fault_seed, result in zip(fault_seeds, results):
        report = result.oracle_report
        rows.append(
            {
                "fault_seed": fault_seed,
                "injected": result.faults_injected,
                "retries": result.fault_retries,
                "drops": result.fault_drops,
                "n_recomputes": result.n_recomputes,
                "oracle_rows": report.rows_checked,
                "divergent": len(report.divergences),
                "verdict": "OK" if report.ok else "FAILED",
            }
        )
    print(
        format_table(
            rows,
            f"Fault sweep ({args.view}/{args.variant}, scale {args.scale}, "
            f"plan {plan!r})",
        )
    )
    failed = 0
    for fault_seed, result in zip(fault_seeds, results):
        if not result.oracle_report.ok:
            failed += 1
            print(f"--- fault seed {fault_seed} ---")
            print(result.oracle_report.format())
    return 1 if failed else 0


def _cmd_recover(args: argparse.Namespace) -> int:
    """Rebuild a crashed run from its WAL directory and verify convergence."""
    from repro.pta.distributed import recover_run
    from repro.sim.simulator import Simulator

    db, report = recover_run(
        args.wal_dir, RetryPolicy(args.max_retries, args.retry_backoff)
    )
    print(report.describe())
    if args.no_drain:
        return 0
    executed = Simulator(db).run()
    print(f"drained {executed} resurrected tasks")
    return _oracle_exit(check_convergence(db))


def _cmd_trace(args: argparse.Namespace) -> int:
    generator = _scale(args).make_trace(seed=args.seed)
    events = generator.generate()
    if args.stats:
        stats = generator.describe(events)
        print(format_table([stats], f"Trace statistics (scale {args.scale})"))
        counts = sorted(generator.activity(events).values(), reverse=True)
        print(f"top-5 stock quote counts: {counts[:5]}")
        return 0
    for event in events[: args.limit]:
        print(f"{event.time:10.3f}  {event.symbol}  {event.price}")
    return 0


def _cmd_sql(args: argparse.Namespace) -> int:
    from repro.database import Database

    db = Database()
    db.execute("create table t (x int)")
    db.execute("insert into t values (1)")
    result = db.execute(args.statement)
    if hasattr(result, "dicts"):
        print(format_table(result.dicts() or [], "result"))
    else:
        print(result)
    return 0


#: Every flag more than one subcommand takes, declared once.  A subcommand
#: picks the flags it honours by name (:func:`_shared`), so a flag has the
#: same type, choices and default wherever it appears — the two exceptions
#: (``serve --delay``, ``replicate --replicas``) are ``set_defaults`` calls
#: next to the subcommand.
_SHARED_FLAGS: dict[str, dict] = {
    "--view": dict(choices=["comps", "options"], default="comps"),
    "--variant": dict(
        choices=["nonunique", "unique", "on_symbol", "on_comp", "on_option"],
        default="unique",
    ),
    "--delay": dict(type=float, default=1.0),
    "--scale": dict(default="tiny"),
    "--seed": dict(type=int, default=0),
    "--delays": dict(type=float, nargs="*"),
    "--compact": dict(
        action="store_true",
        help="run the rule with the delta-compaction fast path (compact on "
        "the view's derived key; requires a unique variant)",
    ),
    "--interval": dict(
        type=float, default=1.0, metavar="SECONDS",
        help="time-series sampling cadence in virtual seconds (stats: <=0 "
        "disables sampling)",
    ),
    "--json-out": dict(
        metavar="PATH",
        help="write the run summary as JSON (stats: the full snapshot, schema "
        "docs/schemas/stats_snapshot.schema.json; serve: throughput, "
        "admission decisions, oracle verdict)",
    ),
    # faults
    "--faults": dict(
        metavar="PLAN", default=None,
        help="fault-injection plan, e.g. 'task.exec:kill@every=7;"
        "txn.commit:abort@p=0.01' (see docs/FAULTS.md); the convergence "
        "oracle runs afterwards and a divergence exits 1.  replicate adds "
        "the ship.send / ship.ack / apply.frame seams (a wal.append crash "
        "turns the run into a failover drill), serve the net.accept / "
        "net.recv / net.send seams; dred accepts 'default' for the bench "
        "suite's plan",
    ),
    "--fault-seed": dict(
        type=int, default=0,
        help="seed for the injection schedule (workload seed stays --seed)",
    ),
    "--max-retries": dict(
        type=int, default=5,
        help="retry budget per task before a fault-killed (or, on recovery, "
        "orphaned) task is dropped",
    ),
    "--retry-backoff": dict(
        type=float, default=0.25,
        help="base backoff (virtual seconds) for fault retries",
    ),
    # WAL
    "--wal-dir": dict(
        metavar="DIR", default=None,
        help="enable durability: write-ahead log + checkpoints into DIR "
        "(recoverable after a crash with 'python -m repro recover DIR'; "
        "see docs/PERSISTENCE.md).  A replicated run without it logs into "
        "a temporary directory",
    ),
    "--checkpoint-every": dict(
        type=float, default=None, metavar="SECONDS",
        help="fuzzy-checkpoint interval in virtual seconds (default: only "
        "the initial post-setup checkpoint)",
    ),
    "--wal-sync": dict(
        action="store_true",
        help="fsync the WAL after every flush (real durability, slower)",
    ),
    # obs outputs
    "--trace-out": dict(
        metavar="PATH",
        help="write a trace of the run: Chrome trace_event JSON (open in "
        "Perfetto), or JSONL when PATH ends in .jsonl; figure writes one "
        "per run, suffixed -<variant>-<delay>",
    ),
    "--stats-out": dict(
        metavar="PATH", help="write a plain-text stats report ('-' for stdout)"
    ),
    "--obs": dict(
        action="store_true",
        help="attach a trace collector even without --trace-out/--stats-out "
        "(prints staleness and cost-attribution tables after the run)",
    ),
    # network link
    "--net-latency": dict(
        type=float, default=0.02, metavar="SECONDS",
        help="one-way channel latency in virtual seconds (default 0.02)",
    ),
    "--net-bandwidth": dict(
        type=float, default=10e6, metavar="BYTES_PER_S",
        help="channel bandwidth in bytes/virtual-second (default 10e6)",
    ),
    "--net-jitter": dict(
        type=float, default=0.0, metavar="SECONDS",
        help="uniform extra delay in [0, JITTER) per message (default 0)",
    ),
    "--net-drop": dict(
        type=float, default=0.0, metavar="P",
        help="per-message drop probability (default 0; senders retransmit)",
    ),
    "--net-reorder": dict(
        type=float, default=0.0, metavar="P",
        help="probability a message is held back and arrives late (default 0)",
    ),
    # replication
    "--replicas": dict(
        type=int, default=0, metavar="N",
        help="attach N hot-standby replicas over WAL shipping (see "
        "docs/REPLICATION.md; replicate defaults to 2)",
    ),
    "--repl-mode": dict(
        choices=["async", "semisync"], default="async",
        help="async: shipping rides between tasks, commits never wait; "
        "semisync: each commit waits for the first standby's ack",
    ),
    "--net-seed": dict(
        type=int, default=0,
        help="seed for the replication links (drops, jitter, reorders)",
    ),
    "--repl-batch": dict(
        type=int, default=8, metavar="RECORDS",
        help="max WAL records batched into one shipped frame (default 8)",
    ),
    "--resend-timeout": dict(
        type=float, default=0.25, metavar="SECONDS",
        help="go-back-N retransmission timeout in virtual seconds",
    ),
}

_WORKLOAD = ("--view", "--variant", "--delay", "--scale", "--seed")
_FAULTS = ("--faults", "--fault-seed", "--max-retries", "--retry-backoff")
_WAL = ("--wal-dir", "--checkpoint-every", "--wal-sync")
_OBS_OUT = ("--trace-out", "--stats-out")
_LINK = ("--net-latency", "--net-bandwidth", "--net-jitter", "--net-drop", "--net-reorder")
_REPLICATION = ("--replicas", "--repl-mode", "--net-seed", "--repl-batch", "--resend-timeout")


def _shared(*flags: str) -> list[argparse.ArgumentParser]:
    """A parent parser carrying the named :data:`_SHARED_FLAGS`."""
    parent = argparse.ArgumentParser(add_help=False)
    for flag in flags:
        parent.add_argument(flag, **_SHARED_FLAGS[flag])
    return [parent]


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI definition (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="STRIP rule system reproduction (SIGMOD 1997)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table 1").set_defaults(fn=_cmd_table1)

    experiment = sub.add_parser(
        "experiment",
        help="run one PTA experiment",
        parents=_shared(
            *_WORKLOAD, "--compact", *_FAULTS, *_WAL, *_OBS_OUT, "--obs",
            *_REPLICATION, *_LINK,
        ),
    )
    experiment.add_argument(
        "--cascade",
        action="store_true",
        help="run the two-level scenario: a sector rule (stratum 2) "
        "maintained over the composite rule's writes",
    )
    experiment.add_argument(
        "--sector-delay",
        type=float,
        default=None,
        help="the sector rule's after window (only with --cascade)",
    )
    experiment.add_argument("--policy", choices=["fifo", "edf", "vdf"], default="fifo")
    experiment.add_argument(
        "--processors", type=int, default=1,
        help="simulated server-pool size (default 1, the paper's setup)",
    )
    experiment.add_argument(
        "--drop-late", action="store_true",
        help="firm-deadline policy: drop tasks already past their deadline",
    )
    experiment.add_argument(
        "--update-deadline", type=float, default=None, metavar="SECONDS",
        help="give each update task a relative deadline (for edf/--drop-late)",
    )
    experiment.set_defaults(fn=_cmd_experiment)

    replicate = sub.add_parser(
        "replicate",
        help="run one PTA experiment on a WAL-shipping replication cluster "
        "(hot standbys, simulated network, optional failover drill)",
        parents=_shared(
            *_WORKLOAD, *_FAULTS, "--wal-dir", *_OBS_OUT, "--obs",
            *_REPLICATION, *_LINK,
        ),
    )
    replicate.set_defaults(fn=_cmd_replicate, replicas=2)

    serve = sub.add_parser(
        "serve",
        help="run the network front-end: protocol server with "
        "backpressure-driven admission control (simulated channels, or "
        "real asyncio sockets)",
        parents=_shared(
            "--variant", "--delay", "--scale", "--seed", *_FAULTS, *_LINK,
            "--interval", "--json-out", *_OBS_OUT,
        ),
    )
    serve.add_argument(
        "--transport", choices=["sim", "asyncio"], default="sim",
        help="sim: seeded in-process channels on the virtual clock, driven "
        "by the built-in load generator; asyncio: listen on a real socket",
    )
    serve.add_argument(
        "--clients", type=int, default=4, metavar="N",
        help="concurrent protocol sessions (sim transport; default 4)",
    )
    serve.add_argument(
        "--requests", type=int, default=40, metavar="N",
        help="quote updates per client (sim transport; default 40)",
    )
    serve.add_argument(
        "--burst-size", type=float, default=4.0, metavar="N",
        help="mean burst length of the Bleach-style quote stream",
    )
    serve.add_argument(
        "--burst-gap", type=float, default=0.5, metavar="SECONDS",
        help="mean quiet period between bursts",
    )
    serve.add_argument(
        "--intra-gap", type=float, default=0.005, metavar="SECONDS",
        help="spacing of quotes inside a burst",
    )
    serve.add_argument(
        "--ack-timeout", type=float, default=0.5, metavar="SECONDS",
        help="client retransmission timeout (sim transport)",
    )
    serve.add_argument(
        "--session-rate", type=float, default=50.0, metavar="TOKENS_PER_S",
        help="per-session token bucket refill rate (default 50)",
    )
    serve.add_argument(
        "--session-burst", type=float, default=10.0, metavar="TOKENS",
        help="per-session token bucket capacity (default 10)",
    )
    serve.add_argument(
        "--delay-at", type=float, default=0.5, metavar="PRESSURE",
        help="backpressure threshold where writes start throttling",
    )
    serve.add_argument(
        "--shed-at", type=float, default=0.85, metavar="PRESSURE",
        help="backpressure threshold where writes are rejected outright",
    )
    serve.add_argument(
        "--max-queue-depth", type=float, default=64.0, metavar="TASKS",
        help="queue depth at which the backpressure signal saturates",
    )
    serve.add_argument(
        "--max-staleness", type=float, default=10.0, metavar="SECONDS",
        help="staleness watermark at which the backpressure signal saturates",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (asyncio transport)"
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="bind port (asyncio transport; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="asyncio transport: exit after this many wall seconds "
        "(default: serve until interrupted)",
    )
    serve.set_defaults(fn=_cmd_serve, delay=0.5)

    stats = sub.add_parser(
        "stats",
        help="run one experiment under full observability: staleness "
        "percentiles, per-rule cost attribution, and the virtual-time "
        "series dashboard",
        parents=_shared(*_WORKLOAD, "--compact", "--interval", "--json-out"),
    )
    stats.add_argument(
        "--series-out", metavar="PATH",
        help="write the sampled time series as JSONL (schema: "
        "docs/schemas/stats_series.schema.json)",
    )
    stats.set_defaults(fn=_cmd_stats)

    figure = sub.add_parser(
        "figure",
        help="regenerate one paper figure",
        parents=_shared("--scale", "--seed", "--delays", *_OBS_OUT),
    )
    figure.add_argument("number", choices=sorted(_FIGURES))
    figure.set_defaults(fn=_cmd_figure)

    compaction = sub.add_parser(
        "compaction",
        help="sweep the delta-compaction fast path off vs on",
        parents=_shared("--view", "--variant", "--scale", "--seed", "--delays"),
    )
    compaction.set_defaults(fn=_cmd_compaction)

    dred = sub.add_parser(
        "dred",
        help="run the deletion-heavy workload (close-outs, delistings)",
        parents=_shared("--delay", "--seed", "--faults", "--fault-seed"),
    )
    dred.add_argument(
        "--maintenance",
        choices=["auto", "incremental", "dred", "recompute"],
        default="auto",
        help="deletion-maintenance strategy for both materialized views",
    )
    dred.add_argument("--delete-mix", type=float, default=0.4)
    dred.add_argument("--symbols", type=int, default=20)
    dred.add_argument("--positions", type=int, default=5)
    dred.add_argument("--events", type=int, default=400)
    dred.set_defaults(fn=_cmd_dred)

    fault = sub.add_parser(
        "fault",
        help="run seeded fault-injection sweeps with the oracle",
        parents=_shared(*_WORKLOAD, "--max-retries"),
    )
    fault.add_argument(
        "--plan", default=None,
        help="fault plan (default: the bench suite's DEFAULT_FAULT_PLAN)",
    )
    fault.add_argument(
        "--fault-seeds", type=int, nargs="*", metavar="SEED",
        help="injection seeds to sweep (default 0 1 2)",
    )
    fault.set_defaults(fn=_cmd_fault)

    recover = sub.add_parser(
        "recover",
        help="rebuild a crashed run from its WAL directory, drain the "
        "resurrected tasks, and run the convergence oracle",
        parents=_shared("--max-retries", "--retry-backoff"),
    )
    recover.add_argument("wal_dir", metavar="WAL_DIR")
    recover.add_argument(
        "--no-drain", action="store_true",
        help="stop after recovery; do not execute resurrected tasks or "
        "run the oracle",
    )
    recover.set_defaults(fn=_cmd_recover)

    trace = sub.add_parser(
        "trace",
        help="generate / inspect a synthetic TAQ trace",
        parents=_shared("--scale", "--seed"),
    )
    trace.add_argument("--stats", action="store_true")
    trace.add_argument("--limit", type=int, default=20)
    trace.set_defaults(fn=_cmd_trace)

    sql = sub.add_parser("sql", help="run one SQL statement against a demo db")
    sql.add_argument("statement")
    sql.set_defaults(fn=_cmd_sql)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
