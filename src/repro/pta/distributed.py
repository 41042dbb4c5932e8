"""PTA experiments with a second process or a wire around the engine.

The drivers of :mod:`repro.pta.workload` run one database on one
simulator.  The three here put the same tables, rules and trace behind
one of the stack's outer layers, on the same
:class:`~repro.pta.scaffold.ExperimentRun` scaffold:

* :func:`run_replicated_experiment` — a WAL-shipping cluster of hot
  standbys (:mod:`repro.replic`), including the **failover drill**: if a
  fault plan crashes the primary mid-run, in-flight packets land, the
  freshest standby is promoted, drained, and oracle-checked.  Runs that
  survive instead drain replication to quiescence and assert
  primary/standby equivalence row by row.
* :func:`run_network_experiment` — the quote stream arrives from
  concurrent protocol sessions over lossy simulated channels
  (:mod:`repro.net`), ending in the convergence oracle *plus* the
  server's zero-lost-acknowledged-mutations check.
* :func:`crash_recover_converge` — the durability analogue of the fault
  oracle: a process that **dies** at an arbitrary WAL or checkpoint seam
  is rebuilt from disk (:mod:`repro.persist`), drained, and must converge
  to exactly what a batch recomputation produces.

They live here, not in the packages they exercise, so that ``repro.net``,
``repro.replic`` and ``repro.fault`` never import ``repro.pta``.
"""

from __future__ import annotations

import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.database import Database
from repro.errors import InjectedCrashError
from repro.fault import ConvergenceReport, RetryPolicy, check_convergence, is_injected_crash
from repro.net.admission import AdmissionConfig
from repro.net.client import ClientStats, LoadConfig, NetClient, quote_stream
from repro.net.server import NetServer, ServerConfig
from repro.net.sim import SimNetTransport
from repro.obs.tracer import TraceCollector, Tracer
from repro.persist.recovery import RecoveryReport, recover
from repro.pta.rules import function_registry, install_comp_rule
from repro.pta.scaffold import ExperimentRun, RunOutcome
from repro.pta.tables import Scale
from repro.pta.workload import (
    populate_trace,
    run_cascade_experiment,
    run_experiment,
    trace_tasks,
    view_rule,
)
from repro.replic.channel import NetworkConfig
from repro.replic.cluster import ReplicationCluster, check_replica_equivalence
from repro.replic.failover import FailoverReport
from repro.sim.simulator import Simulator

# --------------------------------------------------------------------------
# Replication: one primary, N hot standbys
# --------------------------------------------------------------------------


@dataclass
class ReplicationResult(RunOutcome):
    """Everything one replicated run produced.  ``oracle_report`` is the
    primary-side oracle of a run that survived; a crashed run carries the
    promoted standby's verdict in ``failover`` instead."""

    mode: str
    replicas: int
    n_updates: int
    end_time: float
    shipped_frames: int
    resent_frames: int
    send_dropped: int
    ack_dropped: int
    apply_dropped: int
    reordered: int
    shipped_bytes: int
    commit_waits: int
    commit_wait_total: float
    commit_wait_max: float
    crashed: bool
    replica_stats: list[dict] = field(default_factory=list)
    #: Failover drill outcome (crash runs only).
    failover: Optional[FailoverReport] = None
    #: Per-replica row-for-row equivalence (non-crash runs).
    equivalence_reports: dict[str, ConvergenceReport] = field(
        default_factory=dict
    )

    @property
    def commit_wait_mean(self) -> float:
        return self.commit_wait_total / self.commit_waits if self.commit_waits else 0.0

    @property
    def converged(self) -> bool:
        """The run's governing correctness verdict."""
        if self.crashed:
            return self.failover is not None and self.failover.oracle_ok
        if self.oracle_report is not None and not self.oracle_report.ok:
            return False
        return all(report.ok for report in self.equivalence_reports.values())

    def row(self) -> dict:
        return {
            "mode": self.mode,
            "replicas": self.replicas,
            "n_updates": self.n_updates,
            "wal_records": self.wal_records,
            "shipped_frames": self.shipped_frames,
            "resent_frames": self.resent_frames,
            "send_dropped": self.send_dropped,
            "ack_dropped": self.ack_dropped,
            "apply_dropped": self.apply_dropped,
            "reordered": self.reordered,
            "commit_waits": self.commit_waits,
            "commit_wait_mean_s": self.commit_wait_mean,
            "crashed": self.crashed,
            "converged": self.converged,
            "end_time": self.end_time,
        }


def run_replicated_experiment(
    scale: Scale,
    view: str = "comps",
    variant: str = "unique",
    delay: float = 1.0,
    seed: int = 0,
    replicas: int = 2,
    mode: str = "async",
    wal_dir: Optional[str] = None,
    network: Optional[NetworkConfig] = None,
    net_seed: int = 0,
    batch_records: int = 8,
    resend_timeout: float = 0.25,
    faults: Optional[str] = None,
    fault_seed: int = 0,
    max_retries: int = 5,
    retry_backoff: float = 0.25,
    tracer: Optional[Tracer] = None,
    db_out: Optional[list] = None,
    cluster_out: Optional[list] = None,
) -> ReplicationResult:
    """Run one PTA experiment on a replicated cluster.

    The same trace, rules, and virtual-time simulation as
    :func:`~repro.pta.workload.run_experiment`, with a WAL-shipping
    cluster attached.  A fault plan may fault the engine *and* the
    network (``ship.send`` / ``ship.ack`` / ``apply.frame`` seams); if it
    crashes the primary (``wal.append:crash@...``), the run turns into a
    failover drill and the result carries the promotion report instead of
    the primary-side oracle.

    ``wal_dir=None`` logs into a temporary directory that is removed once
    the result is built (the result then reports ``wal_dir=None``); a
    caller-supplied directory is kept.
    """
    install_rule = view_rule(view)
    scratch = (
        tempfile.TemporaryDirectory(prefix="repro-replic-")
        if wal_dir is None
        else nullcontext(wal_dir)
    )
    with scratch as directory:
        run = ExperimentRun(
            tracer=tracer, faults=faults, fault_seed=fault_seed,
            max_retries=max_retries, retry_backoff=retry_backoff, wal_dir=directory,
        )
        db = run.db
        _trace, events = populate_trace(db, scale, seed)
        install_rule(db, variant, delay)
        run.arm()  # standbys bootstrap from the initial checkpoint
        cluster = ReplicationCluster(
            db,
            run.persist,
            replicas=replicas,
            mode=mode,
            network=network,
            net_seed=net_seed,
            batch_records=batch_records,
            resend_timeout=resend_timeout,
            functions=function_registry(),
            tracer=tracer,
        )
        run.simulator.post_task_hooks.append(cluster.pump)
        crashed = False
        try:
            run.run(trace_tasks(db, events))
        except InjectedCrashError:
            crashed = True

        failover_report: Optional[FailoverReport] = None
        equivalence: dict[str, ConvergenceReport] = {}
        if crashed:
            cluster.crash_primary()
            # A crash implies a fault plan, so db.recovery is the run's RetryPolicy.
            failover_report = cluster.failover(db.recovery)
        else:
            cluster.finish()
            for standby in cluster.standbys:
                equivalence[standby.name] = check_replica_equivalence(db, standby.db)
        outcome = run.finish(oracle=not crashed)
        if wal_dir is None:
            outcome.wal_dir = None

        ship_stats = cluster.shipper.stats()
        links = ship_stats["links"]
        result = ReplicationResult(
            mode=mode,
            replicas=replicas,
            n_updates=len(events),
            end_time=db.clock.base,
            shipped_frames=sum(link["frames_sent"] for link in links),
            resent_frames=sum(link["frames_resent"] for link in links),
            send_dropped=sum(link["send"]["dropped"] for link in links),
            ack_dropped=sum(link["ack"]["dropped"] for link in links),
            apply_dropped=ship_stats["frames_apply_dropped"],
            reordered=sum(
                link["send"]["reordered"] + link["ack"]["reordered"] for link in links
            ),
            shipped_bytes=sum(link["send"]["bytes_sent"] for link in links),
            commit_waits=cluster.commit_waits,
            commit_wait_total=cluster.commit_wait_total,
            commit_wait_max=cluster.commit_wait_max,
            crashed=crashed,
            replica_stats=cluster.lag_snapshot(),
            failover=failover_report,
            equivalence_reports=equivalence,
            **vars(outcome),
        )
    if db_out is not None:
        db_out.append(db)
    if cluster_out is not None:
        cluster_out.append(cluster)
    return result


# --------------------------------------------------------------------------
# Network: the quote stream arrives over the wire protocol
# --------------------------------------------------------------------------


@dataclass
class NetworkResult(RunOutcome):
    """One network experiment, summarised for tables and BENCH JSON."""

    n_clients: int
    requests: int
    sent: int
    acked: int
    throttled: int
    shed: int
    retransmits: int
    gave_up: int
    errors: int
    refused_connections: int
    admit_decisions: int
    throttle_decisions: int
    shed_decisions: int
    end_time: float
    throughput: float
    p50_latency: Optional[float]
    p95_latency: Optional[float]
    lost_acked: list
    channel: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        oracle_ok = self.oracle_report.ok if self.oracle_report is not None else True
        return oracle_ok and not self.lost_acked

    def row(self) -> dict:
        return {
            "clients": self.n_clients,
            "sent": self.sent,
            "acked": self.acked,
            "throttled": self.throttled,
            "shed": self.shed,
            "retransmits": self.retransmits,
            "gave_up": self.gave_up,
            "refused": self.refused_connections,
            "throughput": round(self.throughput, 2),
            "p50_ms": None if self.p50_latency is None else round(self.p50_latency * 1e3, 3),
            "p95_ms": None if self.p95_latency is None else round(self.p95_latency * 1e3, 3),
            "shed_rate": round(self.shed_decisions / max(self.sent, 1), 4),
            "oracle": "ok" if self.ok else "FAIL",
        }


def run_network_experiment(
    scale: Optional[Scale] = None,
    variant: str = "unique",
    delay: float = 0.5,
    seed: int = 0,
    n_clients: int = 4,
    requests_per_client: int = 40,
    load: Optional[LoadConfig] = None,
    network: Optional[NetworkConfig] = None,
    admission: Optional[AdmissionConfig] = None,
    ack_timeout: float = 0.5,
    max_attempts: int = 8,
    faults: Optional[str] = None,
    fault_seed: int = 0,
    max_retries: int = 5,
    retry_backoff: float = 0.25,
    until: Optional[float] = None,
    tracer: Optional[Tracer] = None,
    db_out: Optional[list] = None,
    server_out: Optional[list] = None,
    clients_out: Optional[list] = None,
) -> NetworkResult:
    """Run one PTA experiment fed entirely through the network front-end.

    The same tables, rules, and virtual-time simulation as
    :func:`~repro.pta.workload.run_experiment`, but the quote stream
    arrives from ``n_clients`` concurrent protocol sessions over lossy
    simulated channels instead of a pre-built arrivals list.  A fault
    plan may fault the network (``net.accept`` / ``net.recv`` /
    ``net.send``) and the engine (e.g. ``task.exec:kill@...`` with
    retry-based recovery) in the same run.  Ends with the convergence
    oracle and the zero-lost-acknowledged-mutations check.
    """
    scale = scale or Scale.tiny()
    load = load or LoadConfig()
    collector = tracer if isinstance(tracer, TraceCollector) else None
    if tracer is None:
        # Admission control needs the backpressure signal, which lives on
        # a collector; a harness run always has one.
        tracer = collector = TraceCollector()
    run = ExperimentRun(
        tracer=tracer, faults=faults, fault_seed=fault_seed,
        max_retries=max_retries, retry_backoff=retry_backoff,
    )
    db = run.db
    trace, _events = populate_trace(db, scale, seed)
    install_comp_rule(db, variant, delay)

    server = NetServer(
        db,
        collector=collector,
        config=ServerConfig(admission=admission or AdmissionConfig()),
    )
    clients = []
    for index in range(n_clients):
        config = replace(
            load,
            n_requests=requests_per_client,
            start=load.start + index * 0.01,  # clients do not all knock at once
        )
        quotes = quote_stream(
            trace.symbols, trace.initial_prices, seed * 6151 + index, config
        )
        clients.append(
            NetClient(
                f"client-{index}",
                quotes,
                ack_timeout=ack_timeout,
                max_attempts=max_attempts,
                start=config.start,
            )
        )
    transport = SimNetTransport(
        server, clients, network=network, seed=seed, faults=run.injector
    )
    run.simulator.post_task_hooks.append(transport.pump)
    run.run(drive=lambda simulator: transport.drive(simulator, until=until))
    for connection in transport.connections:
        if connection.session is not None:
            server.close_session(connection.session)
    outcome = run.finish(oracle=True)

    lost = server.lost_acked_mutations()
    totals = ClientStats()
    for client in clients:
        stats = client.stats
        totals.sent += stats.sent
        totals.acked += stats.acked
        totals.throttled += stats.throttled
        totals.retransmits += stats.retransmits
        totals.shed += stats.shed
        totals.errors += stats.errors
        totals.gave_up += stats.gave_up
        totals.latencies.extend(stats.latencies)
    end_time = db.clock.base
    counts = server.admission.counts()
    result = NetworkResult(
        n_clients=n_clients,
        requests=n_clients * requests_per_client,
        sent=totals.sent,
        acked=totals.acked,
        throttled=totals.throttled,
        shed=totals.shed,
        retransmits=totals.retransmits,
        gave_up=totals.gave_up,
        errors=totals.errors,
        refused_connections=server.refused,
        admit_decisions=counts["admit"],
        throttle_decisions=counts["throttle"],
        shed_decisions=counts["shed"],
        end_time=end_time,
        throughput=totals.acked / end_time if end_time > 0 else 0.0,
        p50_latency=totals.latency_quantile(0.50),
        p95_latency=totals.latency_quantile(0.95),
        lost_acked=lost,
        channel=transport.channel_stats(),
        **vars(outcome),
    )
    if db_out is not None:
        db_out.append(db)
    if server_out is not None:
        server_out.append(server)
    if clients_out is not None:
        clients_out.extend(clients)
    return result


# --------------------------------------------------------------------------
# Crash-recover-converge: kill the process, rebuild it from disk
# --------------------------------------------------------------------------


def recover_run(
    wal_dir: str, retry: Optional[RetryPolicy] = None
) -> tuple[Database, RecoveryReport]:
    """Rebuild a dead PTA run from its WAL directory into a fresh database
    (registering the PTA user functions so resurrected action bodies
    resolve; orphans spend ``retry``'s budget).  The caller drains the
    resurrected queues."""
    db = Database()
    return db, recover(db, wal_dir, functions=function_registry(), retry=retry)


@dataclass
class CrashCheckResult:
    """What one crash-recover-converge cycle observed."""

    crashed: bool  # the plan's crash actually fired mid-run
    oracle: ConvergenceReport
    crash_error: Optional[str] = None  # the injected error's message
    recovery: Optional[RecoveryReport] = None  # None when no crash fired
    executed_after: int = 0  # tasks the recovered process drained

    @property
    def ok(self) -> bool:
        return self.oracle.ok

    def describe(self) -> str:
        lines = []
        if self.crashed:
            lines.append(f"crashed: {self.crash_error}")
            if self.recovery is not None:
                lines.append(self.recovery.describe())
            lines.append(f"drained {self.executed_after} resurrected tasks")
        else:
            lines.append("crash never fired; run completed normally")
        lines.append(self.oracle.format())
        return "\n".join(lines)


def crash_recover_converge(
    scale: Scale,
    wal_dir: str,
    view: str = "comps",
    variant: str = "unique",
    delay: float = 1.0,
    seed: int = 0,
    faults: Optional[str] = None,
    fault_seed: int = 0,
    checkpoint_every: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    **experiment_kwargs,
) -> CrashCheckResult:
    """Run one crash-recover-converge cycle.

    The flow mirrors a real outage: run a durable PTA experiment under a
    fault plan containing a ``crash`` action (``wal.append`` /
    ``wal.flush`` / ``checkpoint.write`` points); if the crash fires,
    abandon the dead database, :func:`recover_run` a fresh one from the
    WAL directory — base tables, installed rules, and every pending unique
    task with its bound rows, partition key, and release deadline — drain
    the resurrected queues, and run the convergence oracle over the
    rebuilt state.  Zero divergences is the pass condition.

    If the plan never fires (e.g. the trigger count exceeds the run's WAL
    traffic), the run completes normally and its own oracle is returned
    with ``crashed=False`` so callers can tell the difference.

    Remaining keyword arguments pass straight to
    :func:`~repro.pta.workload.run_experiment` — or, when ``view`` is
    ``"cascade"``, to :func:`~repro.pta.workload.run_cascade_experiment`
    (recovered stratum-2 tasks must re-enqueue behind same-batch
    stratum-1 work, which this harness exercises).
    """
    db_out: list = []
    kwargs = dict(
        variant=variant, delay=delay, seed=seed, faults=faults,
        fault_seed=fault_seed, wal_dir=wal_dir,
        checkpoint_every=checkpoint_every, db_out=db_out, **experiment_kwargs,
    )
    try:
        if view == "cascade":
            result = run_cascade_experiment(scale, **kwargs)
        else:
            result = run_experiment(scale, view=view, **kwargs)
    except Exception as exc:
        if not is_injected_crash(exc):
            raise
        db, report = recover_run(wal_dir, retry)
        executed = Simulator(db).run()
        return CrashCheckResult(
            crashed=True,
            oracle=check_convergence(db),
            crash_error=str(exc),
            recovery=report,
            executed_after=executed,
        )
    oracle = result.oracle_report
    if oracle is None:
        oracle = check_convergence(db_out[0])
    return CrashCheckResult(crashed=False, oracle=oracle)
