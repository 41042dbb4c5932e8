"""PTA experiments with a second process or a wire around the engine.

The specs of :mod:`repro.pta.workload` run one database on one simulator.
The two here put the same tables, rules and trace behind one of the
stack's outer layers, on the same :class:`~repro.pta.scaffold.Spec` runner:

* :data:`REPLICATED` — a WAL-shipping cluster of hot standbys
  (:mod:`repro.replic`), including the **failover drill**: if a fault plan
  crashes the primary mid-run, in-flight packets land, the freshest
  standby is promoted, drained, and oracle-checked.  Runs that survive
  instead drain replication to quiescence and assert primary/standby
  equivalence row by row.
* :data:`NETWORKED` — the quote stream arrives from concurrent protocol
  sessions over lossy simulated channels (:mod:`repro.net`), ending in the
  convergence oracle *plus* the server's zero-lost-acknowledged-mutations
  check.

:func:`recover_run` rebuilds a run that died from its WAL directory.  They
live here, not in the packages they exercise, so that ``repro.net``,
``repro.replic`` and ``repro.fault`` never import ``repro.pta``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional

from repro.database import Database
from repro.errors import InjectedCrashError
from repro.fault import RetryPolicy
from repro.net.admission import AdmissionConfig
from repro.net.client import ClientStats, LoadConfig, NetClient, quote_stream
from repro.net.server import NetServer, ServerConfig
from repro.net.sim import SimNetTransport
from repro.obs.tracer import TraceCollector
from repro.persist.recovery import RecoveryReport, recover
from repro.pta.rules import function_registry, install_comp_rule
from repro.pta.scaffold import FAULT_OPTIONS, ExperimentRun, Metric, Result, Spec, outcome
from repro.pta.tables import Scale
from repro.pta.workload import N_UPDATES, populate_trace, trace_tasks, view_rule
from repro.replic.cluster import ReplicationCluster, check_replica_equivalence

# --------------------------------------------------------------------------
# Replication: one primary, N hot standbys
# --------------------------------------------------------------------------


def _play_replicated(run: ExperimentRun, options: dict) -> dict:
    """Attach the cluster once the run is armed, replay the quotes; on an
    injected crash, fail over, else drain and compare every standby."""
    db, o = run.db, options
    install_rule = view_rule(o["view"])
    _trace, events = populate_trace(db, o["scale"], o["seed"])
    install_rule(db, o["variant"], o["delay"])
    run.arm()  # standbys bootstrap from the initial checkpoint
    cluster = ReplicationCluster(
        db,
        run.persist,
        replicas=o["replicas"],
        mode=o["mode"],
        network=o["network"],
        net_seed=o["net_seed"],
        batch_records=o["batch_records"],
        resend_timeout=o["resend_timeout"],
        functions=function_registry(),
        tracer=o["tracer"],
    )
    run.simulator.post_task_hooks.append(cluster.pump)
    crashed = False
    try:
        run.run(trace_tasks(db, events))
    except InjectedCrashError:
        crashed = True
    failover = None
    equivalence = {}
    if crashed:
        cluster.crash_primary()
        # A crash implies a fault plan, so db.recovery is the run's RetryPolicy.
        failover = cluster.failover(db.recovery)
    else:
        cluster.finish()
        for standby in cluster.standbys:
            equivalence[standby.name] = check_replica_equivalence(db, standby.db)
    run.finish(oracle=not crashed)
    return dict(
        events=events, cluster=cluster, crashed=crashed, failover=failover,
        equivalence_reports=equivalence,
    )


def _links(read: Callable[[dict], int]) -> Callable[[Result], int]:
    """One shipping counter, summed over the cluster's links."""
    return lambda r: sum(read(link) for link in r.cluster.shipper.stats()["links"])


def _converged(r: Result) -> bool:
    """The run's governing correctness verdict: the promoted standby's
    oracle after a crash, else the primary's oracle and every standby's
    row-for-row equivalence."""
    if r.crashed:
        return r.failover is not None and r.failover.oracle_ok
    if r.oracle_report is not None and not r.oracle_report.ok:
        return False
    return all(report.ok for report in r.equivalence_reports.values())


#: One PTA run on a replicated cluster: the same trace, rules and
#: virtual-time simulation as :data:`~repro.pta.workload.VIEW`, with a
#: WAL-shipping cluster attached.  A fault plan may fault the engine *and*
#: the network (``ship.send`` / ``ship.ack`` / ``apply.frame`` seams); if it
#: crashes the primary (``wal.append:crash@...``), the run turns into a
#: failover drill and ``failover`` carries the promotion report instead of
#: the primary-side oracle.  Without ``wal_dir`` the run logs into a
#: temporary directory that goes with it (``wal_dir`` reads None).
REPLICATED = Spec(
    "a replicated experiment",
    params=dict(
        scale=Scale.tiny(), view="comps", variant="unique", delay=1.0, seed=0,
        replicas=2, mode="async", network=None, net_seed=0, batch_records=8,
        resend_timeout=0.25,
    ),
    takes=FAULT_OPTIONS | {"tracer", "wal_dir"},
    play=_play_replicated,
    scratch_wal="repro-replic-",
    metrics=(
        Metric("mode", column="mode"),
        Metric("replicas", column="replicas"),
        N_UPDATES,
        *outcome("wal_records"),
        Metric("shipped_frames", _links(lambda link: link["frames_sent"]), "shipped_frames"),
        Metric("resent_frames", _links(lambda link: link["frames_resent"]), "resent_frames"),
        Metric("send_dropped", _links(lambda link: link["send"]["dropped"]), "send_dropped"),
        Metric("ack_dropped", _links(lambda link: link["ack"]["dropped"]), "ack_dropped"),
        Metric(
            "apply_dropped",
            lambda r: r.cluster.shipper.stats()["frames_apply_dropped"],
            "apply_dropped",
        ),
        Metric(
            "reordered",
            _links(lambda link: link["send"]["reordered"] + link["ack"]["reordered"]),
            "reordered",
        ),
        Metric("commit_waits", lambda r: r.cluster.commit_waits, "commit_waits"),
        Metric(
            "commit_wait_mean",
            lambda r: r.commit_wait_total / r.commit_waits if r.commit_waits else 0.0,
            "commit_wait_mean_s",
        ),
        Metric("crashed", column="crashed"),
        Metric("converged", _converged, "converged"),
        Metric("end_time", lambda r: r.run.db.clock.base, "end_time"),
        Metric("shipped_bytes", _links(lambda link: link["send"]["bytes_sent"])),
        Metric("commit_wait_total", lambda r: r.cluster.commit_wait_total),
        Metric("commit_wait_max", lambda r: r.cluster.commit_wait_max),
        Metric("replica_stats", lambda r: r.cluster.lag_snapshot()),
        Metric("failover"),  # the drill's report (crash runs only)
        Metric("equivalence_reports"),  # per replica, row for row (other runs)
    ),
)


# --------------------------------------------------------------------------
# Network: the quote stream arrives over the wire protocol
# --------------------------------------------------------------------------


def _play_networked(run: ExperimentRun, options: dict) -> dict:
    """Serve ``n_clients`` seeded quote streams over simulated channels,
    close every session, finish with the oracle."""
    db, o = run.db, options
    load = o["load"] or LoadConfig()
    trace, _events = populate_trace(db, o["scale"], o["seed"])
    install_comp_rule(db, o["variant"], o["delay"])
    server = NetServer(
        db,
        # Admission control reads the backpressure signal off a collector.
        collector=db.tracer if isinstance(db.tracer, TraceCollector) else None,
        config=ServerConfig(admission=o["admission"] or AdmissionConfig()),
    )
    clients = []
    for index in range(o["n_clients"]):
        config = replace(
            load,
            n_requests=o["requests_per_client"],
            start=load.start + index * 0.01,  # clients do not all knock at once
        )
        quotes = quote_stream(
            trace.symbols, trace.initial_prices, o["seed"] * 6151 + index, config
        )
        clients.append(
            NetClient(
                f"client-{index}",
                quotes,
                ack_timeout=o["ack_timeout"],
                max_attempts=o["max_attempts"],
                start=config.start,
            )
        )
    transport = SimNetTransport(
        server, clients, network=o["network"], seed=o["seed"], faults=run.injector
    )
    run.simulator.post_task_hooks.append(transport.pump)
    run.run(drive=lambda simulator: transport.drive(simulator, until=o["until"]))
    for connection in transport.connections:
        if connection.session is not None:
            server.close_session(connection.session)
    run.finish(oracle=True)
    totals = ClientStats()
    for client in clients:
        for name, value in vars(client.stats).items():
            setattr(totals, name, getattr(totals, name) + value)
    return dict(server=server, clients=clients, transport=transport, totals=totals)


def _total(name: str) -> Callable[[Result], int]:
    return lambda r: getattr(r.totals, name)


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else round(seconds * 1e3, 3)


def _decisions(kind: str) -> Callable[[Result], int]:
    return lambda r: r.server.admission.counts()[kind]


#: One PTA run fed entirely through the network front-end: the same tables,
#: rules and virtual-time simulation as :data:`~repro.pta.workload.VIEW`, but
#: the quote stream arrives from ``n_clients`` concurrent protocol sessions
#: over lossy simulated channels.  A fault plan may fault the network
#: (``net.accept`` / ``net.recv`` / ``net.send``) and the engine (e.g.
#: ``task.exec:kill@...`` with retry-based recovery) in the same run.
NETWORKED = Spec(
    "a networked experiment",
    params=dict(
        scale=Scale.tiny(), variant="unique", delay=0.5, seed=0, n_clients=4,
        requests_per_client=40, load=None, network=None, admission=None,
        ack_timeout=0.5, max_attempts=8, until=None,
    ),
    takes=FAULT_OPTIONS | {"tracer"},
    play=_play_networked,
    collector=True,
    metrics=(
        Metric("n_clients", column="clients"),
        Metric("sent", _total("sent"), "sent"),
        Metric("acked", _total("acked"), "acked"),
        Metric("throttled", _total("throttled"), "throttled"),
        Metric("shed", _total("shed"), "shed"),
        Metric("retransmits", _total("retransmits"), "retransmits"),
        Metric("gave_up", _total("gave_up"), "gave_up"),
        Metric("refused_connections", lambda r: r.server.refused, "refused"),
        Metric(
            "throughput",
            lambda r: r.acked / r.end_time if r.end_time > 0 else 0.0,
            "throughput", lambda value: round(value, 2),
        ),
        Metric("p50_latency", lambda r: r.totals.latency_quantile(0.50), "p50_ms", _ms),
        Metric("p95_latency", lambda r: r.totals.latency_quantile(0.95), "p95_ms", _ms),
        Metric(
            "shed_rate",
            lambda r: round(r.shed_decisions / max(r.sent, 1), 4),
            "shed_rate",
        ),
        Metric(  # the oracle and zero lost acknowledged mutations
            "ok",
            lambda r: (r.oracle_report is None or r.oracle_report.ok) and not r.lost_acked,
            "oracle", lambda ok: "ok" if ok else "FAIL",
        ),
        Metric("requests", lambda r: r.n_clients * r.options["requests_per_client"]),
        Metric("errors", _total("errors")),
        Metric("admit_decisions", _decisions("admit")),
        Metric("throttle_decisions", _decisions("throttle")),
        Metric("shed_decisions", _decisions("shed")),
        Metric("end_time", lambda r: r.run.db.clock.base),
        Metric("lost_acked", lambda r: r.server.lost_acked_mutations()),
        Metric("channel", lambda r: r.transport.channel_stats()),
        *outcome(),
    ),
)


def recover_run(
    wal_dir: str, retry: Optional[RetryPolicy] = None
) -> tuple[Database, RecoveryReport]:
    """Rebuild a dead PTA run from its WAL directory into a fresh database
    (registering the PTA user functions so resurrected action bodies
    resolve; orphans spend ``retry``'s budget).  The caller drains the
    resurrected queues."""
    db = Database()
    return db, recover(db, wal_dir, functions=function_registry(), retry=retry)
