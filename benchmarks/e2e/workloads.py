"""The four workloads: seeded inputs, set-up, the timed run, verification.

Every workload is one process, one thread, no sockets.  Arrivals follow a
seeded *virtual*-time schedule; in wall-clock terms that is a closed loop
with one caller, so the numbers are work completed per second at a stated
input size.  Inputs are generated once per seed, outside every timed
section; each repetition builds a fresh ``Database`` from them.

The harness stays outside the program: inputs go in through public APIs,
and the only instrumentation in the untraced path is a clock read at the
start and end of each harness-owned task body and around each maintenance
function (re-registered through ``db.register_function``).
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from dataclasses import replace
from typing import Any, Callable, Optional

from repro.database import Database
from repro.errors import StripError
from repro.fault import check_convergence
from repro.net.admission import AdmissionConfig
from repro.net.client import LoadConfig, NetClient, QuoteRequest, quote_stream
from repro.net.server import NetServer, ServerConfig
from repro.net.sim import SimNetTransport
from repro.obs.tracer import TraceCollector
from repro.persist import recover
from repro.persist.manager import PersistenceManager
from repro.pta.rules import function_registry, install_comp_rule, install_option_rule
from repro.pta.tables import Scale, populate
from repro.pta.trace import zipf_weights
from repro.replic.channel import NetworkConfig
from repro.replic.cluster import ReplicationCluster, check_replica_equivalence
from repro.sim.simulator import Simulator
from repro.txn.tasks import Task
from repro.txn.transaction import TransactionState
from repro.views.maintain import materialize

from benchmarks.e2e.trace import SpanRecorder

_clock = time.perf_counter_ns

#: WAL directories live here: inside the checkout, ignored by git.
WORK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")


class Rep:
    """Live state of one repetition."""

    def __init__(self, db: Database, spans: Optional[SpanRecorder]) -> None:
        self.db = db
        self.spans = spans
        self.simulator = Simulator(db)
        self.ops = 0  # input operations this repetition attempts
        self.failed = 0  # harness-owned task bodies that raised
        self.tasks: list[Task] = []  # the arrivals handed to the simulator
        self.op_ns: list[int] = []  # wall ns per write operation
        self.read_ns: list[int] = []  # wall ns per read operation
        self.maint_ns = 0  # wall ns inside triggered maintenance functions
        self.maint_functions: list[str] = []
        self.view_plans: list = []
        # wire_wal_replica only
        self.collector: Optional[TraceCollector] = None
        self.persist: Optional[PersistenceManager] = None
        self.cluster: Optional[ReplicationCluster] = None
        self.server: Optional[NetServer] = None
        self.transport: Optional[SimNetTransport] = None
        self.clients: list[NetClient] = []
        self.checkpoint_s = 0.0
        self.recover_s = 0.0

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` under a span in the traced repetition, untouched otherwise."""
        return fn if self.spans is None else self.spans.span(name, fn)

    def time_maintenance(self, function_name: str, span_name: str) -> None:
        """Re-register a rule's user function under a wall-clock timer."""
        fn = self.db.functions.get(function_name)

        def timed(ctx) -> None:
            start = _clock()
            try:
                fn(ctx)
            finally:
                self.maint_ns += _clock() - start

        self.db.register_function(function_name, self.wrap(span_name, timed), replace=True)
        self.maint_functions.append(function_name)

    def timed_body(self, samples: list[int], work: Callable) -> Callable:
        """A task body — begin, ``work(txn)``, commit — whose wall time from
        begin to the far side of commit lands in ``samples``."""
        db = self.db

        def body(task: Task) -> None:
            start = _clock()
            txn = db.begin(task)
            try:
                work(txn)
                txn.commit()
            except StripError:
                if txn.state is TransactionState.ACTIVE:
                    txn.abort()
                self.failed += 1
            samples.append(_clock() - start)

        return self.wrap("bench.body", body)


class Workload:
    """One named workload; subclasses fill in the five phases."""

    name = ""
    why = ""
    reps = 1  # untraced repetitions of a full (non-smoke) run

    def inputs(self, seed: int, smoke: bool) -> Any:
        """Everything derived from the seed; shared by all repetitions."""
        raise NotImplementedError

    def setup(self, inputs: Any, spans: Optional[SpanRecorder]) -> Rep:
        """Schema, population, rules, tasks — timed as ``setup_s``."""
        raise NotImplementedError

    def run(self, rep: Rep) -> None:
        """The timed section: arrivals in, quiescence out."""
        rep.simulator.run(arrivals=rep.tasks)

    def verify(self, rep: Rep) -> int:
        """Divergent derived rows (plus, on the wire, lost or unacknowledged
        writes); 0 means the repetition's outputs are correct."""
        return len(check_convergence(rep.db).divergences)

    def teardown(self, rep: Rep) -> None:
        pass


def fingerprint(rep: Rep) -> dict:
    """The virtual-time result of a repetition.  Perf work must not move it:
    identical across repetitions, and for seeds 0 and 1 equal to
    expected_virtual.json."""
    db = rep.db
    summaries = [
        db.metrics.by_class.get(f"recompute:{name}") for name in rep.maint_functions
    ]
    return {
        "recomputes": sum(db.metrics.count(f"recompute:{name}") for name in rep.maint_functions),
        "clock_base": db.clock.base,
        "batched_firings": db.unique_manager.batch_count,
        "rule_firings": db.rule_engine.firing_count,
        "bound_rows": sum(s.total_bound_rows for s in summaries if s is not None),
    }


# --------------------------------------------------------------------- PTA


def _population(scale: Scale) -> tuple:
    """``populate``'s trace / events / seed arguments.  The database is the
    same for every ``--seed`` — the seed drives the operation stream only —
    so that which stocks sit in many composites or carry many options (and
    with it the latency tail) does not change from one seed to the next."""
    reference = scale.make_trace(seed=0)
    return reference, reference.generate(), 0


def _quote_work(db: Database, stocks, symbol: str, price: float) -> Callable:
    """The Table 1 simple-update path, by cursor (the same charges as
    ``repro.pta.workload``'s update body, so virtual results match)."""

    def work(txn) -> None:
        db.charge("cursor_open")
        db.charge("index_probe")
        record = stocks.get_one("symbol", symbol)
        db.charge("cursor_fetch")
        if record is not None and record.values[1] != price:
            txn.update_columns(stocks, record, {"price": price})
        db.charge("cursor_close")

    return work


class PtaWorkload(Workload):
    """The paper's trace replayed as one update task per quote."""

    def __init__(
        self, name: str, why: str, reps: int, view: str, variant: str,
        collector: bool = False,
    ) -> None:
        self.name, self.why, self.reps = name, why, reps
        self.view, self.variant = view, variant
        #: Attach a TraceCollector instead of the default NullTracer (the
        #: observability-overhead pair; virtual results must not move).
        self.collector = collector

    def inputs(self, seed: int, smoke: bool) -> Any:
        scale = Scale.tiny() if smoke else Scale.small()
        return scale, _population(scale), scale.make_trace(seed=seed).generate()

    def setup(self, inputs: Any, spans: Optional[SpanRecorder]) -> Rep:
        scale, population, events = inputs
        db = Database(tracer=TraceCollector() if self.collector else None)
        db.metrics.set_keep_records(False)
        rep = Rep(db, spans)
        populate(db, scale, *population)
        install = install_comp_rule if self.view == "comps" else install_option_rule
        rep.time_maintenance(install(db, self.variant, 1.0), "pta.function")
        stocks = db.catalog.table("stocks")
        rep.tasks = [
            Task(
                body=rep.timed_body(
                    rep.op_ns, _quote_work(db, stocks, event.symbol, event.price)
                ),
                klass="update",
                release_time=event.time,
                created_time=event.time,
                value=10.0,
                estimated_cpu=200e-6,
            )
            for event in events
        ]
        rep.ops = len(events)
        return rep


# --------------------------------------------------------------- SQL views

_SQL_SCALE = {False: (400, 2000, 6000, 120.0), True: (40, 200, 400, 20.0)}

_WRITE_PRICE = "update stocks set price = :price where symbol = :symbol"
_WRITE_OPEN = "insert into positions values (:pos_id, :symbol, :shares)"
_WRITE_CLOSE = "delete from positions where pos_id = :pos_id"
_READ_EXPOSURE = "select exposure from symbol_exposure where symbol = :symbol"
_READ_POSITIONS = "select pos_id, value from position_values where symbol = :symbol"
_READ_TOP = "select symbol, exposure from symbol_exposure order by exposure desc limit 10"


def _sql_ops(seed: int, smoke: bool) -> dict:
    """A schedule of SQL operations over live state: 70 % writes (60/20/20
    price update / position insert / position delete), 30 % reads, symbols
    Zipf-distributed.  Deletes always name a live position.

    How the database grows — which slot holds which kind of operation, the
    symbol of each inserted position, the position each delete names — is
    fixed like the database itself; the seed drives which symbol each price
    update and read names, the prices, the shares and the read statements.
    The slowest writes are price updates of the hottest symbol late in the
    run, and cost what that symbol's position count then is: seeded growth
    moved op_p99_us / op_p50_us between 4.9 and 6.0 from seed to seed
    (spread 0.10; 0.03 with the growth fixed)."""
    n_symbols, n_positions, n_ops, duration = _SQL_SCALE[smoke]
    fixed, rng = random.Random(0), random.Random(seed)  # database / stream
    symbols = [f"S{i:03d}" for i in range(n_symbols)]
    weights = zipf_weights(n_symbols, 1.0)
    stocks = [(symbol, round(fixed.uniform(10.0, 200.0), 2)) for symbol in symbols]
    positions = [
        (f"P{i:05d}", symbols[i % n_symbols], float(fixed.randrange(1, 100)))
        for i in range(n_positions)
    ]
    live = [pos_id for pos_id, _symbol, _shares in positions]
    hot = rng.choices(symbols, weights=weights, k=n_ops)
    grown = fixed.choices(symbols, weights=weights, k=n_ops)
    ops = []
    for k in range(n_ops):
        when = (k + 1) * duration / n_ops
        symbol = hot[k]
        if fixed.random() < 0.7:
            pick = fixed.random()
            if pick >= 0.8 and live:
                params = {"pos_id": live.pop(fixed.randrange(len(live)))}
                ops.append((when, True, _WRITE_CLOSE, params))
            elif pick >= 0.6:
                pos_id = f"X{k:05d}"
                live.append(pos_id)
                params = {
                    "pos_id": pos_id, "symbol": grown[k], "shares": float(rng.randrange(1, 100)),
                }
                ops.append((when, True, _WRITE_OPEN, params))
            else:
                params = {"symbol": symbol, "price": round(rng.uniform(10.0, 200.0), 2)}
                ops.append((when, True, _WRITE_PRICE, params))
        else:
            sql = rng.choice((_READ_EXPOSURE, _READ_POSITIONS, _READ_TOP))
            ops.append((when, False, sql, {} if sql is _READ_TOP else {"symbol": symbol}))
    return {"stocks": stocks, "positions": positions, "ops": ops}


def _write_work(sql: str, params: dict) -> Callable:
    def work(txn) -> None:
        if txn.execute(sql, params) != 1:
            raise StripError(f"write touched no row: {sql} {params}")

    return work


def _read_work(sql: str, params: dict) -> Callable:
    def work(txn) -> None:
        txn.query(sql, params).rows()

    return work


class SqlViewsMixed(Workload):
    name = "sql_views_mixed"
    why = (
        "SQL text in, two maintained views out, 30 % reads of derived data beside "
        "the writes: the only load on parse/plan caches, DML, view deltas and deletes"
    )
    reps = 6

    def inputs(self, seed: int, smoke: bool) -> Any:
        return _sql_ops(seed, smoke)

    def setup(self, inputs: Any, spans: Optional[SpanRecorder]) -> Rep:
        db = Database()
        db.metrics.set_keep_records(False)
        rep = Rep(db, spans)
        db.execute_script(
            """
            create table stocks (symbol text, price real);
            create index stocks_symbol on stocks (symbol);
            create table positions (pos_id text, symbol text, shares real);
            create index positions_pos on positions (pos_id);
            create index positions_symbol on positions (symbol);
            """
        )
        txn = db.begin()
        for row in inputs["stocks"]:
            txn.insert("stocks", row)
        for row in inputs["positions"]:
            txn.insert("positions", row)
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
        rep.view_plans = [
            materialize(db, "position_values", unique=True, delay=0.5, key=("pos_id",)),
            materialize(db, "symbol_exposure", unique=True, unique_on=("symbol",), delay=0.5),
        ]
        # Derived tables are indexed on their read keys, as
        # pta.tables.create_schema does for comp_prices.
        db.execute_script(
            """
            create index position_values_pos on position_values (pos_id);
            create index position_values_symbol on position_values (symbol);
            create index symbol_exposure_symbol on symbol_exposure (symbol);
            """
        )
        for plan in rep.view_plans:
            rep.time_maintenance(plan.function_name, "views.maint")
        rep.tasks = [
            Task(
                body=(
                    rep.timed_body(rep.op_ns, _write_work(sql, params))
                    if is_write
                    else rep.timed_body(rep.read_ns, _read_work(sql, params))
                ),
                klass="write" if is_write else "read",
                release_time=when,
                created_time=when,
            )
            for when, is_write, sql, params in inputs["ops"]
        ]
        rep.ops = len(rep.tasks)
        return rep


# ---------------------------------------------------------- wire + WAL + replica


def _seeded_quotes(
    schedule: list[QuoteRequest], symbols: list, initial_prices: dict, seed: int
) -> list[QuoteRequest]:
    """``schedule``'s send times with seeded symbols and prices: the symbol
    choice and per-symbol price walk of ``quote_stream``."""
    rng = random.Random(seed)
    walk = LoadConfig.price_walk
    prices = {symbol: float(initial_prices[symbol]) for symbol in symbols}
    quotes = []
    for slot in schedule:
        symbol = rng.choice(symbols)
        step = 1.0 + rng.uniform(-walk, walk)
        prices[symbol] = round(max(prices[symbol] * step, 0.01), 2)
        quotes.append(QuoteRequest(slot.send_time, symbol, prices[symbol]))
    return quotes


class WireWalReplica(Workload):
    name = "wire_wal_replica"
    why = (
        "the whole path: bursty binary-framed clients, admission, import feed, rules, "
        "WAL flush per commit, async standby apply; the only load on net/persist/replic/obs"
    )
    reps = 6

    def inputs(self, seed: int, smoke: bool) -> Any:
        scale = Scale.tiny() if smoke else Scale.small()
        population = _population(scale)
        trace = population[0]
        # Each client trades a quarter of the symbols.  Which quarter, and
        # when its bursts arrive, is fixed per client like the database; the
        # seed drives which symbol each quote names and its price.  Burst
        # lengths are geometric, so the latency tail is the few longest
        # bursts, and how many a schedule holds moved op_p99_us / op_p50_us
        # between 2.6 and 3.2 from seed to seed (spread 0.13; 0.06 with the
        # schedule fixed).
        load = LoadConfig(
            n_requests=100 if smoke else 2000, burst_size=4, burst_gap=0.4,
            intra_gap=0.01, hot_fraction=1.0,
        )
        streams = []
        for index in range(2):
            symbols = random.Random(index).sample(trace.symbols, len(trace.symbols) // 4)
            schedule = quote_stream(
                symbols, trace.initial_prices, index, replace(load, start=index * 0.01)
            )
            streams.append(
                _seeded_quotes(schedule, symbols, trace.initial_prices, seed * 6151 + index)
            )
        return scale, population, seed, streams

    def setup(self, inputs: Any, spans: Optional[SpanRecorder]) -> Rep:
        scale, population, seed, streams = inputs
        os.makedirs(WORK_DIR, exist_ok=True)
        wal_dir = tempfile.mkdtemp(prefix="wal-", dir=WORK_DIR)
        # sync=False: flushed to the OS per commit, no fsync — the same on
        # both sides of any comparison.
        persist = PersistenceManager(wal_dir, checkpoint_every=None, sync=False)
        persist.enabled = False  # set-up goes into the initial checkpoint
        collector = TraceCollector()  # admission control polls its backpressure
        db = Database(tracer=collector, persist=persist)
        db.metrics.set_keep_records(False)
        rep = Rep(db, spans)
        rep.collector, rep.persist = collector, persist
        populate(db, scale, *population)
        rep.time_maintenance(install_comp_rule(db, "unique", 0.5), "pta.function")
        persist.enabled = True
        start = _clock()
        persist.checkpoint()
        rep.checkpoint_s = (_clock() - start) / 1e9
        rep.cluster = ReplicationCluster(
            db, persist, replicas=1, mode="async", net_seed=seed,
            functions=function_registry(), tracer=collector,
        )
        rep.server = NetServer(
            db,
            collector=collector,
            config=ServerConfig(admission=AdmissionConfig(session_rate=200, session_burst=40)),
        )
        rep.clients = [
            NetClient(f"client-{index}", quotes, start=index * 0.01)
            for index, quotes in enumerate(streams)
        ]
        rep.transport = SimNetTransport(
            rep.server,
            rep.clients,
            network=NetworkConfig(latency=0.005, bandwidth=10e6, jitter=0.002),
            seed=seed,
        )
        self._stamp_writes(rep)
        rep.simulator.post_task_hooks.extend([rep.transport.pump, rep.cluster.pump])
        rep.ops = sum(len(quotes) for quotes in streams)
        return rep

    @staticmethod
    def _stamp_writes(rep: Rep) -> None:
        """Clock each write from ``NetServer.handle`` first receiving it to
        its ``on_ack`` callback, keyed by (session, request id)."""
        server = rep.server
        received: dict[tuple, int] = {}
        handle, on_ack = server.handle, server.on_ack

        def stamped_handle(session, msg, now):
            if isinstance(msg, dict) and msg.get("t") == "update":
                received.setdefault((session.name, msg.get("id")), _clock())
            return handle(session, msg, now)

        def stamped_ack(session, response, task):
            start = received.pop((session.name, response["id"]), None)
            if start is not None:
                rep.op_ns.append(_clock() - start)
            on_ack(session, response, task)

        server.handle, server.on_ack = stamped_handle, stamped_ack

    def run(self, rep: Rep) -> None:
        rep.transport.drive(rep.simulator)
        rep.cluster.finish()

    def verify(self, rep: Rep) -> int:
        db, standby = rep.db, rep.cluster.standbys[0]
        wrong = (
            rep.ops - sum(client.stats.acked for client in rep.clients)  # never acknowledged
            + len(check_convergence(db).divergences)
            + len(rep.server.lost_acked_mutations())
            + len(check_replica_equivalence(db, standby.db).divergences)
        )
        if rep.spans is not None:
            # Crash-recovery cost, and proof that the WAL alone rebuilds the
            # primary: a fresh Database recovered from this run's directory.
            rep.persist.close()
            recovered = Database()
            start = _clock()
            recover(recovered, rep.persist.wal_dir, functions=function_registry())
            rep.recover_s = (_clock() - start) / 1e9
            wrong += len(check_replica_equivalence(db, recovered).divergences)
        return wrong

    def teardown(self, rep: Rep) -> None:
        rep.persist.close()
        shutil.rmtree(rep.persist.wal_dir, ignore_errors=True)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        PtaWorkload(
            "pta_comps_unique",
            "paper Fig. 9-11: high fan-in, coarse batching; rule processing and "
            "bound-table append inside each update's commit dominate",
            9, "comps", "unique",
        ),
        PtaWorkload(
            "pta_options_on_symbol",
            "paper Fig. 12-14: high fan-out, per-symbol batching; user functions, "
            "record writes and task turnover dominate, bound-table append is minor",
            5, "options", "on_symbol",
        ),
        SqlViewsMixed(),
        WireWalReplica(),
    )
}
