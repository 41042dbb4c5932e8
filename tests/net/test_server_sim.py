"""End-to-end network runs over simulated channels, plus server-core units.

The module-scoped runs are the acceptance battery: concurrent clients on
the binary protocol over lossy channels with an engine kill fault, a 10x
overload burst, and a shed-inducing configuration — each ending in the
convergence oracle and the zero-lost-acknowledged-mutations check.
"""

import pytest

from repro.database import Database
from repro.fault import FaultInjector, RetryPolicy
from repro.net import AdmissionConfig, LoadConfig, NetServer, ServerConfig
from repro.obs import TraceCollector, TimeSeriesSampler
from repro.pta.distributed import NETWORKED
from repro.replic import NetworkConfig
from repro.sim.simulator import Simulator

LOSSY = NetworkConfig(latency=0.005, bandwidth=10e6, jitter=0.01, drop=0.08, reorder=0.15)


@pytest.fixture(scope="module")
def lossy_run():
    """4 concurrent clients, binary frames, drop + reorder + a crash fault."""
    result = NETWORKED.run(
        seed=3,
        n_clients=4,
        requests_per_client=20,
        network=LOSSY,
        faults="task.exec[net.update]:kill@nth=7",
        max_retries=5,
    )
    return result, result.server, result.clients


@pytest.fixture(scope="module")
def overload_run():
    """8 clients bursting ~10x faster than the engine drains."""
    collector = TraceCollector()
    result = NETWORKED.run(
        seed=11,
        n_clients=8,
        requests_per_client=25,
        load=LoadConfig(burst_size=20.0, burst_gap=0.05, intra_gap=0.001),
        tracer=collector,
    )
    return result, collector


class TestLossyEndToEnd:
    def test_every_mutation_acked_and_converged(self, lossy_run):
        result, _server, _clients = lossy_run
        assert result.acked == result.requests == 80
        assert result.lost_acked == []
        assert result.oracle_report.ok
        assert result.ok

    def test_the_network_really_was_hostile(self, lossy_run):
        result, _server, _clients = lossy_run
        assert result.channel["dropped"] > 0
        assert result.channel["reordered"] > 0
        assert result.retransmits > 0  # drops forced retransmission

    def test_the_kill_fault_really_fired(self, lossy_run):
        result, _server, _clients = lossy_run
        assert result.faults_injected >= 1

    def test_retransmits_never_double_apply(self, lossy_run):
        """Dedup means acks == requests even though the wire carried
        more than one copy of some of them."""
        result, server, _clients = lossy_run
        assert len(server.acked) == result.requests
        assert len({(a.session, a.request_id) for a in server.acked}) == result.requests

    def test_determinism_same_seed_same_run(self, lossy_run):
        result, _server, _clients = lossy_run
        again = NETWORKED.run(
            seed=3,
            n_clients=4,
            requests_per_client=20,
            network=LOSSY,
            faults="task.exec[net.update]:kill@nth=7",
            max_retries=5,
        )
        assert again.row() == result.row()
        assert again.end_time == result.end_time
        assert again.channel == result.channel


class TestOverload:
    def test_throttles_instead_of_growing_queues(self, overload_run):
        result, collector = overload_run
        assert result.throttle_decisions > 0
        # The scheduler queues stayed bounded: no sampled depth ever
        # approached the saturation point of the backpressure signal.
        depths = [s["queue_depth"] for s in collector.timeseries.samples]
        assert depths and max(depths) < collector.timeseries.max_queue_depth

    def test_no_acknowledged_mutation_was_lost(self, overload_run):
        result, _collector = overload_run
        assert result.lost_acked == []
        assert result.oracle_report.ok
        assert result.ok

    def test_clients_observed_the_throttling(self, overload_run):
        result, _collector = overload_run
        assert result.throttled > 0
        assert result.acked > 0


class TestShed:
    def test_overload_past_shed_at_rejects_writes(self):
        """With delay_at above the single-task pressure step, back-to-back
        admissions stack queue depth past shed_at inside one delivery
        batch — the controller must shed, not just throttle.  This is the
        shedding posture: it really sheds and still loses nothing."""
        collector = TraceCollector(
            timeseries=TimeSeriesSampler(interval=0.25, max_queue_depth=2.0)
        )
        result = NETWORKED.run(
            seed=7,
            n_clients=6,
            requests_per_client=25,
            load=LoadConfig(burst_size=15.0, burst_gap=0.1, intra_gap=0.005),
            admission=AdmissionConfig(
                session_rate=40.0, session_burst=5.0, delay_at=0.55, shed_at=0.8
            ),
            tracer=collector,
        )
        assert result.ok, result.row()
        assert result.shed_decisions > 0, result.row()
        assert result.throttle_decisions > 0, result.row()  # the token buckets, at least
        assert not result.lost_acked, result.lost_acked
        assert result.shed > 0  # clients saw the shed errors
        counters = collector.rollup().counters
        assert counters["net_shed"] == result.shed_decisions
        assert counters["net_throttle"] == result.throttle_decisions


# --------------------------------------------------------------- unit level


@pytest.fixture
def db():
    database = Database()
    database.execute_script(
        """
        create table stocks (symbol text, price real);
        create index stocks_symbol on stocks (symbol);
        insert into stocks values ('A', 10.0), ('B', 20.0);
        """
    )
    return database


def drain(db):
    return Simulator(db).run(arrivals=[])


def open_streaming(server, name="c1"):
    session = server.open_session(name)
    hello = server.handle(session, {"t": "hello", "id": 0, "v": 1}, now=0.0)
    assert hello["t"] == "ok"
    return session


class TestServerCore:
    def test_hello_negotiates_and_names_the_server(self, db):
        server = NetServer(db)
        session = server.open_session("c1")
        response = server.handle(session, {"t": "hello", "id": 0, "v": 5}, now=0.0)
        assert response == {"t": "ok", "id": 0, "v": 1, "server": "strip/1"}
        assert session.version == 1

    def test_no_shared_version_closes_the_session(self, db):
        server = NetServer(db)
        session = server.open_session("c1")
        # v=0 is malformed per the shape check; a valid-but-unknown future
        # protocol is modelled by mutating SUPPORTED_VERSIONS, so here we
        # just assert the malformed offer errors without negotiating.
        response = server.handle(session, {"t": "hello", "id": 0, "v": 0}, now=0.0)
        assert response["t"] == "error"
        assert session.version is None

    def test_requests_before_hello_are_rejected(self, db):
        server = NetServer(db)
        session = server.open_session("c1")
        response = server.handle(
            session, {"t": "update", "id": 1, "symbol": "A", "price": 11.0}, now=0.0
        )
        assert response["t"] == "error"
        assert "hello" in response["error"]

    def test_ack_arrives_only_after_the_commit(self, db):
        server = NetServer(db)
        session = open_streaming(server)
        acks = []
        server.on_ack = lambda s, r, t: acks.append(r)
        response = server.handle(
            session, {"t": "update", "id": 1, "symbol": "A", "price": 11.0}, now=0.0
        )
        assert response is None  # deferred: nothing to say yet
        assert acks == []
        drain(db)
        assert len(acks) == 1
        assert acks[0]["t"] == "ok" and acks[0]["id"] == 1
        assert db.query("select price from stocks where symbol = 'A'").scalar() == 11.0

    def test_retransmit_reacks_without_reapplying(self, db):
        server = NetServer(db)
        session = open_streaming(server)
        msg = {"t": "update", "id": 1, "symbol": "A", "price": 11.0}
        assert server.handle(session, msg, now=0.0) is None
        drain(db)
        commits = db.last_commit_seq
        cached = server.handle(session, dict(msg), now=0.5)
        assert cached["t"] == "ok" and cached["id"] == 1
        drain(db)
        assert db.last_commit_seq == commits  # no second transaction
        assert len(server.acked) == 1

    def test_retransmit_racing_its_commit_stays_silent(self, db):
        server = NetServer(db)
        session = open_streaming(server)
        msg = {"t": "update", "id": 1, "symbol": "A", "price": 11.0}
        server.handle(session, msg, now=0.0)
        # Second copy lands before the task commits: the deferred ack
        # covers both, so no duplicate task and no immediate response.
        assert server.handle(session, dict(msg), now=0.0) is None
        assert drain(db) == 1

    def test_unknown_symbol_is_a_protocol_error_not_a_task(self, db):
        server = NetServer(db)
        session = open_streaming(server)
        response = server.handle(
            session, {"t": "update", "id": 1, "symbol": "ZZZ", "price": 1.0}, now=0.0
        )
        assert response["t"] == "error"
        assert drain(db) == 0

    @pytest.mark.parametrize("price", [10**400, float("nan"), float("inf"), True],
                             ids=["huge-int", "nan", "inf", "true"])
    def test_a_hostile_price_is_a_typed_error_and_submits_nothing(self, db, price):
        server = NetServer(db)
        session = open_streaming(server)
        response = server.handle(
            session, {"t": "update", "id": 1, "symbol": "A", "price": price}, now=0.0
        )
        assert response["t"] == "error" and response["id"] == 1
        assert "finite numeric 'price'" in response["error"]
        assert drain(db) == 0
        assert db.query("select price from stocks where symbol = 'A'").scalar() == 10.0

    def test_select_over_the_wire(self, db):
        server = NetServer(db)
        session = open_streaming(server)
        response = server.handle(
            session,
            {"t": "sql", "id": 2, "q": "select symbol, price from stocks"},
            now=0.0,
        )
        assert response["t"] == "rows"
        assert response["cols"] == ["symbol", "price"]
        assert sorted(response["rows"]) == [["A", 10.0], ["B", 20.0]]

    def test_sql_write_rides_the_feed(self, db):
        server = NetServer(db)
        session = open_streaming(server)
        response = server.handle(
            session,
            {"t": "sql", "id": 3, "q": "update stocks set price = 33.0 where symbol = 'B'"},
            now=0.0,
        )
        assert response is None  # a write: ack deferred to the commit
        drain(db)
        assert session.done[3]["t"] == "ok"
        assert db.query("select price from stocks where symbol = 'B'").scalar() == 33.0

    def test_ddl_is_refused(self, db):
        server = NetServer(db)
        session = open_streaming(server)
        response = server.handle(
            session, {"t": "sql", "id": 4, "q": "create table x (a int)"}, now=0.0
        )
        assert response["t"] == "error"
        assert "not allowed" in response["error"]

    def test_bye_closes_the_session(self, db):
        server = NetServer(db)
        session = open_streaming(server)
        response = server.handle(session, {"t": "bye", "id": 9}, now=0.0)
        assert response == {"t": "ok", "id": 9, "bye": True}
        assert session.closed

    def test_session_limit_refuses_connections(self, db):
        server = NetServer(db, config=ServerConfig(max_sessions=2))
        assert server.open_session("a") is not None
        assert server.open_session("b") is not None
        assert server.open_session("c") is None
        assert server.refused == 1

    def test_refused_connections_are_counted(self):
        collector = TraceCollector()
        db = Database(tracer=collector)
        db.execute("create table stocks (symbol text, price real)")
        server = NetServer(db, config=ServerConfig(max_sessions=1))
        assert server.open_session("a") is not None
        assert server.open_session("b") is None
        counters = collector.rollup().counters
        assert counters["net_sessions"] == 1
        assert counters["net_refused_connections"] == server.refused == 1

    def test_net_accept_fault_refuses_connections(self):
        injector = FaultInjector("net.accept:drop@nth=1", seed=0)
        db = Database(faults=injector, recovery=RetryPolicy())
        db.execute("create table stocks (symbol text, price real)")
        db.execute("create index stocks_symbol on stocks (symbol)")
        server = NetServer(db)
        assert server.open_session("a") is None  # first attempt faulted
        assert server.open_session("b") is not None
        assert server.refused == 1

    def test_lost_acked_mutations_catches_a_rollback(self, db):
        """The oracle really fires: forge an ack the table contradicts."""
        server = NetServer(db)
        session = open_streaming(server)
        server.handle(
            session, {"t": "update", "id": 1, "symbol": "A", "price": 11.0}, now=0.0
        )
        drain(db)
        assert server.lost_acked_mutations() == []
        db.execute("update stocks set price = 99.0 where symbol = 'A'")
        assert server.lost_acked_mutations() == ["A"]
