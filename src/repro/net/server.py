"""The transport-agnostic network server core.

:class:`NetServer` owns everything a transport does not: sessions,
protocol dispatch, admission control, and the bridge from accepted
writes into the engine's task flow.  A transport (simulated channels in
:mod:`repro.net.sim`, real asyncio sockets in :mod:`repro.net.aio`)
feeds it decoded request dicts and ships back the response dicts it
returns.

The write path is the same one internal workloads use: an admitted
``update`` becomes an :class:`~repro.io.feed.ImportFeed` task submitted
to the scheduler, so its commit runs rule processing, staleness stamps,
the WAL, and replication exactly like a simulator-driven quote.  The
``ok`` acknowledgement is sent only *after* that commit — the body of
the generated task is wrapped so the ack fires on the far side of
``txn.commit()``.  A client that never sees an ``ok`` may retransmit
the same request id; the server dedups by ``(session, id)`` and
re-sends the cached acknowledgement, which together make "zero lost
acknowledged mutations" a property of the protocol rather than a hope.

Fault seam: ``net.accept`` (connection refused at :meth:`open_session`).
The per-message seams ``net.recv`` / ``net.send`` live in the transports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import StripError
from repro.io.feed import FeedRecord, ImportFeed, quote_feed
from repro.net.admission import ADMIT, SHED, AdmissionConfig, AdmissionController, TokenBucket
from repro.net.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    error_response,
    negotiate_version,
    ok_response,
    rows_response,
    throttle_response,
    validate_request,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.database import Database
    from repro.txn.tasks import Task

__all__ = ["AckRecord", "NetServer", "ServerConfig", "Session"]


@dataclass(frozen=True)
class ServerConfig:
    """Server-side knobs shared by both transports."""

    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    max_sessions: int = 64
    server_name: str = "strip"


@dataclass(frozen=True)
class AckRecord:
    """One acknowledged mutation, for the zero-lost-acks oracle:
    the ack promised this write; ``commit_seq`` orders the promises."""

    session: str
    request_id: int
    symbol: Optional[str]
    price: Optional[float]
    commit_seq: int
    time: float


class Session:
    """Per-connection state: identity, negotiated protocol, rate bucket,
    and the dedup window of completed request ids."""

    __slots__ = (
        "name",
        "version",
        "bucket",
        "done",
        "inflight",
        "closed",
        "received",
        "responded",
    )

    def __init__(self, name: str, bucket: TokenBucket) -> None:
        self.name = name
        self.version: Optional[int] = None
        self.bucket = bucket
        #: request id -> cached response (re-sent verbatim on retransmit).
        self.done: dict[int, dict] = {}
        #: admitted ids whose commit (and ack) is still pending.
        self.inflight: set[int] = set()
        self.closed = False
        self.received = 0
        self.responded = 0


class NetServer:
    """Protocol dispatch + admission + the feed bridge into the engine.

    ``on_ack(session, response, task)`` is the transport's delivery hook
    for deferred write acknowledgements; it runs inside the committing
    task's body, immediately after the commit.
    """

    def __init__(
        self,
        db: "Database",
        collector=None,
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.db = db
        self.config = config or ServerConfig()
        self.collector = collector
        self.admission = AdmissionController(
            self.config.admission, collector=collector, tracer=db.tracer
        )
        # Quote updates ride the same handler the PTA's market feed uses;
        # the distinct klass keeps them identifiable in traces and metrics.
        self.quotes: ImportFeed = quote_feed(db)
        self.quotes.klass = "net.update"
        self.sql_writes = ImportFeed(db, self._sql_handler, klass="net.sql")
        self.sessions: dict[str, Session] = {}
        self.acked: list[AckRecord] = []
        self.refused = 0
        self.on_ack: Callable[[Session, dict, "Task"], None] = lambda s, r, t: None
        self._stocks = db.catalog.table("stocks")
        self._symbol_offset = self._stocks.schema.offset("symbol")

    def _sql_handler(self, txn, payload: Any) -> None:
        self.db.execute_in_txn(payload, txn)

    # ------------------------------------------------------------ sessions

    def open_session(self, name: str) -> Optional[Session]:
        """Accept (or refuse) one connection; ``None`` means refused.

        Refusal paths: an armed ``net.accept`` drop fault, or the
        ``max_sessions`` limit.  Both are traced as ``refused``.
        """
        now = self.db.clock.now()
        tracer = self.db.tracer
        faults = self.db.faults
        live = sum(1 for s in self.sessions.values() if not s.closed)
        refused = live >= self.config.max_sessions
        if not refused and faults.enabled and faults.check("net.accept", name):
            refused = True
        if refused:
            self.refused += 1
            if tracer.enabled:
                tracer.net_session(name, "refused", now)
            return None
        admission = self.config.admission
        session = Session(
            name, TokenBucket(admission.session_rate, admission.session_burst, now)
        )
        self.sessions[name] = session
        if tracer.enabled:
            tracer.net_session(name, "open", now)
        return session

    def close_session(self, session: Session) -> None:
        if not session.closed:
            session.closed = True
            if self.db.tracer.enabled:
                self.db.tracer.net_session(session.name, "close", self.db.clock.now())

    # ------------------------------------------------------------ dispatch

    def handle(self, session: Session, msg: Any, now: float) -> Optional[dict]:
        """One request in, at most one immediate response out.

        Admitted writes return ``None`` here: their ``ok`` is deferred to
        the commit of the task this call submitted, and arrives through
        ``on_ack``.
        """
        session.received += 1
        try:
            msg = validate_request(msg)
        except ProtocolError as exc:
            request_id = msg.get("id") if isinstance(msg, dict) else None
            return self._respond(
                session, error_response(request_id if isinstance(request_id, int) else 0, str(exc)), now
            )
        kind = msg["t"]
        if kind == "hello":
            return self._respond(session, self._hello(session, msg), now)
        if session.version is None:
            return self._respond(
                session, error_response(msg["id"], "hello required before any request"), now
            )
        if kind == "bye":
            self.close_session(session)
            return self._respond(session, ok_response(msg["id"], bye=True), now)
        if kind == "sql":
            return self._sql(session, msg, now)
        return self._update(session, msg, now)

    def _respond(self, session: Session, response: dict, now: float) -> dict:
        session.responded += 1
        if self.db.tracer.enabled:
            self.db.tracer.net_response(session.name, response["t"], None, now)
        return response

    def _hello(self, session: Session, msg: dict) -> dict:
        try:
            version = negotiate_version(msg)
        except ProtocolError as exc:
            session.closed = True
            return error_response(msg["id"], str(exc))
        session.version = version
        return ok_response(
            msg["id"], v=version, server=f"{self.config.server_name}/{PROTOCOL_VERSION}"
        )

    # --------------------------------------------------------------- reads

    def _sql(self, session: Session, msg: dict, now: float) -> Optional[dict]:
        sql = msg["q"]
        head = sql.lstrip().split(None, 1)[0].lower() if sql.strip() else ""
        if head == "select":
            try:
                result = self.db.query(sql)
            except StripError as exc:
                return self._respond(session, error_response(msg["id"], str(exc)), now)
            return self._respond(
                session,
                rows_response(msg["id"], result.column_names, result.rows()),
                now,
            )
        if head in ("insert", "update", "delete"):
            return self._write(session, msg, self.sql_writes, sql, now)
        return self._respond(
            session,
            error_response(msg["id"], f"statement {head!r} not allowed over the wire"),
            now,
        )

    # -------------------------------------------------------------- writes

    def _update(self, session: Session, msg: dict, now: float) -> Optional[dict]:
        symbol = msg["symbol"]
        # Pre-validate so a typo'd symbol is a protocol error back to the
        # client, not an aborted engine task.
        if self._stocks.get_one("symbol", symbol) is None:
            return self._respond(
                session, error_response(msg["id"], f"unknown symbol {symbol!r}"), now
            )
        return self._write(session, msg, self.quotes, (symbol, float(msg["price"])), now)

    def _write(
        self,
        session: Session,
        msg: dict,
        feed: ImportFeed,
        payload: Any,
        now: float,
    ) -> Optional[dict]:
        request_id = msg["id"]
        cached = session.done.get(request_id)
        if cached is not None:
            # Retransmit of a completed write: re-ack, never re-apply.
            return self._respond(session, cached, now)
        if request_id in session.inflight:
            # Retransmit racing its own commit: the deferred ack covers it.
            return None
        decision, retry_after, pressure = self.admission.decide(
            session.name, session.bucket, now
        )
        if decision is not ADMIT:
            if decision is SHED:
                return self._respond(
                    session,
                    error_response(
                        request_id, f"write shed (backpressure {pressure:.2f})", shed=True
                    ),
                    now,
                )
            reason = "backpressure" if pressure >= self.config.admission.delay_at else "rate"
            return self._respond(
                session, throttle_response(request_id, retry_after, reason), now
            )
        task = feed.task_for(FeedRecord(now, payload))
        session.inflight.add(request_id)
        inner = task.body
        symbol, price = payload if feed is self.quotes else (None, None)

        def body(t: "Task") -> None:
            inner(t)
            self._commit_ack(session, request_id, symbol, price, t)

        task.body = body
        self.db.submit(task)
        return None

    def _commit_ack(
        self,
        session: Session,
        request_id: int,
        symbol: Optional[str],
        price: Optional[float],
        task: "Task",
    ) -> None:
        """Runs inside the task body, just after the commit: cache the
        ack for retransmits, record it for the oracle, hand it to the
        transport."""
        now = self.db.clock.now()
        commit_seq = self.db.last_commit_seq
        response = ok_response(request_id, commit_seq=commit_seq)
        session.inflight.discard(request_id)
        session.done[request_id] = response
        self.acked.append(
            AckRecord(session.name, request_id, symbol, price, commit_seq, now)
        )
        if self.db.tracer.enabled:
            self.db.tracer.net_response(session.name, "ok", None, now)
        session.responded += 1
        self.on_ack(session, response, task)

    # ------------------------------------------------------------- helpers

    def expected_prices(self) -> dict[str, float]:
        """Last acknowledged price per symbol, by commit order — what the
        stocks table must show if no acknowledged mutation was lost."""
        latest: dict[str, AckRecord] = {}
        for ack in self.acked:
            if ack.symbol is None:
                continue
            best = latest.get(ack.symbol)
            if best is None or ack.commit_seq > best.commit_seq:
                latest[ack.symbol] = ack
        return {symbol: ack.price for symbol, ack in latest.items()}

    def lost_acked_mutations(self) -> list[str]:
        """Symbols whose table price contradicts the last acked write.

        A non-empty result means an acknowledged mutation vanished —
        the one thing the ack protocol exists to prevent.
        """
        price_offset = self._stocks.schema.offset("price")
        lost = []
        for symbol, price in self.expected_prices().items():
            record = self._stocks.get_one("symbol", symbol)
            if record is None or record.values[price_offset] != price:
                lost.append(symbol)
        return sorted(lost)

    def stats(self) -> dict:
        return {
            "sessions": len(self.sessions),
            "refused": self.refused,
            "received": sum(s.received for s in self.sessions.values()),
            "responded": sum(s.responded for s in self.sessions.values()),
            "acked": len(self.acked),
            **self.admission.counts(),
        }
