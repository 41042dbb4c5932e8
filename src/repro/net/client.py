"""Client library and load generator for the network front-end.

Two pieces, both transport-agnostic:

* :func:`quote_stream` — a seeded Bleach-style workload generator: each
  client hammers a *hot subset* of symbols in bursts (geometric burst
  lengths, exponential gaps), prices follow a per-symbol random walk.
  The same seed always yields the same stream.
* :class:`NetClient` — the protocol state machine for one connection:
  assigns request ids, waits for the hello handshake before streaming,
  tracks outstanding requests, and decides *when to retransmit* — on a
  ``throttle`` response after its ``retry_after``, or on an ack timeout
  (which covers dropped requests *and* dropped acks; the server-side
  dedup makes the retransmit safe either way).

A transport drives a :class:`NetClient` with three calls: ``actions(now)``
(messages due to be sent), ``next_wake()`` (the earliest virtual time it
needs the transport back), and ``on_response(msg, now)``.  The asyncio
transport in :mod:`repro.net.aio` wraps the same machine around real
sockets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.net.protocol import PROTOCOL_VERSION

__all__ = ["ClientStats", "LoadConfig", "NetClient", "QuoteRequest", "quote_stream"]

#: Throttle answers one request sits through before the client gives it up.
MAX_THROTTLE_RETRIES = 16


@dataclass(frozen=True)
class QuoteRequest:
    """One scheduled quote: issue at ``send_time`` (virtual seconds)."""

    send_time: float
    symbol: str
    price: float


@dataclass(frozen=True)
class LoadConfig:
    """Shape of one client's quote stream.

    ``burst_size`` is the mean burst length (geometric), ``burst_gap``
    the mean quiet period between bursts (exponential), ``intra_gap``
    the spacing of quotes inside a burst — small, so bursts really do
    arrive faster than the engine drains them.  ``hot_fraction`` picks
    how much of the symbol universe this client trades.
    """

    n_requests: int = 50
    start: float = 0.0
    burst_size: float = 4.0
    burst_gap: float = 0.5
    intra_gap: float = 0.005
    hot_fraction: float = 0.25
    price_walk: float = 0.05

    def __post_init__(self) -> None:
        if self.n_requests < 0:
            raise ValueError("n_requests must be >= 0")
        if self.burst_size < 1 or self.burst_gap <= 0 or self.intra_gap < 0:
            raise ValueError("burst shape parameters out of range")
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in (0, 1]")


def quote_stream(
    symbols: list,
    initial_prices: dict,
    seed: int,
    config: LoadConfig,
) -> list[QuoteRequest]:
    """A deterministic bursty quote schedule for one client."""
    rng = random.Random(seed)
    hot_count = max(1, int(len(symbols) * config.hot_fraction))
    hot = rng.sample(list(symbols), hot_count)
    prices = {symbol: float(initial_prices[symbol]) for symbol in hot}
    quotes: list[QuoteRequest] = []
    now = config.start
    while len(quotes) < config.n_requests:
        burst = 1 + int(rng.expovariate(1.0 / max(config.burst_size - 1, 1e-9)))
        for _ in range(min(burst, config.n_requests - len(quotes))):
            symbol = rng.choice(hot)
            walk = 1.0 + rng.uniform(-config.price_walk, config.price_walk)
            prices[symbol] = round(max(prices[symbol] * walk, 0.01), 2)
            quotes.append(QuoteRequest(round(now, 6), symbol, prices[symbol]))
            now += config.intra_gap
        now += rng.expovariate(1.0 / config.burst_gap)
    return quotes


@dataclass
class ClientStats:
    """What one client observed, for the benchmark and the oracle."""

    sent: int = 0
    acked: int = 0
    throttled: int = 0
    retransmits: int = 0
    shed: int = 0
    errors: int = 0
    gave_up: int = 0
    latencies: list = field(default_factory=list)

    def latency_quantile(self, q: float) -> Optional[float]:
        if not self.latencies:
            return None
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def row(self) -> dict:
        return {
            "sent": self.sent,
            "acked": self.acked,
            "throttled": self.throttled,
            "retransmits": self.retransmits,
            "shed": self.shed,
            "errors": self.errors,
            "gave_up": self.gave_up,
            "p50_latency": self.latency_quantile(0.50),
            "p95_latency": self.latency_quantile(0.95),
        }


class _Pending:
    __slots__ = (
        "msg",
        "first_sent",
        "attempts",
        "throttle_retries",
        "throttle_wait",
        "resend_at",
    )

    def __init__(self, msg: dict, now: float, resend_at: float) -> None:
        self.msg = msg
        self.first_sent = now
        self.attempts = 1
        self.throttle_retries = 0
        # True while resend_at is a server retry_after hint rather than a
        # silence timeout: those resends don't consume timeout attempts.
        self.throttle_wait = False
        self.resend_at = resend_at


class NetClient:
    """The retransmitting protocol state machine for one connection."""

    def __init__(
        self,
        name: str,
        quotes: list[QuoteRequest],
        ack_timeout: float = 0.5,
        max_attempts: int = 8,
        start: float = 0.0,
    ) -> None:
        self.name = name
        self.start = start
        self.queue = list(quotes)
        self.queue.sort(key=lambda quote: quote.send_time)
        self.ack_timeout = ack_timeout
        self.max_attempts = max_attempts
        self.stats = ClientStats()
        self.state = "init"  # init -> hello -> streaming -> done
        self.version: Optional[int] = None
        self.pending: dict[int, _Pending] = {}
        self._next_id = 1
        self._cursor = 0  # next queue entry to issue
        self._sent_bye = False

    # ----------------------------------------------------------- transport

    def actions(self, now: float) -> list[dict]:
        """Messages due at ``now``: fresh sends, retransmits, the bye."""
        out: list[dict] = []
        if self.state == "init" and now >= self.start:
            hello = {"t": "hello", "id": 0, "v": PROTOCOL_VERSION, "client": self.name}
            self.pending[0] = _Pending(hello, now, now + self.ack_timeout)
            self.state = "hello"
            self.stats.sent += 1
            out.append(hello)
        if self.state == "streaming":
            while self._cursor < len(self.queue) and self.queue[self._cursor].send_time <= now:
                quote = self.queue[self._cursor]
                self._cursor += 1
                msg = {
                    "t": "update",
                    "id": self._next_id,
                    "symbol": quote.symbol,
                    "price": quote.price,
                    "ts": quote.send_time,
                }
                self._next_id += 1
                self.pending[msg["id"]] = _Pending(msg, now, now + self.ack_timeout)
                self.stats.sent += 1
                out.append(msg)
        # Retransmission sweep — timeout-based, so it covers a dropped
        # request, a dropped ack, and a throttle whose retry_after passed.
        for request_id in sorted(self.pending):
            entry = self.pending[request_id]
            if entry.resend_at > now:
                continue
            if entry.throttle_wait:
                # Honouring the server's retry_after is polite back-off,
                # not a lost message: it never consumes timeout attempts.
                entry.throttle_wait = False
            elif entry.attempts >= self.max_attempts:
                del self.pending[request_id]
                self.stats.gave_up += 1
                continue
            else:
                entry.attempts += 1
            entry.resend_at = now + self.ack_timeout
            self.stats.retransmits += 1
            out.append(entry.msg)
        if (
            self.state == "streaming"
            and not self._sent_bye
            and self._cursor >= len(self.queue)
            and not self.pending
        ):
            self._sent_bye = True
            self.state = "done"
            out.append({"t": "bye", "id": self._next_id})
            self._next_id += 1
        return out

    def next_wake(self) -> Optional[float]:
        """Earliest virtual time this client needs to act, or None."""
        if self.state == "done":
            return None
        if self.state == "init":
            return self.start
        times = [entry.resend_at for entry in self.pending.values()]
        if self.state == "streaming" and self._cursor < len(self.queue):
            times.append(self.queue[self._cursor].send_time)
        if self.state == "streaming" and not times and not self._sent_bye:
            return 0.0  # due now: nothing outstanding, so say bye
        return min(times) if times else None

    def on_response(self, msg: dict, now: float) -> None:
        request_id = msg.get("id")
        entry = self.pending.get(request_id)
        if entry is None:
            return  # duplicate ack after our own retransmit: already settled
        kind = msg.get("t")
        if kind == "ok":
            del self.pending[request_id]
            if request_id == 0:
                self.version = msg.get("v", PROTOCOL_VERSION)
                self.state = "streaming"
            else:
                self.stats.acked += 1
                self.stats.latencies.append(now - entry.first_sent)
        elif kind == "throttle":
            self.stats.throttled += 1
            entry.throttle_retries += 1
            if entry.throttle_retries > MAX_THROTTLE_RETRIES:
                del self.pending[request_id]
                self.stats.gave_up += 1
            else:
                # Obey the server's hint; the retransmission sweep
                # re-sends once retry_after has elapsed.
                entry.throttle_wait = True
                entry.resend_at = now + max(float(msg.get("retry_after", 0.0)), 1e-3)
        elif kind == "error":
            del self.pending[request_id]
            if request_id == 0:
                self.state = "done"  # negotiation failed: nothing to stream
                self.stats.errors += 1
            elif msg.get("shed"):
                self.stats.shed += 1
            else:
                self.stats.errors += 1
