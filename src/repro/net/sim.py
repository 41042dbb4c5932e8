"""The simulated transport: clients and server on the virtual clock.

:class:`SimNetTransport` runs N client connections against one
:class:`~repro.net.server.NetServer` entirely on the **virtual clock**,
reusing the replication layer's :class:`~repro.replic.channel.SimChannel`
model for both directions of every connection: requests ride a channel
answering to the ``net.recv`` fault seam, responses one answering to
``net.send``.  Latency, bandwidth, jitter, probabilistic drop and
reordering all apply per message; every message really is encoded to
binary frames and decoded through a streaming
:class:`~repro.net.protocol.FrameDecoder` on arrival, so the wire codec
is exercised end to end.

The co-simulation has two gears, exactly like replication:

* a **post-task hook** on the simulator delivers everything due each
  time a task finishes (including the deferred commit acks that task
  just produced), and
* an outer **drive loop** advances the engine clock to the next pending
  network event whenever the simulator drains — clients keep bursting
  even when the engine is idle.

Everything is seeded: same seeds, same fault plan, same run.  The
PTA-workload harness on top is the ``NETWORKED`` spec in the
experiment layer; nothing in this package imports a workload.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.net.client import NetClient
from repro.net.protocol import FrameDecoder, encode_message
from repro.net.server import NetServer, Session
from repro.replic.channel import NetworkConfig, SimChannel
from repro.sim.simulator import Simulator

__all__ = ["SimNetTransport"]

#: Loop guard of :meth:`SimNetTransport.drive`: a run that has not gone idle
#: after this many clock jumps is stuck, not busy.
MAX_DRIVE_STEPS = 1_000_000


class _Connection:
    """One client's two channels, decoders, and wake bookkeeping."""

    __slots__ = (
        "client",
        "session",
        "req_channel",
        "resp_channel",
        "to_server",
        "to_client",
        "scheduled_wake",
        "refused",
    )

    def __init__(
        self,
        client: NetClient,
        session: Optional[Session],
        req_channel: SimChannel,
        resp_channel: SimChannel,
    ) -> None:
        self.client = client
        self.session = session
        self.req_channel = req_channel
        self.resp_channel = resp_channel
        self.to_server = FrameDecoder()  # reassembles frames at the server
        self.to_client = FrameDecoder()  # reassembles frames at the client
        self.scheduled_wake: Optional[float] = None
        self.refused = session is None


class SimNetTransport:
    """Event-driven delivery of frames between clients and the server."""

    def __init__(
        self,
        server: NetServer,
        clients: list[NetClient],
        network: Optional[NetworkConfig] = None,
        seed: int = 0,
        faults=None,
    ) -> None:
        self.server = server
        self.network = network or NetworkConfig()
        self.connections: list[_Connection] = []
        self._events: list[tuple] = []  # (time, seq, kind, conn, bytes)
        self._seq = 0
        self._pending_acks: list[tuple[Session, dict]] = []
        server.on_ack = lambda session, response, task: self._pending_acks.append(
            (session, response)
        )
        self._by_session: dict[str, _Connection] = {}
        for index, client in enumerate(clients):
            session = server.open_session(client.name)
            connection = _Connection(
                client,
                session,
                SimChannel(
                    self.network,
                    seed=seed * 7919 + 2 * index,
                    point="net.recv",
                    label=client.name,
                    faults=faults,
                ),
                SimChannel(
                    self.network,
                    seed=seed * 7919 + 2 * index + 1,
                    point="net.send",
                    label=client.name,
                    faults=faults,
                ),
            )
            self.connections.append(connection)
            if session is not None:
                self._by_session[session.name] = connection
                self._schedule_wake(connection, client.next_wake())

    # -------------------------------------------------------------- events

    def _push(self, when: float, kind: str, connection: _Connection, data) -> None:
        self._seq += 1
        heapq.heappush(self._events, (when, self._seq, kind, connection, data))

    def _schedule_wake(self, connection: _Connection, when: Optional[float]) -> None:
        if when is None or connection.refused:
            return
        if connection.scheduled_wake is not None and connection.scheduled_wake <= when:
            return
        connection.scheduled_wake = when
        self._push(when, "wake", connection, None)

    def next_event_time(self) -> Optional[float]:
        return self._events[0][0] if self._events else None

    @property
    def idle(self) -> bool:
        return not self._events and not self._pending_acks

    # ------------------------------------------------------------ delivery

    def pump(self, now: float) -> None:
        """Deliver everything due at ``now``.  Installed as a simulator
        post-task hook and called by the drive loop between runs."""
        self._flush_acks(now)
        while self._events and self._events[0][0] <= now + 1e-12:
            when, _, kind, connection, data = heapq.heappop(self._events)
            if kind == "req":
                self._deliver_request(connection, data, when)
            elif kind == "resp":
                self._deliver_response(connection, data, when)
            else:  # wake
                connection.scheduled_wake = None
                self._run_client(connection, when)
            self._flush_acks(now)

    def _flush_acks(self, now: float) -> None:
        while self._pending_acks:
            session, response = self._pending_acks.pop(0)
            connection = self._by_session.get(session.name)
            if connection is not None:
                self._send_response(connection, response, now)

    def _deliver_request(self, connection: _Connection, data: bytes, now: float) -> None:
        for msg in connection.to_server.feed(data):
            response = self.server.handle(connection.session, msg, now)
            if response is not None:
                self._send_response(connection, response, now)

    def _send_response(self, connection: _Connection, response: dict, now: float) -> None:
        encoded = encode_message(response)
        arrival = connection.resp_channel.send(len(encoded), now)
        if arrival is not None:
            self._push(arrival, "resp", connection, encoded)

    def _deliver_response(self, connection: _Connection, data: bytes, now: float) -> None:
        for msg in connection.to_client.feed(data):
            connection.client.on_response(msg, now)
        self._run_client(connection, now)

    def _run_client(self, connection: _Connection, now: float) -> None:
        if connection.refused:
            return
        for msg in connection.client.actions(now):
            encoded = encode_message(msg)
            arrival = connection.req_channel.send(len(encoded), now)
            if arrival is not None:
                self._push(arrival, "req", connection, encoded)
        self._schedule_wake(connection, connection.client.next_wake())

    # --------------------------------------------------------------- drive

    def drive(self, simulator: Simulator, until: Optional[float] = None) -> int:
        """Co-simulate engine and network to quiescence; returns tasks
        executed.  The simulator drains the task queues (the pump hook
        delivering between tasks); when it runs dry the clock jumps to
        the next pending network event."""
        db = self.server.db
        executed = 0
        for _ in range(MAX_DRIVE_STEPS):
            executed += simulator.run(until=until, arrivals=[])
            self.pump(db.clock.now())
            when = self.next_event_time()
            if when is None:
                if self.idle:
                    break
                continue
            if until is not None and when > until:
                break
            db.clock.set_base(max(db.clock.base, when))
            self.pump(db.clock.now())
        return executed

    def channel_stats(self) -> dict:
        totals = {"sent": 0, "dropped": 0, "fault_dropped": 0, "reordered": 0, "bytes_sent": 0}
        for connection in self.connections:
            for channel in (connection.req_channel, connection.resp_channel):
                for key, value in channel.stats().items():
                    totals[key] += value
        return totals
