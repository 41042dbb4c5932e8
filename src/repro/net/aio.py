"""Real sockets: the asyncio transport for the network front-end.

The same :class:`~repro.net.server.NetServer` core that the simulated
transport drives, behind an :mod:`asyncio` stream server.  The engine
still runs on its virtual clock: each batch of decoded requests is
handed to the core, then a :class:`~repro.sim.simulator.Simulator`
drains the task queues to quiescence before responses flush — the
event loop interleaves *connections*, while engine work stays serial
(the engine is single-threaded by design, so this is the honest
concurrency model, not a limitation bolted on).

One framing: every connection is a stream of the binary frames of
:mod:`repro.net.protocol`.  A peer that sends anything else fails the
frame check in its first read and is hung up on; acknowledgements for
admitted writes flush after the drain that committed them.

:class:`AsyncNetClient` is the matching stdlib client used by the tests
and the ``repro serve`` smoke path.  It retries throttled writes after
the server's ``retry_after`` and retransmits on ack timeout; server-side
request-id dedup makes the retransmits idempotent.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.net.protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    ProtocolError,
    encode_message,
)
from repro.net.server import NetServer, Session
from repro.sim.simulator import Simulator

__all__ = ["AsyncNetClient", "AsyncNetServer"]


class AsyncNetServer:
    """One listening socket in front of one engine."""

    def __init__(
        self, core: NetServer, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.core = core
        self.host = host
        self.port = port
        self.simulator = Simulator(core.db)
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: dict[str, asyncio.StreamWriter] = {}
        self._outbox: dict[str, list[dict]] = {}
        self._peers = 0
        core.on_ack = self._on_ack

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._serve, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ---------------------------------------------------------- engine I/O

    def _on_ack(self, session: Session, response: dict, task) -> None:
        self._outbox.setdefault(session.name, []).append(response)

    def _drain_engine(self) -> None:
        """Run queued tasks (and their rule cascades) to quiescence; the
        deferred commit acks land in the outbox as bodies finish."""
        self.simulator.run(arrivals=[])

    def _flush(self, session: Session) -> None:
        writer = self._writers.get(session.name)
        pending = self._outbox.pop(session.name, [])
        if writer is None:
            return
        for response in pending:
            writer.write(encode_message(response))

    # --------------------------------------------------------- connections

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._peers += 1
        name = f"peer-{self._peers}"
        session = self.core.open_session(name)
        if session is None:
            writer.close()  # refused: net.accept fault or session limit
            return
        self._writers[name] = writer
        decoder = FrameDecoder()
        try:
            while not session.closed:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                for msg in decoder.feed(chunk):
                    self._dispatch(session, msg, writer)
                await writer.drain()
        except (ConnectionError, FrameError, asyncio.IncompleteReadError):
            pass
        finally:
            self.core.close_session(session)
            self._writers.pop(name, None)
            self._outbox.pop(name, None)
            try:
                writer.close()
            except Exception:  # pragma: no cover - platform-dependent teardown
                pass

    def _dispatch(self, session: Session, msg: dict, writer: asyncio.StreamWriter) -> None:
        response = self.core.handle(session, msg, self.core.db.clock.now())
        if response is not None:
            writer.write(encode_message(response))
        self._drain_engine()
        self._flush(session)


class AsyncNetClient:
    """A binary-framing client for :class:`AsyncNetServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        name: str = "client",
        ack_timeout: float = 2.0,
        max_attempts: int = 5,
    ) -> None:
        self.host = host
        self.port = port
        self.name = name
        self.ack_timeout = ack_timeout
        self.max_attempts = max_attempts
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.decoder = FrameDecoder()
        self.version: Optional[int] = None
        self._next_id = 1
        self._responses: dict[int, dict] = {}
        self.throttled = 0
        self.retransmits = 0

    async def connect(self) -> dict:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        hello = {"t": "hello", "id": 0, "v": PROTOCOL_VERSION, "client": self.name}
        response = await self._call(hello)
        if response.get("t") != "ok":
            raise ProtocolError(f"handshake refused: {response}")
        self.version = response.get("v")
        return response

    async def update(self, symbol: str, price: float) -> dict:
        """One quote; resolves to the final ``ok``/``error`` after any
        throttle waits and retransmits."""
        msg = {"t": "update", "id": self._take_id(), "symbol": symbol, "price": price}
        return await self._call_write(msg)

    async def sql(self, query: str) -> dict:
        head = query.lstrip().split(None, 1)[0].lower() if query.strip() else ""
        msg = {"t": "sql", "id": self._take_id(), "q": query}
        if head in ("insert", "update", "delete"):
            return await self._call_write(msg)
        return await self._call(msg)

    async def bye(self) -> None:
        if self.writer is None:
            return
        try:
            await self._call({"t": "bye", "id": self._take_id()})
        except (ConnectionError, asyncio.TimeoutError):
            pass
        self.writer.close()
        self.writer = None

    # ------------------------------------------------------------ plumbing

    def _take_id(self) -> int:
        request_id = self._next_id
        self._next_id += 1
        return request_id

    async def _call_write(self, msg: dict) -> dict:
        for attempt in range(self.max_attempts):
            if attempt:
                self.retransmits += 1
            response = await self._call(msg)
            if response.get("t") == "throttle":
                self.throttled += 1
                await asyncio.sleep(min(float(response.get("retry_after", 0.01)), 0.2))
                continue
            return response
        return response

    async def _call(self, msg: dict) -> dict:
        assert self.writer is not None and self.reader is not None
        self.writer.write(encode_message(msg))
        await self.writer.drain()
        return await asyncio.wait_for(
            self._response_for(msg["id"]), timeout=self.ack_timeout
        )

    async def _response_for(self, request_id: int) -> dict:
        while True:
            cached = self._responses.pop(request_id, None)
            if cached is not None:
                return cached
            chunk = await self.reader.read(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            for response in self.decoder.feed(chunk):
                if response.get("id") == request_id:
                    return response
                self._responses[response.get("id")] = response
