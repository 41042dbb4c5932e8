"""Real sockets: the asyncio transport on an ephemeral port."""

import asyncio

import pytest

from repro.database import Database
from repro.net import aio
from repro.net.aio import AsyncNetClient, AsyncNetServer
from repro.net.server import NetServer
from repro.persist.codec import FRAME, MAX_FRAME_BYTES


def make_server():
    db = Database()
    db.execute_script(
        """
        create table stocks (symbol text, price real);
        create index stocks_symbol on stocks (symbol);
        insert into stocks values ('A', 10.0), ('B', 20.0);
        """
    )
    return AsyncNetServer(NetServer(db))


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=20.0))


class TestBinaryClients:
    def test_update_commits_and_acks(self):
        async def scenario():
            server = make_server()
            await server.start()
            client = AsyncNetClient("127.0.0.1", server.port)
            hello = await client.connect()
            assert hello["v"] == 1
            ack = await client.update("A", 12.5)
            assert ack["t"] == "ok"
            assert "commit_seq" in ack
            rows = await client.sql("select price from stocks where symbol = 'A'")
            assert rows["t"] == "rows"
            assert rows["rows"] == [[12.5]]
            await client.bye()
            await server.close()

        run(scenario())

    def test_multiple_concurrent_clients(self):
        async def scenario():
            server = make_server()
            await server.start()
            clients = [
                AsyncNetClient("127.0.0.1", server.port, name=f"c{i}") for i in range(4)
            ]
            await asyncio.gather(*(c.connect() for c in clients))
            acks = await asyncio.gather(
                *(c.update("A", 20.0 + i) for i, c in enumerate(clients))
            )
            assert all(a["t"] == "ok" for a in acks)
            # All four commits are visible to a fifth reader.
            reader = AsyncNetClient("127.0.0.1", server.port, name="reader")
            await reader.connect()
            rows = await reader.sql("select price from stocks where symbol = 'A'")
            assert rows["rows"][0][0] in {20.0, 21.0, 22.0, 23.0}
            await asyncio.gather(*(c.bye() for c in clients), reader.bye())
            assert server.core.db.last_commit_seq >= 4
            await server.close()

        run(scenario())

    def test_unknown_symbol_is_an_error(self):
        async def scenario():
            server = make_server()
            await server.start()
            client = AsyncNetClient("127.0.0.1", server.port)
            await client.connect()
            response = await client.update("ZZZ", 1.0)
            assert response["t"] == "error"
            await client.bye()
            await server.close()

        run(scenario())


class TestHostilePeers:
    """No peer makes the server buffer without bound, whatever it speaks."""

    def test_binary_header_past_the_bound_closes_the_connection(self):
        async def scenario():
            server = make_server()
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(FRAME.pack(0xFFFFFFFF, 0))  # "4 GiB follow"
            await writer.drain()
            assert await asyncio.wait_for(reader.read(), 10.0) == b""  # hung up
            writer.close()
            assert all(s.closed for s in server.core.sessions.values())
            await server.close()

        run(scenario())

    @pytest.mark.parametrize(
        "garbage", [b"HELLO strip/1\n", b"A" * 65536], ids=["hello-line", "64KiB-of-A"]
    )
    def test_a_peer_that_speaks_text_is_refused_not_served_and_not_buffered(
        self, monkeypatch, garbage
    ):
        feeds = []

        class WatchedDecoder(aio.FrameDecoder):
            def feed(self, chunk):
                try:
                    return super().feed(chunk)
                finally:
                    feeds.append(self.pending_bytes)

        monkeypatch.setattr(aio, "FrameDecoder", WatchedDecoder)

        async def scenario():
            server = make_server()
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(garbage)
            await writer.drain()
            assert await asyncio.wait_for(reader.read(), 10.0) == b""  # not one byte back
            writer.close()
            assert len(feeds) == 1  # hung up within the first read
            assert max(feeds) <= MAX_FRAME_BYTES
            assert not [s for s in server.core.sessions.values() if not s.closed]
            # The listener is unharmed: a binary client is served as usual.
            client = AsyncNetClient("127.0.0.1", server.port)
            await client.connect()
            ack = await client.update("A", 12.5)
            assert ack["t"] == "ok"
            await client.bye()
            await server.close()

        run(scenario())
