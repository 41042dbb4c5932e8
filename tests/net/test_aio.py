"""Real sockets: the asyncio transport on an ephemeral port."""

import asyncio

import pytest

from repro.database import Database
from repro.net import aio
from repro.net.aio import AsyncNetClient, AsyncNetServer
from repro.net.server import NetServer
from repro.persist.codec import FRAME


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


class TestTextFraming:
    async def _lines(self, reader, n):
        return [
            (await asyncio.wait_for(reader.readline(), 10.0)).decode().strip()
            for _ in range(n)
        ]

    def test_telnet_style_session(self):
        async def scenario():
            server = make_server()
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(b"HELLO strip/1\n")
            await writer.drain()
            [hello] = await self._lines(reader, 1)
            assert hello.startswith("OK 0")
            writer.write(b"#1 update stocks set price = 44.0 where symbol = 'B'\n")
            writer.write(b"select price from stocks where symbol = 'B'\n")
            await writer.drain()
            lines = await self._lines(reader, 2)
            # The write's OK is deferred to its commit, but the engine
            # drains before responses flush, so both lines arrive in order.
            assert lines[0].startswith("OK 1")
            assert lines[1].startswith("ROWS 2")
            assert "44.0" in lines[1]
            writer.write(b"BYE\n")
            await writer.drain()
            [bye] = await self._lines(reader, 1)
            assert bye.startswith("OK")
            writer.close()
            await server.close()

        run(scenario())

    def test_bad_line_gets_an_err_not_a_hangup(self):
        async def scenario():
            server = make_server()
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(b"HELLO strip/1\n#x broken\nselect 1 from stocks\n")
            await writer.drain()
            lines = await self._lines(reader, 3)
            assert lines[0].startswith("OK 0")
            assert lines[1].startswith("ERR")
            assert lines[2].startswith("ROWS")
            writer.close()
            await server.close()

        run(scenario())


class TestHostilePeers:
    """Neither framing lets a peer make the server buffer without bound."""

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

    def test_text_line_past_the_bound_gets_an_err_and_a_hangup(self, monkeypatch):
        monkeypatch.setattr(aio, "MAX_FRAME_BYTES", 4096)

        async def scenario():
            server = make_server()
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(b"HELLO strip/1\n")
            await writer.drain()
            assert (await reader.readline()).startswith(b"OK 0")
            writer.write(b"select " + b"x" * 8192)  # and never a newline
            await writer.drain()
            rest = await asyncio.wait_for(reader.read(), 10.0)  # to EOF
            assert rest.startswith(b"ERR") and b"frame bound" in rest
            writer.close()
            await server.close()

        run(scenario())

    def test_text_line_of_the_bound_is_still_served(self, monkeypatch):
        monkeypatch.setattr(aio, "MAX_FRAME_BYTES", 4096)

        async def scenario():
            server = make_server()
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            query = b"select price from stocks where symbol = 'A'"
            writer.write(b"HELLO strip/1\n" + query.ljust(4096))  # no newline yet
            await writer.drain()
            assert (await reader.readline()).startswith(b"OK 0")
            await asyncio.sleep(0.05)  # the server has buffered the partial line
            writer.write(b"\n")
            await writer.drain()
            assert (await asyncio.wait_for(reader.readline(), 10.0)).startswith(b"ROWS")
            writer.close()
            await server.close()

        run(scenario())
