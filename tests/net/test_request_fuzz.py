"""Whatever JSON a peer sends, the server answers it or raises a typed error.

``NetServer.handle`` is fed arbitrary JSON values after a hello — objects
shaped like requests with hostile field values, and values that are no
request at all.  Every call must return a response (or ``None``, the
deferred ack of an admitted write) or raise a :class:`StripError`; an
untyped exception would escape the asyncio transport's per-peer handler,
which catches only framing and connection errors, and the peer would never
get an answer.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.errors import StripError
from repro.net import NetServer
from repro.net.protocol import (
    RESPONSE_TYPES,
    ProtocolError,
    negotiate_version,
    validate_request,
)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)

REQUEST = st.fixed_dictionaries(
    {},
    optional={
        "t": st.sampled_from(["hello", "update", "sql", "bye"]) | JSON,
        "id": st.integers(-1, 3) | JSON,
        "v": st.integers(0, 2) | JSON,
        "symbol": st.sampled_from(["A", "ZZZ"]) | JSON,
        "price": st.floats() | JSON,
        "q": st.sampled_from(["select * from stocks", "drop table stocks", "nonsense"]) | JSON,
    },
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(REQUEST | JSON, min_size=1, max_size=4))
def test_every_request_gets_a_response_or_a_typed_error(messages):
    db = Database()
    db.execute("create table stocks (symbol text, price real)")
    db.execute("insert into stocks values ('A', 10.0)")
    server = NetServer(db)
    session = server.open_session("fuzz")
    assert server.handle(session, {"t": "hello", "id": 0, "v": 1}, now=0.0)["t"] == "ok"
    for msg in messages:
        try:
            response = server.handle(session, msg, now=0.0)
        except StripError:
            continue
        assert response is None or response["t"] in RESPONSE_TYPES


@pytest.mark.parametrize(
    "msg",
    [{"t": [1], "id": 1}, {"t": {"a": 1}, "id": 1}, {"t": "bye", "id": True},
     {"t": "hello", "id": 1, "v": True}],
    ids=["list-t", "dict-t", "bool-id", "bool-version"],
)
def test_a_request_of_the_wrong_type_is_a_protocol_error(msg):
    db = Database()
    db.execute("create table stocks (symbol text, price real)")
    server = NetServer(db)
    session = server.open_session("c1")
    server.handle(session, {"t": "hello", "id": 0, "v": 1}, now=0.0)
    response = server.handle(session, msg, now=0.0)
    assert response["t"] == "error" and response["id"] in (0, 1)
    check = negotiate_version if msg["t"] == "hello" else validate_request
    with pytest.raises(ProtocolError):
        check(msg)
