"""The wire protocol: one message model, one framing.

Every message is a dict with a type tag ``t``; requests carry a
session-unique ``id`` the matching response echoes, so clients can
retransmit safely (the server dedups by id) and interleave replies.

Request types::

    {"t": "hello", "id": 0, "v": 1, "client": "loadgen-3"}
    {"t": "update", "id": 7, "symbol": "S0001", "price": 42.5, "ts": 3.25}
    {"t": "sql",    "id": 8, "q": "select * from comp_prices"}
    {"t": "bye",    "id": 9}

Typed responses: ``ok`` (write acknowledged — sent only after the commit),
``rows`` (query result), ``throttle`` (admission control says retry after
``retry_after`` seconds), ``error`` (bad request, unknown symbol, or a
shed write — ``shed: true``).

Framing: the WAL's checksummed length-prefixed frame codec
(:mod:`repro.persist.codec`), one JSON payload per frame; a corrupt or
oversized frame is a hard :class:`~repro.persist.codec.FrameError` on a
live connection, so a peer that speaks anything else is hung up on.

Version negotiation: the first message must be ``hello`` naming the
highest protocol version the client speaks; the server answers with the
version it selected (the highest both sides share) or an ``error`` and a
close when there is none.
"""

from __future__ import annotations

import sys
from typing import Any, Optional

from repro.errors import StripError
from repro.persist.codec import FrameDecoder, FrameError, encode_frame

__all__ = [
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "ProtocolError",
    "FrameDecoder",
    "FrameError",
    "encode_message",
    "decode_messages",
    "error_response",
    "ok_response",
    "rows_response",
    "throttle_response",
    "negotiate_version",
    "validate_request",
]

#: The newest protocol revision this build speaks.
PROTOCOL_VERSION = 1
SUPPORTED_VERSIONS = frozenset({1})

REQUEST_TYPES = frozenset({"hello", "update", "sql", "bye"})
RESPONSE_TYPES = frozenset({"ok", "rows", "throttle", "error"})


class ProtocolError(StripError):
    """A peer sent a message this protocol revision cannot accept."""


# ------------------------------------------------------------------ frames


def encode_message(msg: dict) -> bytes:
    """One binary frame (shared WAL codec) for one message dict."""
    return encode_frame(msg)


def decode_messages(decoder: FrameDecoder, chunk: bytes) -> list[dict]:
    """Feed ``chunk`` to a streaming decoder; complete messages out."""
    return decoder.feed(chunk)


# --------------------------------------------------------------- responses


def ok_response(request_id: int, **extra: Any) -> dict:
    return {"t": "ok", "id": request_id, **extra}


def rows_response(request_id: int, cols: list, rows: list) -> dict:
    return {"t": "rows", "id": request_id, "cols": cols, "rows": rows}


def throttle_response(request_id: int, retry_after: float, reason: str) -> dict:
    return {
        "t": "throttle",
        "id": request_id,
        "retry_after": round(retry_after, 6),
        "reason": reason,
    }


def error_response(request_id: int, message: str, **extra: Any) -> dict:
    return {"t": "error", "id": request_id, "error": message, **extra}


# ------------------------------------------------------------- negotiation


def negotiate_version(hello: dict) -> int:
    """Pick the protocol version for a session from its hello message.

    The client names the highest revision it speaks; the server selects
    the highest revision both sides share.  Raises
    :class:`ProtocolError` when there is none.
    """
    offered = hello.get("v")
    if not isinstance(offered, int) or offered < 1:
        raise ProtocolError(f"hello must offer an integer version >= 1, got {offered!r}")
    shared = [v for v in SUPPORTED_VERSIONS if v <= offered]
    if not shared:
        raise ProtocolError(
            f"no shared protocol version: client speaks <= {offered}, "
            f"server speaks {sorted(SUPPORTED_VERSIONS)}"
        )
    return max(shared)


def validate_request(msg: Any) -> dict:
    """Shape-check one inbound request; raises :class:`ProtocolError`."""
    if not isinstance(msg, dict):
        raise ProtocolError(f"request must be an object, got {type(msg).__name__}")
    kind = msg.get("t")
    if kind not in REQUEST_TYPES:
        raise ProtocolError(f"unknown request type {kind!r}")
    request_id = msg.get("id")
    if not isinstance(request_id, int) or request_id < 0:
        raise ProtocolError(f"request needs an integer id >= 0, got {request_id!r}")
    if kind == "update":
        if not isinstance(msg.get("symbol"), str):
            raise ProtocolError("update needs a string 'symbol'")
        price = msg.get("price")
        finite = isinstance(price, (int, float)) and abs(price) <= sys.float_info.max
        if not finite or isinstance(price, bool):
            raise ProtocolError(f"update needs a finite numeric 'price', got {price!r:.40}")
    elif kind == "sql":
        if not isinstance(msg.get("q"), str) or not msg["q"].strip():
            raise ProtocolError("sql needs a non-empty 'q'")
    return msg


def response_id(msg: dict) -> Optional[int]:
    """The request id a response answers (None for malformed peers)."""
    request_id = msg.get("id")
    return request_id if isinstance(request_id, int) else None
