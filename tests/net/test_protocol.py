"""Wire protocol tests: framing, negotiation, request validation."""

import zlib

import pytest

from repro.persist.codec import FRAME

from repro.net.protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    ProtocolError,
    decode_messages,
    encode_message,
    error_response,
    negotiate_version,
    ok_response,
    response_id,
    rows_response,
    throttle_response,
    validate_request,
)

REQUESTS = [
    {"t": "hello", "id": 0, "v": 1, "client": "c"},
    {"t": "update", "id": 7, "symbol": "S00001", "price": 42.5, "ts": 3.25},
    {"t": "sql", "id": 8, "q": "select * from stocks"},
    {"t": "bye", "id": 9},
]


class TestBinaryFraming:
    def test_round_trip_every_request_type(self):
        decoder = FrameDecoder()
        blob = b"".join(encode_message(msg) for msg in REQUESTS)
        assert decode_messages(decoder, blob) == REQUESTS

    def test_partial_frames_wait_for_more_bytes(self):
        blob = b"".join(encode_message(msg) for msg in REQUESTS)
        decoder = FrameDecoder()
        out = []
        for i in range(0, len(blob), 3):  # drip-feed 3 bytes at a time
            out.extend(decoder.feed(blob[i : i + 3]))
        assert out == REQUESTS
        assert decoder.pending_bytes == 0

    def test_corrupt_frame_is_a_hard_error(self):
        blob = bytearray(encode_message(REQUESTS[1]))
        blob[-1] ^= 0xFF  # flip a payload byte: CRC mismatch
        with pytest.raises(FrameError):
            FrameDecoder().feed(bytes(blob))

    def test_deeply_nested_frame_is_a_hard_error(self):
        # A hostile peer: a CRC-valid frame that nests past the JSON
        # decoder's recursion limit must fail as FrameError, the one error
        # a connection handler catches, never as a bare RecursionError.
        body = b'{"t":' + b"[" * 200_000 + b"]" * 200_000 + b"}"
        frame = FRAME.pack(len(body), zlib.crc32(body)) + body
        decoder = FrameDecoder()
        with pytest.raises(FrameError, match="does not decode"):
            decode_messages(decoder, encode_message(REQUESTS[0]) + frame)

    def test_truncated_frame_never_yields(self):
        blob = encode_message(REQUESTS[1])
        decoder = FrameDecoder()
        assert decoder.feed(blob[:-4]) == []
        assert decoder.pending_bytes == len(blob) - 4
        # The missing tail completes it.
        assert decoder.feed(blob[-4:]) == [REQUESTS[1]]


class TestNegotiation:
    def test_current_version_is_selected(self):
        assert negotiate_version({"t": "hello", "id": 0, "v": PROTOCOL_VERSION}) == 1

    def test_newer_client_downgrades_to_ours(self):
        assert negotiate_version({"t": "hello", "id": 0, "v": 99}) == PROTOCOL_VERSION

    @pytest.mark.parametrize("offered", [0, -1, None, "1", 1.5])
    def test_bad_offers_raise(self, offered):
        with pytest.raises(ProtocolError):
            negotiate_version({"t": "hello", "id": 0, "v": offered})


class TestValidation:
    def test_well_formed_requests_pass(self):
        for msg in REQUESTS:
            assert validate_request(msg) is msg

    @pytest.mark.parametrize(
        "msg",
        [
            "not a dict",
            {"t": "nope", "id": 1},
            {"t": "update", "symbol": "S1", "price": 1.0},  # no id
            {"t": "update", "id": -1, "symbol": "S1", "price": 1.0},
            {"t": "update", "id": 1, "symbol": 7, "price": 1.0},
            {"t": "update", "id": 1, "symbol": "S1", "price": "expensive"},
            {"t": "sql", "id": 1, "q": "   "},
            {"t": "sql", "id": 1},
        ],
    )
    def test_malformed_requests_raise(self, msg):
        with pytest.raises(ProtocolError):
            validate_request(msg)

    def test_response_id_tolerates_garbage(self):
        assert response_id({"t": "ok", "id": 4}) == 4
        assert response_id({"t": "ok", "id": "four"}) is None
        assert response_id({}) is None
