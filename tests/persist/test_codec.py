"""The shared frame codec: the one framing under both WAL and wire.

File mode (``iter_frames``) stops silently at the first torn or corrupt
frame; stream mode (``FrameDecoder``) raises — the two consumers need
opposite failure behaviour from the same bytes.
"""

import json
import struct
import zlib

import pytest

from repro.persist import codec
from repro.persist.codec import (
    FRAME,
    MAX_FRAME_BYTES,
    FrameDecoder,
    FrameError,
    decode_payload,
    encode_frame,
    iter_frames,
)

PAYLOADS = [{"lsn": i, "op": "u", "vals": [i, "x", 2.5]} for i in range(4)]


def blob_of(payloads):
    return b"".join(encode_frame(p) for p in payloads)


def nested_frame(depth=200_000):
    """A CRC-valid frame whose body nests arrays past the JSON decoder's
    recursion limit: 400 KB, far under ``MAX_FRAME_BYTES``."""
    body = b'{"a":' + b"[" * depth + b"]" * depth + b"}"
    assert len(body) < MAX_FRAME_BYTES
    return FRAME.pack(len(body), zlib.crc32(body)) + body


class TestFrameLayout:
    def test_header_is_length_then_crc(self):
        frame = encode_frame({"a": 1})
        length, crc = FRAME.unpack_from(frame, 0)
        body = frame[FRAME.size :]
        assert length == len(body)
        assert crc == zlib.crc32(body)
        assert json.loads(body) == {"a": 1}

    def test_payload_json_is_compact_and_sorted(self):
        frame = encode_frame({"b": 2, "a": 1})
        assert frame[FRAME.size :] == b'{"a":1,"b":2}'

    @pytest.mark.parametrize("payload", [
        {},
        {"z": {"y": [1, {"x": [None, True, False]}], "b": {}}, "a": [[[]]]},
        {"s": "caf\u00e9 \u6f22\u5b57 \U0001f600", "\u00fc": "\x00\n\"\\"},
        {"f": [0.1, 3.7e-05, 1e300, -0.0, 2.5, 1e-320, 123456789.123456789]},
        {"i": [0, -1, 2**63, 10**30], "mix": [1, 1.0, "1", None]},
        {"nan": float("nan"), "inf": [float("inf"), float("-inf")]},
    ], ids=["empty", "nested", "unicode", "floats", "ints", "non-finite"])
    def test_one_shared_encoder_writes_what_json_dumps_did(self, payload, tmp_path):
        """Frames and checkpoints share ``codec.JSON_ENCODER``; the bytes
        are those of ``json.dumps`` with the same options, call for call."""
        from repro.persist.checkpoint import write_snapshot

        want = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
        assert encode_frame(payload)[FRAME.size:] == want
        path = str(tmp_path / "snapshot.json")
        assert write_snapshot(payload, path) == len(want)
        with open(path, "rb") as handle:
            assert handle.read() == want


class TestFileMode:
    def test_round_trip(self):
        assert [p for p, _ in iter_frames(blob_of(PAYLOADS))] == PAYLOADS

    def test_torn_tail_stops_silently(self):
        blob = blob_of(PAYLOADS)
        for cut in (1, FRAME.size, len(blob) - 3):
            decoded = [p for p, _ in iter_frames(blob[:cut] if cut < FRAME.size else blob[: len(blob) - 3])]
            assert decoded == PAYLOADS[: len(decoded)]
        # Cutting mid-payload of the last frame loses exactly that frame.
        assert [p for p, _ in iter_frames(blob[:-3])] == PAYLOADS[:-1]

    def test_corrupt_frame_stops_before_it(self):
        frames = [encode_frame(p) for p in PAYLOADS]
        bad = bytearray(frames[2])
        bad[-1] ^= 0xFF
        blob = frames[0] + frames[1] + bytes(bad) + frames[3]
        # Frame 3 is intact but unreachable: readers never skip garbage.
        assert [p for p, _ in iter_frames(blob)] == PAYLOADS[:2]

    def test_a_nested_frame_stops_the_reader_before_it(self):
        frames = [encode_frame(p) for p in PAYLOADS]
        blob = frames[0] + frames[1] + nested_frame() + frames[2]
        assert [p for p, _ in iter_frames(blob)] == PAYLOADS[:2]

    def test_end_offsets_allow_resume(self):
        blob = blob_of(PAYLOADS)
        ends = [end for _p, end in iter_frames(blob)]
        assert ends[-1] == len(blob)
        # Restarting at any reported offset yields exactly the remainder.
        resumed = [p for p, _ in iter_frames(blob[ends[1] :])]
        assert resumed == PAYLOADS[2:]


class TestStreamMode:
    def test_byte_at_a_time(self):
        blob = blob_of(PAYLOADS)
        decoder = FrameDecoder()
        out = []
        for i in range(len(blob)):
            out.extend(decoder.feed(blob[i : i + 1]))
        assert out == PAYLOADS
        assert decoder.frames_decoded == len(PAYLOADS)
        assert decoder.bytes_decoded == len(blob)
        assert decoder.pending_bytes == 0

    def test_truncated_frame_waits(self):
        decoder = FrameDecoder()
        frame = encode_frame(PAYLOADS[0])
        assert decoder.feed(frame[: FRAME.size + 2]) == []
        assert decoder.pending_bytes == FRAME.size + 2

    def test_checksum_mismatch_raises(self):
        bad = bytearray(encode_frame(PAYLOADS[0]))
        bad[FRAME.size] ^= 0xFF
        with pytest.raises(FrameError, match="checksum"):
            FrameDecoder().feed(bytes(bad))

    def test_undecodable_payload_raises(self):
        body = b"not json at all"
        frame = FRAME.pack(len(body), zlib.crc32(body)) + body
        with pytest.raises(FrameError, match="decode"):
            FrameDecoder().feed(frame)

    def test_payload_nested_past_the_recursion_limit_raises_typed(self):
        decoder = FrameDecoder()
        with pytest.raises(FrameError, match="does not decode") as raised:
            decoder.feed(encode_frame(PAYLOADS[0]) + nested_frame())
        assert isinstance(raised.value.__cause__, RecursionError)
        frame = nested_frame()
        with pytest.raises(FrameError, match="does not decode"):
            decode_payload(frame[FRAME.size:], FRAME.unpack_from(frame)[1])

    def test_integer_past_the_digit_limit_raises_typed(self):
        """CPython refuses to parse an integer of more than 4 300 digits
        with a plain ``ValueError``; from a frame it is a ``FrameError``."""
        body = b'{"price":' + b"7" * 5000 + b"}"
        with pytest.raises(FrameError, match="does not decode"):
            decode_payload(body, zlib.crc32(body))

    def test_non_object_payload_raises(self):
        body = b"[1,2,3]"  # valid JSON, wrong shape
        with pytest.raises(FrameError, match="object"):
            decode_payload(body, zlib.crc32(body))


class TestStreamFrameBound:
    """A peer's length prefix is a claim, not a fact: the stream decoder
    refuses one past the bound on the header alone."""

    @pytest.mark.parametrize("announced", [MAX_FRAME_BYTES + 1, 0xFFFFFFFF])
    def test_oversized_header_raises_before_any_body_is_buffered(self, announced):
        decoder = FrameDecoder()
        with pytest.raises(FrameError, match=f"announces {announced} bytes"):
            decoder.feed(FRAME.pack(announced, 0))
        assert decoder.pending_bytes == FRAME.size
        assert decoder.frames_decoded == 0

    def test_oversized_header_behind_good_frames_still_raises(self):
        decoder = FrameDecoder()
        with pytest.raises(FrameError, match="bound"):
            decoder.feed(blob_of(PAYLOADS) + FRAME.pack(MAX_FRAME_BYTES + 1, 0) + b"x" * 64)

    def test_a_frame_of_exactly_the_bound_still_decodes(self, monkeypatch):
        payload = {"pad": "x" * 1000}
        frame = encode_frame(payload)
        monkeypatch.setattr(codec, "MAX_FRAME_BYTES", len(frame) - FRAME.size)
        assert FrameDecoder().feed(frame) == [payload]
        monkeypatch.setattr(codec, "MAX_FRAME_BYTES", len(frame) - FRAME.size - 1)
        with pytest.raises(FrameError, match="bound"):
            FrameDecoder().feed(frame)

    def test_the_file_reader_has_no_bound(self, monkeypatch):
        """A cap there would read a large durable record as a torn tail."""
        monkeypatch.setattr(codec, "MAX_FRAME_BYTES", 8)
        assert [p for p, _ in iter_frames(blob_of(PAYLOADS))] == PAYLOADS
