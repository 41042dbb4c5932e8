"""The shared frame codec: length-prefixed, checksummed JSON payloads.

One framing, two consumers:

* the write-ahead log (:mod:`repro.persist.wal`) frames redo records on
  disk — ``iter_frames`` stops silently at the first torn or corrupt
  frame, which is what makes torn-tail truncation sound; and
* the binary wire protocol (:mod:`repro.net.protocol`) frames messages
  on a socket — :class:`FrameDecoder` buffers a byte stream and treats a
  corrupt frame as a hard :class:`FrameError`, because a live peer (unlike
  a crashed process) must not have its traffic silently swallowed.

Frame layout::

    <u32 length> <u32 crc32(payload)> <payload bytes>

Payloads are compact, key-sorted JSON objects: greppable on disk, and
self-describing on the wire.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Iterator

from repro.errors import StripError

#: Frame header: payload length, crc32(payload).
FRAME = struct.Struct("<II")

#: The most a live peer may make a reader buffer for one frame or one text
#: line (the largest frame of a ``Scale.small()`` WAL is under 6 KiB, a wire
#: request under 200 B).  Stream readers only: ``iter_frames`` reads a file
#: that is already there, where a cap would turn a large legitimate record
#: into a "torn tail" and truncate durable data.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Frames' and checkpoints' one encoder (``json.dumps`` builds one per call).
JSON_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


class FrameError(StripError):
    """A stream frame failed its checksum or did not decode (stream mode
    only — file readers use the silent torn-tail rule instead)."""


def encode_frame(payload: dict) -> bytes:
    """Frame one payload: ``<len><crc32><json>``."""
    body = JSON_ENCODER.encode(payload).encode("utf-8")
    return FRAME.pack(len(body), zlib.crc32(body)) + body


def decode_payload(body: bytes, crc: int) -> dict:
    """Checksum and decode one frame body; raises :class:`FrameError`."""
    if zlib.crc32(body) != crc:
        raise FrameError("frame checksum mismatch")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError: bad UTF-8 or JSON, or an int past CPython's digit limit.
        raise FrameError(f"frame payload does not decode: {exc}") from exc
    if not isinstance(payload, dict):
        raise FrameError("frame payload is not an object")
    return payload


def iter_frames(data: bytes) -> Iterator[tuple[dict, int]]:
    """Yield ``(payload, end_offset)`` for each intact frame in ``data``.

    Stops silently at the first torn (truncated) or corrupt (bad CRC /
    undecodable) frame — the torn-tail rule.  ``data`` must start at the
    first frame, i.e. *after* any file magic.
    """
    offset = 0
    total = len(data)
    while offset + FRAME.size <= total:
        length, crc = FRAME.unpack_from(data, offset)
        start = offset + FRAME.size
        end = start + length
        if end > total:
            return  # torn tail: header present, payload cut short
        try:
            payload = decode_payload(data[start:end], crc)
        except FrameError:
            return
        yield payload, end
        offset = end


class FrameDecoder:
    """Incremental decoder for a framed byte *stream* (socket transport).

    ``feed`` buffers arbitrary chunks and returns every complete payload;
    a partial frame waits for more bytes.  Unlike :func:`iter_frames`, a
    corrupt frame raises :class:`FrameError` — on a live connection there
    is no "tail" to truncate, only a peer speaking garbage — and so does a
    header announcing more than :data:`MAX_FRAME_BYTES`, before any of that
    body is buffered.  After either the stream is lost; close the connection.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.frames_decoded = 0
        self.bytes_decoded = 0

    def feed(self, chunk: bytes) -> list[dict]:
        self._buffer.extend(chunk)
        payloads: list[dict] = []
        buffer = self._buffer
        offset = 0
        total = len(buffer)
        while offset + FRAME.size <= total:
            length, crc = FRAME.unpack_from(buffer, offset)
            if length > MAX_FRAME_BYTES:
                raise FrameError(
                    f"frame header announces {length} bytes; the bound is "
                    f"{MAX_FRAME_BYTES}"
                )
            start = offset + FRAME.size
            end = start + length
            if end > total:
                break  # partial frame: wait for more bytes
            payloads.append(decode_payload(bytes(buffer[start:end]), crc))
            offset = end
        if offset:
            del buffer[:offset]
            self.frames_decoded += len(payloads)
            self.bytes_decoded += offset
        return payloads

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet decodable (partial frame)."""
        return len(self._buffer)
