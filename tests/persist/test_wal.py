"""Write-ahead log unit tests: framing, torn-tail truncation, corruption."""

import os
import struct
import zlib

import pytest

from repro.errors import PersistenceError
from repro.persist.wal import (
    MAGIC,
    WriteAheadLog,
    encode_record,
    iter_frames,
    read_wal,
)


def write_records(path, payloads, sync=False):
    wal = WriteAheadLog(path, sync=sync)
    for payload in payloads:
        wal.append(payload)
    wal.flush()
    wal.close()


class TestCodec:
    def test_round_trip(self):
        payloads = [{"lsn": i, "kind": "commit", "ops": [i, "x", 1.5]} for i in range(5)]
        blob = b"".join(encode_record(p) for p in payloads)
        decoded = [payload for payload, _end in iter_frames(blob)]
        assert decoded == payloads

    def test_end_offsets_are_cumulative(self):
        frames = [encode_record({"lsn": i}) for i in range(3)]
        blob = b"".join(frames)
        ends = [end for _payload, end in iter_frames(blob)]
        expected = []
        total = 0
        for frame in frames:
            total += len(frame)
            expected.append(total)
        assert ends == expected

    def test_stops_at_bad_crc(self):
        good = encode_record({"lsn": 1})
        bad = bytearray(encode_record({"lsn": 2}))
        bad[-1] ^= 0xFF  # corrupt the payload, not the header
        tail = encode_record({"lsn": 3})
        decoded = [p for p, _ in iter_frames(bytes(good) + bytes(bad) + tail)]
        assert decoded == [{"lsn": 1}]

    def test_stops_at_torn_payload(self):
        good = encode_record({"lsn": 1})
        torn = encode_record({"lsn": 2, "pad": "x" * 100})[:-40]
        decoded = [p for p, _ in iter_frames(good + torn)]
        assert decoded == [{"lsn": 1}]

    def test_stops_at_non_object_payload(self):
        body = b"[1,2,3]"
        frame = struct.pack("<II", len(body), zlib.crc32(body)) + body
        assert list(iter_frames(frame)) == []


class TestReadWal:
    def test_missing_file_is_empty(self, tmp_path):
        records, valid, torn = read_wal(tmp_path / "nope.log")
        assert (records, valid, torn) == ([], 0, 0)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "not-a-wal"
        path.write_bytes(b"something else entirely")
        with pytest.raises(PersistenceError):
            read_wal(path)

    def test_reports_torn_bytes(self, tmp_path):
        path = tmp_path / "wal.log"
        write_records(path, [{"lsn": 1}, {"lsn": 2}])
        with open(path, "ab") as handle:
            handle.write(b"\x99" * 17)  # a torn header+partial payload
        records, valid, torn = read_wal(path)
        assert [r["lsn"] for r in records] == [1, 2]
        assert torn == 17
        assert valid == os.path.getsize(path) - 17


class TestWriteAheadLog:
    def test_append_is_buffered_until_flush(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append({"lsn": 1})
        assert wal.pending_count == 1
        assert read_wal(path)[0] == []  # nothing durable yet
        wal.flush()
        assert wal.pending_count == 0
        assert [r["lsn"] for r in read_wal(path)[0]] == [1]
        wal.close()

    def test_open_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        write_records(path, [{"lsn": 1}, {"lsn": 2}])
        with open(path, "ab") as handle:
            handle.write(encode_record({"lsn": 3, "pad": "y" * 50})[:-10])
        before = os.path.getsize(path)
        wal = WriteAheadLog(path)
        assert wal.torn_bytes > 0
        assert os.path.getsize(path) == before - wal.torn_bytes
        # The reopened log continues cleanly past the cut.
        assert wal.last_lsn == 2
        wal.append({"lsn": 3})
        wal.flush()
        wal.close()
        assert [r["lsn"] for r in read_wal(path)[0]] == [1, 2, 3]

    def test_reopen_reports_last_lsn_and_count(self, tmp_path):
        path = tmp_path / "wal.log"
        write_records(path, [{"lsn": 7}, {"lsn": 9}])
        wal = WriteAheadLog(path)
        assert wal.record_count == 2
        assert wal.last_lsn == 9
        wal.close()

    def test_truncate_resets_to_magic(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append({"lsn": 1})
        wal.flush()
        wal.truncate()
        assert path.read_bytes() == MAGIC
        wal.append({"lsn": 2})
        wal.flush()
        wal.close()
        assert [r["lsn"] for r in read_wal(path)[0]] == [2]

    def test_close_flushes_pending(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append({"lsn": 1})
        wal.close()
        assert [r["lsn"] for r in read_wal(path)[0]] == [1]

    def test_append_returns_the_frame_the_flush_writes(self, tmp_path):
        """What the manager hands a replica is byte for byte what the file
        holds: the hand-off never sees more than a crash would preserve."""
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        frames = [wal.append({"lsn": lsn, "kind": "noop"}) for lsn in (1, 2)]
        assert frames == [encode_record({"lsn": lsn, "kind": "noop"}) for lsn in (1, 2)]
        wal.flush()
        wal.close()
        assert path.read_bytes() == MAGIC + b"".join(frames)

    def test_abandon_closes_without_flushing(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append({"lsn": 1})
        wal.flush()
        wal.append({"lsn": 2})  # buffered when the process "dies"
        wal.abandon()
        assert wal.pending_count == 0
        assert [r["lsn"] for r in read_wal(path)[0]] == [1]
        wal.close()  # idempotent on a closed log

    def test_sync_mode_round_trips(self, tmp_path):
        path = tmp_path / "wal.log"
        write_records(path, [{"lsn": 1}], sync=True)
        assert [r["lsn"] for r in read_wal(path)[0]] == [1]
