"""The write-ahead log: length-prefixed, checksummed redo records.

STRIP is a main-memory DBMS, so the only durable artifact of a run is the
log.  The paper defers durability entirely ("we do not consider recovery
issues in this paper"); this module supplies the standard main-memory
answer — redo-only logging at commit plus fuzzy checkpoints (see
docs/PERSISTENCE.md) — sized to the reproduction.

File format::

    STRIPWAL                                      8-byte magic
    <u32 length> <u32 crc32> <payload> ...        repeated frames

The frame codec itself (length prefix + crc32, JSON payloads) lives in
:mod:`repro.persist.codec`, shared with the network layer's binary wire
protocol; this module re-exports ``encode_record``/``iter_frames`` and owns
everything file-shaped (magic, torn-tail truncation, the log object).

Each payload is a compact, key-sorted JSON object carrying a monotonically
increasing ``lsn`` assigned by the :class:`~repro.persist.manager.
PersistenceManager`.  JSON keeps records greppable; the binary framing
gives O(1) skip and per-record corruption detection, which is what makes
**torn-tail truncation** sound: on open, the file is scanned and cut back
to the last intact frame, so a crash mid-write never poisons recovery.

Appends are buffered in the log object and only reach the file (and,
optionally, ``fsync``) on :meth:`WriteAheadLog.flush`.  The manager
flushes once per logical record, *after* the ``wal.flush`` fault seam —
so an injected ``crash`` between append and flush models exactly the
process death that loses buffered-but-unflushed records.  ``append``
returns the frame it buffered and the manager hands that frame to the
replication shipper once the flush has returned: a live process never
reads its own log back, and the file is read whole, by :func:`read_wal`,
only to rebuild a database from a directory.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from repro.errors import PersistenceError

# The frame codec is shared with the binary wire protocol
# (repro/persist/codec.py); re-exported here under the historical names.
from repro.persist.codec import encode_frame as encode_record
from repro.persist.codec import iter_frames

MAGIC = b"STRIPWAL"


def _fsync_dir(path: str) -> None:
    """fsync the parent directory of ``path`` so the directory entry for a
    newly created (or rewritten) file is itself durable.  Filesystems that
    do not support opening directories are silently tolerated."""
    parent = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd = os.open(parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def read_wal(path: Union[str, "os.PathLike[str]"]) -> tuple[list[dict], int, int]:
    """Read every intact record from a WAL file.

    Returns ``(records, valid_bytes, torn_bytes)`` where ``valid_bytes``
    is the file offset of the last intact frame (including the magic) and
    ``torn_bytes`` is whatever trailing garbage follows it.  A missing
    file reads as empty; a file with the wrong magic is an error (it is
    not a WAL, and truncating it would destroy someone else's data).
    """
    try:
        with open(path, "rb") as handle:
            magic = handle.read(len(MAGIC))
            data = handle.read()
    except FileNotFoundError:
        return [], 0, 0
    if not magic:
        return [], 0, 0
    if magic != MAGIC:
        raise PersistenceError(f"{path}: not a STRIP WAL (bad magic)")
    frames = list(iter_frames(data))
    valid = frames[-1][1] if frames else 0
    return [payload for payload, _end in frames], len(MAGIC) + valid, len(data) - valid


class WriteAheadLog:
    """An append-only record log over one file.

    ``append`` buffers an encoded frame in memory; ``flush`` writes every
    buffered frame and flushes (optionally fsyncs) the file.  ``close``
    flushes first — buffered records are only ever lost when the process
    dies between the two calls, which is precisely the crash the fault
    injector simulates by raising before ``flush`` runs.
    """

    def __init__(self, path: Union[str, "os.PathLike[str]"], sync: bool = False) -> None:
        self.path = str(path)
        self.sync = sync
        self._pending: list[bytes] = []
        self.last_lsn: Optional[int] = None
        self.record_count = 0
        self.bytes_flushed = 0
        self.flush_count = 0
        records, valid, torn = read_wal(self.path)
        self.torn_bytes = torn
        if torn:
            # Cutting back the torn tail rewrites durable state: without an
            # fsync a crash right here could resurrect the garbage tail.
            with open(self.path, "r+b") as handle:
                handle.truncate(valid)
                if sync:
                    os.fsync(handle.fileno())
        if records:
            self.record_count = len(records)
            self.last_lsn = max(
                (r["lsn"] for r in records if isinstance(r.get("lsn"), int)),
                default=None,
            )
        fresh = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
        self._file = open(self.path, "ab")
        if fresh:
            self._file.write(MAGIC)
            self._file.flush()
            if self.sync:
                os.fsync(self._file.fileno())
                # A brand-new file is only durable once its directory
                # entry is — fsync the parent too.
                _fsync_dir(self.path)

    # ------------------------------------------------------------- writes

    def append(self, payload: dict) -> bytes:
        """Buffer one record; returns its frame — the bytes the next
        :meth:`flush` makes durable, which is also what a replica is sent."""
        frame = encode_record(payload)
        self._pending.append(frame)
        return frame

    def flush(self) -> int:
        """Write all buffered frames; returns the bytes written."""
        if not self._pending:
            return 0
        blob = b"".join(self._pending)
        self._pending.clear()
        self._file.write(blob)
        self._file.flush()
        if self.sync:
            os.fsync(self._file.fileno())
        self.bytes_flushed += len(blob)
        self.flush_count += 1
        return len(blob)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def truncate(self) -> None:
        """Reset the log to empty (a checkpoint made its records obsolete)."""
        self._pending.clear()
        self._file.close()
        with open(self.path, "wb") as handle:
            handle.write(MAGIC)
            handle.flush()
            if self.sync:
                os.fsync(handle.fileno())
        if self.sync:
            _fsync_dir(self.path)
        self._file = open(self.path, "ab")

    def close(self) -> None:
        if self._file.closed:
            return
        self.flush()
        self._file.close()

    def abandon(self) -> None:
        """Close without flushing: the simulated process died, and records
        it never flushed must not become durable."""
        self._pending.clear()
        self.close()

    def __repr__(self) -> str:  # pragma: no cover
        return f"WriteAheadLog({self.path!r}, pending={len(self._pending)})"
