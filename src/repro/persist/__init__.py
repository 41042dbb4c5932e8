"""Durability: write-ahead logging, fuzzy checkpoints, crash recovery.

The paper sets durability aside ("we do not consider recovery issues");
this subsystem adds the standard main-memory-DBMS answer, extended to
STRIP's signature state — the **pending unique tasks** whose bound tables
batch changes across transaction boundaries and therefore outlive any
single transaction's commit:

* :mod:`repro.persist.codec` — the shared length-prefix + crc32 frame
  codec (also the network layer's binary wire framing);
* :mod:`repro.persist.wal` — buffered redo records over that codec with
  torn-tail truncation on open;
* :mod:`repro.persist.checkpoint` — periodic transaction-consistent
  snapshots (catalog, rules, clock, and the full pending-task set:
  bound rows, ``unique on`` partition keys, release deadlines, retry
  budgets) that truncate the WAL;
* :mod:`repro.persist.recovery` — checkpoint load + idempotent WAL-tail
  replay (``bootstrap``, which is also how a replication standby boots)
  that re-enqueues resurrected tasks with their original deadlines, and
  retries (with budget) tasks orphaned mid-execution;
* :mod:`repro.persist.manager` — the ``db.persist`` hook point; the
  default :class:`NullPersistence` costs one attribute check per site.

See docs/PERSISTENCE.md for the record format and the protocol.
"""

from repro.persist.codec import FrameDecoder, FrameError, encode_frame
from repro.persist.checkpoint import (
    build_snapshot,
    load_snapshot,
    record_to_task,
    restore_snapshot,
    task_to_record,
    write_snapshot,
)
from repro.persist.manager import NullPersistence, PersistenceManager
from repro.persist.recovery import RecoveryReport, WalApplier, bootstrap, recover
from repro.persist.wal import (
    WriteAheadLog,
    encode_record,
    iter_frames,
    read_wal,
)

__all__ = [
    "FrameDecoder",
    "FrameError",
    "NullPersistence",
    "PersistenceManager",
    "RecoveryReport",
    "WalApplier",
    "WriteAheadLog",
    "bootstrap",
    "build_snapshot",
    "encode_frame",
    "encode_record",
    "iter_frames",
    "load_snapshot",
    "read_wal",
    "record_to_task",
    "recover",
    "restore_snapshot",
    "task_to_record",
    "write_snapshot",
]
