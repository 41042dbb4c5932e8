"""A hot standby: a full database continuously rebuilt from shipped WAL.

A :class:`Standby` boots the way crash recovery does, through the same
:func:`~repro.persist.recovery.bootstrap` — load the primary's newest
checkpoint, register the user functions, restore tables / rules / pending
tasks, replay whatever durable WAL tail the directory holds — and then
keeps the :class:`~repro.persist.recovery.WalApplier` open and feeds it
frames as the shipper delivers them.  Idempotence is inherited: the
applier skips any record at or below its ``applied_lsn``, so
retransmitted frames (the shipper resends on timeout) are no-ops.

Frames can arrive **out of LSN order** (the channel reorders); redo
replay is only sound over a contiguous prefix, so a frame whose first
record is past ``applied_lsn + 1`` is parked in a reorder buffer and
drained once the gap fills.  The ack the standby returns is cumulative —
the highest *applied* LSN — which is what lets the shipper run go-back-N
retransmission without per-frame bookkeeping.

The standby serves **read-only SELECTs** from its own catalog
(:meth:`read` → ``Database.query``, which rejects DML by construction
and takes no locks).  Apply lag — how far a commit's application trailed
its commit time on the primary — lands in a local histogram and, when
the primary is traced, on the ``counter.replication_lag`` Chrome track.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.database import Database
from repro.obs.metrics import Histogram
from repro.persist.recovery import bootstrap

if TYPE_CHECKING:  # pragma: no cover
    from repro.fault.recovery import RetryPolicy
    from repro.txn.tasks import Task


class Standby:
    """One replica: a database kept current by applying shipped frames."""

    def __init__(
        self,
        name: str,
        wal_dir: str,
        functions: Optional[dict[str, Callable]] = None,
        tracer=None,
    ) -> None:
        self.name = name
        self.tracer = tracer  # the *primary's* tracer (may be None)
        self.db = Database()
        self.db.metrics.set_keep_records(False)
        self.applier = bootstrap(self.db, wal_dir, functions)
        self.report = self.applier.report
        # factor=2 buckets: decade buckets would round a 20ms lag up to
        # the 100ms bound in the percentile estimate.
        self.lag_hist = Histogram(
            f"{name}_apply_lag_s", lo=1e-4, hi=1e3, factor=2.0
        )
        # first_lsn -> list of record payloads waiting for the gap to fill
        self.buffer: dict[int, list[dict]] = {}
        self.frames_received = 0
        self.frames_buffered = 0
        self.frames_stale = 0  # fully below applied_lsn (retransmits)
        self.applied_records = 0
        self.promoted = False
        self.discarded_frames = 0

    # ------------------------------------------------------------- applying

    @property
    def applied_lsn(self) -> int:
        return self.applier.applied_lsn

    @property
    def last_commit_time(self) -> float:
        """Virtual commit time of the newest applied commit record."""
        return self.applier.max_time

    def lag_behind(self, primary_now: float) -> float:
        """Freshness gap vs. the primary clock: how old the standby's view
        of the world is, in virtual seconds."""
        return max(primary_now - self.applier.max_time, 0.0)

    def receive(self, records: list[dict], arrival: float) -> int:
        """Accept one frame of contiguous records delivered at ``arrival``.

        Returns the cumulative applied LSN (the ack value)."""
        self.frames_received += 1
        clock = self.db.clock
        if arrival > clock.base:
            clock.set_base(arrival)
        if not records:
            return self.applied_lsn
        first = records[0].get("lsn", 0)
        if first > self.applied_lsn + 1:
            # A gap: the channel reordered (or dropped) an earlier frame.
            # Park it; the retransmitted predecessor will drain it.
            self.buffer[first] = records
            self.frames_buffered += 1
            return self.applied_lsn
        if records[-1].get("lsn", 0) <= self.applied_lsn:
            self.frames_stale += 1
            return self.applied_lsn
        self._apply_records(records)
        self._drain_buffer()
        return self.applied_lsn

    def _apply_records(self, records: list[dict]) -> None:
        now = self.db.clock.base
        for payload in records:
            if not self.applier.apply(payload):
                continue  # already applied (overlapping retransmit)
            self.applied_records += 1
            if payload["kind"] == "commit":
                lag = max(now - payload["time"], 0.0)
                self.lag_hist.record(lag)
                tracer = self.tracer
                if tracer is not None and tracer.enabled:
                    tracer.replication_lag(self.name, lag, payload["lsn"], now)

    def _drain_buffer(self) -> None:
        while self.buffer:
            # Any parked frame that now overlaps the applied prefix is
            # eligible; LSNs within a frame are contiguous, so eligibility
            # is just first_lsn <= applied + 1.
            ready = [
                first for first in self.buffer if first <= self.applied_lsn + 1
            ]
            if not ready:
                return
            for first in sorted(ready):
                records = self.buffer.pop(first)
                if records[-1].get("lsn", 0) > self.applied_lsn:
                    self._apply_records(records)

    # -------------------------------------------------------------- reading

    def read(self, sql: str, params: Optional[dict] = None):
        """Serve one read-only SELECT from the replica's catalog."""
        return self.db.query(sql, params)

    # ------------------------------------------------------------ promotion

    def promote(self, retry: Optional["RetryPolicy"] = None) -> list["Task"]:
        """Become the primary: re-enqueue every restored pending task
        (orphans spend ``retry``'s budget) and drop the reorder buffer
        (frames past a gap the dead primary will never refill).  Returns
        the resurrected tasks."""
        self.promoted = True
        self.discarded_frames = len(self.buffer)
        self.buffer.clear()
        return self.applier.resurrect(retry)

    def stats(self) -> dict:
        return {
            "name": self.name,
            "applied_lsn": self.applied_lsn,
            "applied_records": self.applied_records,
            "frames_received": self.frames_received,
            "frames_buffered": self.frames_buffered,
            "frames_stale": self.frames_stale,
            "last_commit_time": self.last_commit_time,
            "apply_lag": self.lag_hist.snapshot(),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"Standby({self.name!r}, applied_lsn={self.applied_lsn})"
