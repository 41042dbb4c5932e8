"""The replication cluster: one primary and N standbys.

:class:`ReplicationCluster` wires the pieces together around an armed
:class:`~repro.persist.manager.PersistenceManager`:

* it makes sure there is a checkpoint, and every standby boots from the
  directory as crash recovery would (checkpoint + durable WAL tail), so
  it starts at the primary's newest durable record;
* it registers itself as the manager's ``shipper`` hook, the one way a
  record leaves for a replica: every flush hands over the frame it made
  durable and the shipper buffers it until every standby has acked it —
  checkpoints may truncate the file at any time, nothing reads it back.
  In **async** mode the record goes out with the next pump (zero cost to
  the committing task — the persistence no-overhead invariant holds); in
  **semisync** mode a flushed *commit* record blocks the committing task
  until the first standby acks it, and the ack wait is charged to the
  task's meter — commit latency buys bounded replica lag;
* it hangs a post-task hook on the simulator so frames and acks advance
  with virtual time between tasks (one virtual executor per replica: the
  standby applies frames stamped with their network arrival times, on
  its own clock).

The PTA workload harness on top (with the failover drill) is
the ``REPLICATED`` spec in the experiment layer; nothing in this package
imports a workload.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.database import Database
from repro.fault.oracle import ConvergenceReport, Divergence
from repro.fault.recovery import RetryPolicy
from repro.obs.tracer import Tracer
from repro.persist.manager import PersistenceManager
from repro.replic.channel import NetworkConfig
from repro.replic.failover import FailoverController, FailoverReport
from repro.replic.shipper import ReplicationError, WalShipper
from repro.replic.standby import Standby


def check_replica_equivalence(
    primary: Database, replica: Database
) -> ConvergenceReport:
    """Row-for-row equivalence of every table on primary vs. replica.

    Stronger than the convergence oracle (which compares derived views to
    a batch recompute): redo replay is deterministic, so after quiescence
    the replica must hold *exactly* the primary's rows — base tables,
    derived views, everything.  Values survive the JSON round-trip
    losslessly (floats serialise via ``repr``), so comparison is exact.
    """
    report = ConvergenceReport(tolerance=0.0)
    for table in primary.catalog.tables():
        name = table.name
        replica_table = replica.catalog.table(name)
        expected: dict[tuple, int] = {}
        for record in table.scan():
            key = tuple(record.values)
            expected[key] = expected.get(key, 0) + 1
        actual: dict[tuple, int] = {}
        for record in replica_table.scan():
            key = tuple(record.values)
            actual[key] = actual.get(key, 0) + 1
        report.views_checked.append(f"table:{name}")
        report.rows_checked += sum(expected.values())
        for key, count in expected.items():
            missing = count - actual.get(key, 0)
            for _ in range(max(missing, 0)):
                report.divergences.append(
                    Divergence(view=name, key=key, expected=key, actual=None)
                )
        for key, count in actual.items():
            extra = count - expected.get(key, 0)
            for _ in range(max(extra, 0)):
                report.divergences.append(
                    Divergence(view=name, key=key, expected=None, actual=key)
                )
    return report


class ReplicationCluster:
    """Owns the shipper and the standbys."""

    def __init__(
        self,
        db: Database,
        persist: PersistenceManager,
        replicas: int = 1,
        mode: str = "async",
        network: Optional[NetworkConfig] = None,
        net_seed: int = 0,
        batch_records: int = 8,
        resend_timeout: float = 0.25,
        functions: Optional[dict[str, Callable]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if mode not in ("async", "semisync"):
            raise ReplicationError(
                f"repl-mode must be 'async' or 'semisync', got {mode!r}"
            )
        if replicas < 1:
            raise ReplicationError("a replication cluster needs >= 1 replica")
        if not persist.enabled:
            raise ReplicationError(
                "the persistence manager must be armed (enabled, with an "
                "initial checkpoint) before replicas attach"
            )
        self.db = db
        self.persist = persist
        self.mode = mode
        self.network = network if network is not None else NetworkConfig()
        if persist.checkpoint_count == 0:
            persist.checkpoint()
        self.standbys = [
            Standby(
                f"r{index}",
                persist.wal_dir,
                functions=functions,
                tracer=tracer if tracer is not None else db.tracer,
            )
            for index in range(replicas)
        ]
        # The standbys booted through the durable tail, so the buffer starts
        # empty at the newest durable record (attach checks that they did).
        self.shipper = WalShipper(
            start_lsn=persist.next_lsn - 1,
            faults=db.faults,  # channels gate on faults.enabled themselves
            batch_records=batch_records,
            resend_timeout=resend_timeout,
        )
        for index, standby in enumerate(self.standbys):
            self.shipper.attach(
                standby, self.network, seed=net_seed * 1000 + index * 2
            )
        self.commit_waits = 0
        self.commit_wait_total = 0.0
        self.commit_wait_max = 0.0
        persist.shipper = self  # the manager calls on_record after flushes

    # ------------------------------------------------------------- pumping

    def pump(self, now: float) -> None:
        """The simulator's post-task hook: advance shipping to ``now``."""
        self.shipper.pump(now)

    def on_record(self, frame: bytes, kind: str, lsn: int, now: float) -> float:
        """PersistenceManager hook: ``frame`` just became durable.

        Async mode returns 0 — shipping rides the between-task pump and
        costs committing transactions nothing.  Semi-sync mode waits for
        the first standby to ack the commit record and returns the wait,
        which the manager charges to the running task's meter."""
        self.shipper.offer(frame)
        if self.mode != "semisync" or kind != "commit":
            return 0.0
        acked_at = self.shipper.wait_for_ack(lsn, now)
        wait = max(acked_at - now, 0.0)
        self.commit_waits += 1
        self.commit_wait_total += wait
        self.commit_wait_max = max(self.commit_wait_max, wait)
        return wait

    # ----------------------------------------------------------- lifecycle

    def finish(self) -> float:
        """Quiesce: ship and apply everything durable; returns the time."""
        return self.shipper.drain(self.db.clock.base)

    def crash_primary(self) -> float:
        """The primary died: abandon its unflushed tail, land in-flight
        packets, stop shipping.  Returns the last delivery time."""
        self.persist.abandon()
        return self.shipper.deliver_in_flight(self.db.clock.base)

    def failover(self, retry: Optional[RetryPolicy] = None) -> FailoverReport:
        return FailoverController(self.standbys, retry).promote()

    def lag_snapshot(self) -> list[dict]:
        now = self.db.clock.base
        return [
            {
                **standby.stats(),
                "lag_behind_primary_s": standby.lag_behind(now),
                "acked_lsn": link.acked_lsn,
            }
            for standby, link in zip(self.standbys, self.shipper.links)
        ]
