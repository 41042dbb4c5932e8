"""Failover: promote the most-caught-up standby after a primary crash.

The drill the subsystem is built to survive: the primary dies mid-run at
one of the durability crash seams (``wal.append:crash@...``), packets
already in the network land, and the :class:`FailoverController`

1. picks the standby with the highest applied LSN (the freshest replica);
2. promotes it — the standby re-enqueues every restored pending task,
   routing orphans (tasks with a ``task_started`` record and no
   retirement) through the retry budget, exactly the PR 4 recovery path;
3. drains the promoted database's queues with a fresh simulator, so every
   delayed batch the dead primary owed is executed; and
4. runs the convergence oracle (:func:`repro.fault.check_convergence`) on
   the promoted database — derived data must equal a batch recompute from
   the replica's own base tables, the same acceptance bar crash recovery
   meets.

Updates that were in the primary's queues but never durably committed are
lost by design (redo-only logging loses exactly what a real async-
replicated system loses on failover); what the drill asserts is that the
*surviving* state is internally consistent and serves correct reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.fault.oracle import ConvergenceReport, check_convergence
from repro.replic.shipper import ReplicationError
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.fault.recovery import RetryPolicy
    from repro.replic.standby import Standby


@dataclass
class FailoverReport:
    """What one promotion drill did and found."""

    promoted: str
    applied_lsn: int
    promote_time: float
    resurrected: int = 0
    orphans_retried: int = 0
    orphans_dropped: int = 0
    drained_tasks: int = 0
    discarded_frames: int = 0
    oracle_report: Optional[ConvergenceReport] = None

    @property
    def oracle_ok(self) -> bool:
        return self.oracle_report is not None and self.oracle_report.ok

    def describe(self) -> str:
        lines = [
            f"promoted {self.promoted} at applied lsn {self.applied_lsn} "
            f"(virtual t={self.promote_time:.3f})",
            f"  resurrected {self.resurrected} pending tasks "
            f"({self.orphans_retried} orphans retried, "
            f"{self.orphans_dropped} dropped), drained {self.drained_tasks}",
        ]
        if self.discarded_frames:
            lines.append(
                f"  discarded {self.discarded_frames} reorder-buffered "
                "frames past an unfillable gap"
            )
        if self.oracle_report is not None:
            verdict = "clean" if self.oracle_report.ok else "DIVERGENT"
            lines.append(
                f"  convergence oracle: {verdict} "
                f"({self.oracle_report.rows_checked} rows checked)"
            )
        return "\n".join(lines)


class FailoverController:
    """Chooses and promotes a standby; runs the post-promotion drill."""

    def __init__(
        self,
        standbys: list["Standby"],
        retry: Optional["RetryPolicy"] = None,
    ) -> None:
        if not standbys:
            raise ReplicationError("failover needs at least one standby")
        self.standbys = standbys
        self.retry = retry

    def choose(self) -> "Standby":
        """The freshest replica wins (highest applied LSN; first on ties)."""
        return max(self.standbys, key=lambda standby: standby.applied_lsn)

    def promote(
        self,
        standby: Optional["Standby"] = None,
        drain: bool = True,
        oracle: bool = True,
    ) -> FailoverReport:
        target = standby if standby is not None else self.choose()
        report_before = target.report
        orphans_before = (
            report_before.orphans_retried,
            report_before.orphans_dropped,
        )
        resurrected = target.promote(self.retry)
        report = FailoverReport(
            promoted=target.name,
            applied_lsn=target.applied_lsn,
            promote_time=target.db.clock.base,
            resurrected=len(resurrected),
            orphans_retried=report_before.orphans_retried - orphans_before[0],
            orphans_dropped=report_before.orphans_dropped - orphans_before[1],
            discarded_frames=target.discarded_frames,
        )
        if drain:
            report.drained_tasks = Simulator(target.db).run()
        if oracle:
            report.oracle_report = check_convergence(target.db)
        return report
