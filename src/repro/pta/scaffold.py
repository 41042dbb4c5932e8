"""The scaffold every experiment driver runs on.

:class:`ExperimentRun` is the one place that knows the policy around a
run — optional subsystems are built *disabled*, armed once setup is done,
disarmed before the oracle recomputes, and the WAL of a process that died
is never flushed.  The drivers in :mod:`repro.pta.workload` and
:mod:`repro.pta.distributed` supply tables, rules, the arrival stream or
transport, and extend :class:`RunOutcome` with their workload's metrics.
Nothing here knows the PTA schema (DESIGN.md, "Running experiments").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.database import Database
from repro.fault import ConvergenceReport, FaultInjector, RetryPolicy, check_convergence
from repro.obs.tracer import TraceCollector, Tracer
from repro.persist.manager import PersistenceManager
from repro.sim.costmodel import CostModel
from repro.sim.simulator import Simulator
from repro.txn.tasks import Task


@dataclass(kw_only=True)
class RunOutcome:
    """What every run reports whatever its workload: the fault, oracle and
    durability verdicts :meth:`ExperimentRun.finish` collected.  The result
    type of each driver extends this with the workload's own metrics."""

    #: Derived-view freshness rollup (None without a trace collector).
    staleness: Optional[dict] = None
    #: Fault-injection outcome (all zero / None for fault-free runs).
    faults: Optional[str] = None  # the plan string the run was faulted with
    faults_injected: int = 0
    fault_retries: int = 0
    fault_drops: int = 0
    oracle_divergent: Optional[int] = None  # None: oracle did not run
    oracle_rows: int = 0
    oracle_report: Optional[ConvergenceReport] = None
    #: Durability outcome (None / zero for persistence-free runs).
    wal_dir: Optional[str] = None  # the WAL directory the run logged into
    wal_records: int = 0
    checkpoints: int = 0

    def outcome_row(self) -> dict[str, object]:
        """The shared tail of every ``row()``.  A column group only appears
        when its subsystem took part, so plain runs report unchanged."""
        out: dict[str, object] = {}
        if self.faults is not None:
            out["faults_injected"] = self.faults_injected
            out["fault_retries"] = self.fault_retries
            out["fault_drops"] = self.fault_drops
        if self.oracle_divergent is not None:
            out["oracle_divergent"] = self.oracle_divergent
        if self.wal_dir is not None:
            out["wal_records"] = self.wal_records
            out["checkpoints"] = self.checkpoints
        return out


class ExperimentRun:
    """One experiment's database and simulator, and the arm -> run ->
    disarm -> oracle ordering around them.  Construct, set up ``run.db``
    (neither faulted nor logged), then :meth:`run` and :meth:`finish`.

    Args:
        cost_model / policy / processors / drop_late / keep_records /
            tracer: passed to the :class:`Database` and :class:`Simulator`.
        faults: a fault plan (``repro.fault.parse_plan`` grammar).  The run
            executes under seeded injection with the retry policy enabled.
            None (the default) leaves the fault machinery entirely out of
            the hot path — the run is identical to one on a build without
            the subsystem.
        fault_seed: RNG seed for the injection schedule (reproducible runs).
        max_retries / retry_backoff: the recovery policy's retry budget and
            initial backoff (seconds) for faulted tasks.
        wal_dir: write-ahead log + checkpoint directory.  Population and
            rule DDL land in an initial checkpoint; every commit and task
            event after that is redo-logged, so a crash at any point is
            recoverable with ``repro.persist.recover`` (or ``python -m
            repro recover``).  None (the default) keeps the run on the
            zero-overhead :class:`~repro.persist.manager.NullPersistence`
            path, byte-identical to a build without the subsystem.
        checkpoint_every: fuzzy-checkpoint interval in virtual seconds
            (consulted between tasks); None checkpoints only at setup.
        wal_sync: fsync the WAL after every flush (slow, real durability).
    """

    def __init__(
        self,
        *,
        cost_model: Optional[CostModel] = None,
        policy: str = "fifo",
        processors: int = 1,
        drop_late: bool = False,
        keep_records: bool = False,
        tracer: Optional[Tracer] = None,
        faults: Optional[str] = None,
        fault_seed: int = 0,
        max_retries: int = 5,
        retry_backoff: float = 0.25,
        wal_dir: Optional[str] = None,
        checkpoint_every: Optional[float] = None,
        wal_sync: bool = False,
    ) -> None:
        self.faults = faults or None
        self.injector = self.persist = recovery = None
        if faults:
            self.injector = FaultInjector(faults, seed=fault_seed)
            self.injector.enabled = False  # setup is not under test
            recovery = RetryPolicy(max_retries=max_retries, backoff=retry_backoff)
        if wal_dir is not None:
            self.persist = PersistenceManager(
                wal_dir, checkpoint_every=checkpoint_every, sync=wal_sync
            )
            self.persist.enabled = False  # setup goes into the initial checkpoint
        self.db = Database(
            cost_model=cost_model, policy=policy, tracer=tracer,
            faults=self.injector, recovery=recovery, persist=self.persist,
        )
        self.db.metrics.set_keep_records(keep_records)
        self.simulator = Simulator(self.db, processors, drop_late=drop_late)
        self.armed = False

    def arm(self) -> None:
        """Setup is over: make it durable, then put the run under test.

        DDL never flows through the WAL, so the initial checkpoint is what
        makes the populated schema + rules durable.  Faults come on last —
        the checkpoint is not under test.  :meth:`run` arms if the driver
        did not (one that attaches a replication cluster must, first)."""
        if self.armed:
            return
        self.armed = True
        if self.persist is not None:
            self.persist.enabled = True
            self.persist.checkpoint()
        if self.injector is not None:
            self.injector.enabled = True

    def run(
        self,
        arrivals: Sequence[Task] = (),
        drive: Optional[Callable[[Simulator], object]] = None,
    ) -> None:
        """Arm and execute: the simulator over ``arrivals``, or
        ``drive(simulator)`` when a transport co-simulates with it.

        Faults are disarmed on the way out, however the run ends.  If it
        ends in an exception — an injected crash above all — the WAL is
        abandoned, not flush-closed (what the dead process never flushed
        must not become durable), and the error propagates."""
        self.arm()
        try:
            if drive is not None:
                drive(self.simulator)
            else:
                self.simulator.run(arrivals=arrivals)
        except BaseException:
            if self.persist is not None:
                self.persist.abandon()
            raise
        finally:
            if self.injector is not None:
                self.injector.enabled = False

    def finish(self, oracle: bool) -> RunOutcome:
        """Collect the outcome and close the WAL.  With ``oracle`` the
        convergence oracle checks every derived view first; the injector is
        already disarmed, so its recomputation runs clean."""
        db = self.db
        report = check_convergence(db) if oracle else None
        outcome = RunOutcome(
            staleness=(
                db.tracer.staleness.snapshot()
                if isinstance(db.tracer, TraceCollector)
                else None
            ),
            faults=self.faults,
            faults_injected=db.faults.injected_count,
            fault_retries=db.recovery.retry_count,
            fault_drops=db.recovery.drop_count,
            oracle_divergent=len(report.divergences) if report is not None else None,
            oracle_rows=report.rows_checked if report is not None else 0,
            oracle_report=report,
            wal_dir=self.persist.wal_dir if self.persist is not None else None,
            wal_records=db.persist.records_logged,
            checkpoints=db.persist.checkpoint_count,
        )
        if self.persist is not None:
            self.persist.close()
        return outcome
