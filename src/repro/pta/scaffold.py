"""Experiments as data: one scaffold, one spec per scenario, one runner.

:class:`ExperimentRun` is the one place that knows the policy around a
run — optional subsystems are built *disabled*, armed once setup is done,
disarmed before the oracle recomputes, and the WAL of a process that died
is never flushed.

A :class:`Spec` is one scenario: the options it takes, a ``play`` that sets
up tables and rules on the run and drives it, and the :class:`Metric` list
its :class:`Result` reads.  :meth:`Spec.run` is the one runner.  The PTA
specs live in :mod:`repro.pta.workload` (single view, cascade,
deletion-heavy) and :mod:`repro.pta.distributed` (replicated, networked).
Nothing here knows the PTA schema (DESIGN.md, "Running experiments").
"""

from __future__ import annotations

import inspect
import time
from contextlib import ExitStack
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from repro.database import Database
from repro.fault import FaultInjector, RetryPolicy, check_convergence
from repro.obs.tracer import TraceCollector, Tracer
from repro.persist.manager import PersistenceManager
from repro.sim.costmodel import CostModel
from repro.sim.simulator import Simulator
from repro.txn.tasks import Task


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
        self.wal_dir = wal_dir  # the directory the result reports
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
        self.report = None  # the convergence oracle's, once finished
        self.wall_s = 0.0  # real seconds the run (not its setup) took

    def arm(self) -> None:
        """Setup is over: make it durable, then put the run under test.

        DDL never flows through the WAL, so the initial checkpoint is what
        makes the populated schema + rules durable.  Faults come on last —
        the checkpoint is not under test.  :meth:`run` arms if the spec
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
        begin = time.perf_counter()
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
        self.wall_s = time.perf_counter() - begin

    def finish(self, oracle: bool) -> None:
        """Run the convergence oracle over every derived view (with
        ``oracle``; the injector is already disarmed, so its recomputation
        runs clean) and close the WAL.  The spec's :class:`Result` reads
        the :data:`OUTCOME`."""
        self.report = check_convergence(self.db) if oracle else None
        if self.persist is not None:
            self.persist.close()


#: The options every spec may pass on to :class:`ExperimentRun`, with its defaults.
RUN_OPTIONS = {
    name: parameter.default
    for name, parameter in inspect.signature(ExperimentRun).parameters.items()
}
FAULT_OPTIONS = frozenset({"faults", "fault_seed", "max_retries", "retry_backoff"})


@dataclass(frozen=True)
class Metric:
    """One quantity a run reports, declared once.

    ``read(result)`` returns the value from the finished run — ``result.run``,
    ``result.options``, what the spec's play handed back, and any other
    metric by name; None reads the option, or what the play handed back,
    of the same name.  ``column``
    names it in :meth:`Result.row` (None: not in the row), ``show`` is how
    the row formats it, ``when`` limits the column to the runs it holds for
    (it reads metrics only: a detached result has no run).
    """

    name: str
    read: Optional[Callable[["Result"], object]] = None
    column: Optional[str] = None
    show: Optional[Callable[[object], object]] = None
    when: Optional[Callable[["Result"], bool]] = None


class Result:
    """A finished run and its metrics, each read once while the run is
    whole.  Attributes: ``run`` (the :class:`ExperimentRun`: ``run.db``,
    ``run.simulator``), ``options``, what the spec's play handed back (a
    replicated run's ``cluster``, a networked run's ``server`` and
    ``clients``), and every metric by name."""

    def __init__(
        self,
        run: ExperimentRun,
        metrics: Sequence[Metric],
        options: Optional[dict] = None,
        **state: object,
    ) -> None:
        self.run = run
        self.options = options or {}
        self.metrics = {metric.name: metric for metric in metrics}
        self.__dict__.update(state)
        for name in self.metrics:
            getattr(self, name)

    def __getattr__(self, name: str) -> object:
        # Only reached for a metric not read yet: a read may ask for another.
        metric = self.__dict__.get("metrics", {}).get(name)
        if metric is None:
            raise AttributeError(name)
        value = self.options[name] if metric.read is None else metric.read(self)
        self.__dict__[name] = value
        return value

    def detach(self) -> "Result":
        """Let go of the run and what the play handed back; keep the
        options and the metrics.  Returns this result."""
        kept = {"metrics", "options", *self.metrics}
        for name in [name for name in self.__dict__ if name not in kept]:
            del self.__dict__[name]
        return self

    def row(self, columns: Optional[Sequence[Metric]] = None) -> dict[str, object]:
        """A flat dict for report tables: the metrics with a column, in
        declaration order, each as its spec shows it — or a table's own
        ``columns``: a metric of this result by name, or what one reads."""
        out: dict[str, object] = {}
        for metric in self.metrics.values() if columns is None else columns:
            if metric.column is None or (metric.when is not None and not metric.when(self)):
                continue
            value = getattr(self, metric.name) if metric.name in self.metrics else metric.read(self)
            out[metric.column] = value if metric.show is None else metric.show(value)
        return out


def _faulted(result: Result) -> bool:
    return result.faults is not None


def _durable(result: Result) -> bool:
    return result.checkpoints > 0  # a logged run checkpoints when armed


#: What every run reports whatever its workload: the fault, oracle and
#: durability verdicts.  A column group only appears when its subsystem
#: took part, so plain runs report unchanged.
OUTCOME = (
    Metric(
        "staleness",
        lambda r: r.run.db.tracer.staleness.snapshot()
        if isinstance(r.run.db.tracer, TraceCollector)
        else None,
    ),
    Metric("faults", lambda r: r.run.faults),  # the plan the run was faulted with
    Metric("faults_injected", lambda r: r.run.db.faults.injected_count, "faults_injected", when=_faulted),
    Metric("fault_retries", lambda r: r.run.db.recovery.retry_count, "fault_retries", when=_faulted),
    Metric("fault_drops", lambda r: r.run.db.recovery.drop_count, "fault_drops", when=_faulted),
    Metric("oracle_report", lambda r: r.run.report),
    Metric(
        "oracle_divergent",  # None: the oracle did not run
        lambda r: None if r.oracle_report is None else len(r.oracle_report.divergences),
        "oracle_divergent",
        when=lambda r: r.oracle_report is not None,
    ),
    Metric("oracle_rows", lambda r: 0 if r.oracle_report is None else r.oracle_report.rows_checked),
    Metric("wal_dir", lambda r: r.run.wal_dir),  # None: no WAL, or a scratch one
    Metric("wal_records", lambda r: r.run.db.persist.records_logged, "wal_records", when=_durable),
    Metric("checkpoints", lambda r: r.run.db.persist.checkpoint_count, "checkpoints", when=_durable),
    Metric("wall_s", lambda r: r.run.wall_s),
)


def outcome(*shown: str) -> tuple[Metric, ...]:
    """:data:`OUTCOME` with a row column only for the ``shown`` metrics."""
    return tuple(m if m.name in shown else replace(m, column=None) for m in OUTCOME)


@dataclass(frozen=True)
class Spec:
    """One scenario, as data.

    ``params`` are the spec's own options and their defaults, ``takes`` the
    :class:`ExperimentRun` options it passes on.  ``play(run, options)``
    sets up tables and rules on ``run.db``, runs and finishes the run, and
    returns what the metrics read besides it.  ``scratch_wal`` names the
    prefix of a temporary WAL directory for a spec that needs one when the
    caller gives no ``wal_dir``; ``collector`` attaches a
    :class:`TraceCollector` when the caller gives no tracer.
    """

    name: str
    params: dict
    takes: frozenset
    play: Callable[[ExperimentRun, dict], dict]
    metrics: tuple[Metric, ...]
    scratch_wal: Optional[str] = None
    collector: bool = False

    @property
    def options(self) -> frozenset:
        """Every option :meth:`run` accepts."""
        return frozenset(self.params) | self.takes

    def resolve(self, **options: object) -> dict:
        """Every option a run takes: ``options`` over the defaults."""
        unknown = sorted(set(options) - self.options)
        if unknown:
            raise TypeError(f"{self.name} takes no option {', '.join(unknown)}")
        run = {name: default for name, default in RUN_OPTIONS.items() if name in self.takes}
        return {**run, **self.params, **options}

    def run(self, **options: object) -> Result:
        """The one runner: build the run, play the spec, read its metrics."""
        given = self.resolve(**options)
        settings = {name: given[name] for name in self.takes}
        if self.collector and settings["tracer"] is None:
            settings["tracer"] = TraceCollector()
        with ExitStack() as stack:
            scratch = self.scratch_wal is not None and settings["wal_dir"] is None
            if scratch:
                import tempfile  # only a spec that needs a WAL pays for the module

                settings["wal_dir"] = stack.enter_context(
                    tempfile.TemporaryDirectory(prefix=self.scratch_wal)
                )
            run = ExperimentRun(**settings)
            if scratch:
                run.wal_dir = None  # the directory goes with the run
            state = self.play(run, given)
            return Result(run, self.metrics, given, **state)
