"""Span/event tracing for the rule engine and simulator.

The engine carries a single hook point, ``db.tracer``, sitting next to
``db.charge``: instrumentation sites test ``tracer.enabled`` (one attribute
load and a branch — the :class:`NullTracer` default keeps tracing strictly
pay-for-what-you-use) and, when tracing is on, call a named hook.  The
recording implementation, :class:`TraceCollector`, keeps virtual-clock-
stamped events in a columnar :class:`EventLog` (read back as
:class:`TraceEvent` records).  The log is its one record: the counters,
the queue-depth gauge, the histograms (:class:`~repro.obs.metrics.Rollup`)
and the per-rule cost profile (:class:`~repro.obs.attribution.Attribution`)
are read from it when a report asks.  Live beside it stay only what a hot
path reads — the staleness ledger, whose watermark admission control polls
on every write, and the few counts a time-series sample or an admission
event carries — and what logs no event: each finished task's meter (the
per-charge-kind CPU breakdown) and the network responses.

Every event kind — its track, how its name is read and its argument names
— is declared once, as an event shape below (``TXN_BEGIN`` ...
``BACKPRESSURE``); ``docs/OBSERVABILITY.md`` ("Event taxonomy") says what
each one means.

The collector feeds two parts of the second observability layer as it
runs: a :class:`~repro.obs.staleness.StalenessTracker` (mutation ->
reflection lag per view/rule) and a
:class:`~repro.obs.timeseries.TimeSeriesSampler` (virtual-clock gauge
snapshots plus the ``backpressure()`` signal).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Optional, Sequence

from repro.obs.attribution import ENGINE_KEY, Attribution
from repro.obs.metrics import Rollup
from repro.obs.staleness import StalenessTracker
from repro.obs.timeseries import TimeSeriesSampler

if TYPE_CHECKING:  # pragma: no cover
    from repro.database import Database
    from repro.sim.metrics import TaskRecord
    from repro.txn.tasks import Task
    from repro.txn.transaction import Transaction


@dataclass(slots=True)
class TraceEvent:
    """One trace record; ``ts``/``dur`` are virtual seconds."""

    ts: float
    kind: str
    name: str
    track: str = "engine"
    dur: Optional[float] = None
    args: dict[str, Any] = field(default_factory=dict)


#: ``dur`` of an event that is not a span.
NO_DUR = math.nan


class _Shape:
    """What every event of one code shares: kind, track, the name — a
    constant, or read from the first stored value (as is when ``name`` is
    None) — and the argument names, each with the function that turns its
    stored value into the exported one (``None``: stored as exported).

    ``hidden`` values follow the arguments: facts only the log's readers
    need (a rule key, the bound rows at a task's start), kept in the log
    and never exported."""

    __slots__ = ("kind", "track", "name", "fields", "width")

    def __init__(
        self, kind: str, track: str, name: Any, fields: tuple, hidden: int = 0
    ) -> None:
        self.kind, self.track, self.name = kind, track, name
        self.fields = [(f, None) if isinstance(f, str) else f for f in fields]
        self.width = len(fields) + (not isinstance(name, str)) + hidden

    def event(self, ts: float, dur: float, values: Sequence[Any]) -> TraceEvent:
        name = self.name
        if not isinstance(name, str):
            name = values[0] if name is None else name(values[0])
            values = values[1:]
        args = {arg: v if read is None else read(v) for (arg, read), v in zip(self.fields, values)}
        return TraceEvent(ts, self.kind, name, self.track, None if dur != dur else dur, args)


#: The shapes every log starts with; a collector adds one ``task`` and one
#: ``task.abort`` shape per server and one lag shape per replica.
_SHAPES: list[_Shape] = []


def _shape(kind: str, track: str, name: Any, *fields: Any, hidden: int = 0) -> int:
    _SHAPES.append(_Shape(kind, track, name, fields, hidden))
    return len(_SHAPES) - 1


_txn = "txn#{}".format
_key = ("key", repr)
TXN_BEGIN = _shape("txn.begin", "txn", _txn)
TXN_COMMIT = _shape("txn.commit", "txn", _txn, "ops")
TXN_ABORT = _shape("txn.abort", "txn", _txn)
VIEW_REGISTER = _shape("view.register", "views", None, "function", ("rules", list))
RULE_CHECK = _shape("rule.check", "rules", None, "txn")
RULE_FIRE = _shape("rule.fire", "rules", None, "txn", "new_tasks")
# hidden: the task's attribution key (rule name, or class)
UNIQUE_NEW = _shape(
    "unique.new", "unique", None, "task_id", _key, "stratum", "cascade_from", hidden=1
)
UNIQUE_APPEND = _shape("unique.append", "unique", None, "task_id", "rows", _key)
UNIQUE_COMPACT = _shape("unique.compact", "unique", None, "task_id", "rows_in", "rows_out", _key)
UNIQUE_RESCIND = _shape("unique.rescind", "unique", None, "task_id", "created", _key)
QUEUES = _shape("counter.queues", "queues", "queues", "delay", "ready")
TASK_ENQUEUE = _shape("task.enqueue", "sched", None, "task_id", "release")
TASK_RELEASE = _shape("task.release", "sched", None, "task_id", "ready")
TASK_PREEMPT = _shape("task.preempt", "sched", None, "task_id", "switches")
TASK_DROP = _shape("task.drop", "sched", None, "task_id", "deadline")
TASK_SUPERSEDE = _shape("task.supersede", "sched", None, "task_id")
FAULT_INJECT = _shape("fault.inject", "faults", None, "action", "target")
FAULT_RETRY = _shape("fault.retry", "faults", None, "task_id", "attempt", "release")
FAULT_DROP = _shape("fault.drop", "faults", None, "task_id", "attempts")
# hidden: the running task's attribution key, or ENGINE_KEY
PERSIST_FLUSH = _shape("persist.flush", "persist", None, "lsn", "bytes", hidden=1)
CHECKPOINT = _shape("persist.checkpoint", "persist", "checkpoint", "bytes", "tables", "pending_tasks")
NET_SESSION = _shape("net.session", "net", None, "event")
NET_ADMIT = _shape("net.admit", "net", None, "decision", "pressure")
ADMISSION = _shape("counter.admission", "admission", "admission", "pressure", "throttled", "shed")
PENDING = _shape("counter.pending", "pending", "pending", "pending_unique", "outstanding")
STALENESS = _shape("counter.staleness", "staleness", "staleness", "watermark_s")
BACKPRESSURE = _shape("counter.backpressure", "backpressure", "backpressure", "value")


class EventLog(Sequence[TraceEvent]):
    """The collector's events, column by column.

    Every event keeps its ``ts`` and ``dur`` (NaN: not a span) in
    ``array('d')``, one small-int code naming its :class:`_Shape`, and where
    its values start in one flat list: the name when it varies, then the
    arguments.  A value is kept as the hook held it (a task id, a unique
    key); strings such as ``txn#<id>`` or ``repr(key)`` are made when the
    event is read.

    As a sequence the log reads as :class:`TraceEvent` records, equal to
    what a list of them would hold; only :meth:`add` writes to it."""

    __slots__ = ("_ts", "_dur", "_codes", "_at", "_values", "_shapes")

    def __init__(self) -> None:
        self._ts = array("d")
        self._dur = array("d")
        self._codes = array("H")
        self._at = array("I")
        self._values: list[Any] = []
        self._shapes = list(_SHAPES)

    def code(self, kind: str, track: str, name: Any, *fields: Any, hidden: int = 0) -> int:
        """A new event shape for this log; each field is an argument name
        or a ``(name, read)`` pair."""
        self._shapes.append(_Shape(kind, track, name, fields, hidden))
        return len(self._shapes) - 1

    def add(self, code: int, ts: float, dur: float, *values: Any) -> None:
        self._ts.append(ts)
        self._dur.append(dur)
        self._codes.append(code)
        self._at.append(len(self._values))
        self._values += values

    def raw(self) -> Iterator[tuple[_Shape, float, float, list[Any]]]:
        """Every event in order as (shape, ts, dur, stored values): the
        name when it varies, the arguments and the hidden values, none of
        them converted."""
        shapes, at, stored = self._shapes, self._at, self._values
        for index, code in enumerate(self._codes):
            shape, start = shapes[code], at[index]
            yield shape, self._ts[index], self._dur[index], stored[start:start + shape.width]

    def count_kind(self, kind: str) -> int:
        """Number of events of one kind, read off the codes."""
        codes = self._codes
        return sum(codes.count(c) for c, shape in enumerate(self._shapes) if shape.kind == kind)

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        shape, at = self._shapes[self._codes[index]], self._at[index]
        return shape.event(self._ts[index], self._dur[index], self._values[at:at + shape.width])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


class Tracer:
    """The hook protocol.  Every method is a no-op; ``enabled`` gates the
    call sites so a disabled tracer costs one attribute load per site."""

    enabled = False

    def bind(self, db: "Database") -> None:
        """Called once when the tracer is attached to a database."""

    # ------------------------------------------------------- transactions
    def txn_begin(self, txn: "Transaction", now: float) -> None: ...
    def txn_commit(self, txn: "Transaction", now: float) -> None: ...
    def txn_abort(self, txn: "Transaction", now: float) -> None: ...

    # -------------------------------------------------------------- views
    def view_registered(
        self, view_name: str, function_name: str, rule_names: tuple, now: float
    ) -> None: ...

    # -------------------------------------------------------------- rules
    def rule_check(self, rule_name: str, txn_id: int, now: float) -> None: ...
    def rule_fire(
        self, rule_name: str, txn_id: int, new_tasks: int, now: float
    ) -> None: ...

    # ----------------------------------------------------- unique manager
    def unique_new(
        self, task: "Task", now: float, origin: Optional["Task"] = None
    ) -> None: ...
    def unique_append(
        self, task: "Task", rows: int, now: float, origin: Optional["Task"] = None
    ) -> None: ...
    def unique_compact(
        self, task: "Task", rows_in: int, rows_out: int, now: float
    ) -> None: ...
    def unique_rescind(
        self, task: "Task", created: bool, now: float, origin: Optional["Task"] = None
    ) -> None: ...

    # -------------------------------------------------------------- tasks
    def task_enqueue(
        self, task: "Task", delay_depth: int, ready_depth: int, now: float
    ) -> None: ...
    def task_release(self, task: "Task", ready_depth: int, now: float) -> None: ...
    def task_start(self, task: "Task", now: float) -> None: ...
    def task_preempt(self, task: "Task", switches: int, now: float) -> None: ...
    def task_done(self, task: "Task", record: "TaskRecord", server: int = 0) -> None: ...
    def task_abort(self, task: "Task", now: float, server: int = 0) -> None: ...
    def task_drop(self, task: "Task", now: float) -> None: ...
    def task_superseded(self, task: "Task", now: float) -> None: ...

    # -------------------------------------------------------------- faults
    def fault_inject(
        self, point: str, action: str, label: str, now: float
    ) -> None: ...
    def fault_retry(
        self, task: "Task", attempt: int, release: float, now: float
    ) -> None: ...
    def fault_drop(self, task: "Task", attempts: int, now: float) -> None: ...

    # --------------------------------------------------------- persistence
    def persist_flush(self, kind: str, nbytes: int, lsn: int, now: float) -> None: ...
    def persist_checkpoint(
        self, path: str, nbytes: int, tables: int, tasks: int, now: float
    ) -> None: ...

    # --------------------------------------------------------- replication
    def replication_lag(
        self, replica: str, lag: float, lsn: int, now: float
    ) -> None: ...

    # ------------------------------------------------------------- network
    def net_session(self, session: str, event: str, now: float) -> None: ...
    def net_admission(
        self, session: str, decision: str, pressure: float, now: float
    ) -> None: ...
    def net_response(self, session: str, status: str, now: float) -> None: ...


class NullTracer(Tracer):
    """The zero-overhead default: ``db.tracer`` when nobody is watching."""


class TraceCollector(Tracer):
    """Records events in an :class:`EventLog`, the one record every report
    reads (:meth:`rollup`, :meth:`attribution`)."""

    enabled = True

    def __init__(
        self,
        sample_interval: float = 1.0,
        timeseries: Optional[TimeSeriesSampler] = None,
    ) -> None:
        """``sample_interval`` sets the time-series cadence in virtual
        seconds; pass 0 (or a negative value) to disable sampling."""
        self.events = EventLog()
        self.staleness = StalenessTracker()
        if timeseries is not None:
            self.timeseries: Optional[TimeSeriesSampler] = timeseries
        elif sample_interval > 0:
            self.timeseries = TimeSeriesSampler(sample_interval)
        else:
            self.timeseries = None
        #: charge kind -> how many times finished tasks were charged it
        self._op_counts: dict[str, int] = {}
        self._cost_seconds: Optional[dict[str, float]] = None
        self._db: Optional["Database"] = None
        # server -> the codes of its task and task.abort events
        self._servers: dict[int, tuple[int, int]] = {}
        # replica -> the code of its lag events
        self._replicas: dict[str, int] = {}
        # What a time-series sample reads: the queue depth at the last
        # enqueue, finished tasks and commits.
        self._queue_depth: Any = 0.0
        self._tasks_done = 0
        self._txn_commits = 0
        # admission decision -> count (counter.admission carries two)
        self._decisions = {"admit": 0, "throttle": 0, "shed": 0}
        # The running task's attribution key and bound rows at its start.
        self._running: Optional[str] = None
        self._start_rows = 0
        # net_response logs no event: response status -> count.
        self._net_responses: dict[str, int] = {}

    def bind(self, db: "Database") -> None:
        self._cost_seconds = dict(db.cost_model._seconds)
        self._db = db

    def count(self, kind: str) -> int:
        """Number of recorded events of one kind (see :meth:`EventLog.count_kind`)."""
        return self.events.count_kind(kind)

    # ------------------------------------------------------- transactions

    def txn_begin(self, txn: "Transaction", now: float) -> None:
        self.events.add(TXN_BEGIN, now, NO_DUR, txn.txn_id)

    def txn_commit(self, txn: "Transaction", now: float) -> None:
        self._txn_commits += 1
        dur = max(now - txn.begin_time, 0.0)
        self.events.add(TXN_COMMIT, txn.begin_time, dur, txn.txn_id, len(txn.log))
        self._maybe_sample(now)

    def txn_abort(self, txn: "Transaction", now: float) -> None:
        dur = max(now - txn.begin_time, 0.0)
        self.events.add(TXN_ABORT, txn.begin_time, dur, txn.txn_id)

    # -------------------------------------------------------------- views

    def view_registered(
        self, view_name: str, function_name: str, rule_names: tuple, now: float
    ) -> None:
        self.staleness.register_view(view_name, function_name, rule_names)
        self.events.add(VIEW_REGISTER, now, NO_DUR, view_name, function_name, tuple(rule_names))

    # -------------------------------------------------------------- rules

    def rule_check(self, rule_name: str, txn_id: int, now: float) -> None:
        self.events.add(RULE_CHECK, now, NO_DUR, rule_name, txn_id)

    def rule_fire(
        self, rule_name: str, txn_id: int, new_tasks: int, now: float
    ) -> None:
        self.events.add(RULE_FIRE, now, NO_DUR, rule_name, txn_id, new_tasks)

    # ----------------------------------------------------- unique manager

    def unique_new(
        self, task: "Task", now: float, origin: Optional["Task"] = None
    ) -> None:
        self.staleness.on_task_new(task, now, origin=origin)
        self.events.add(
            UNIQUE_NEW, now, NO_DUR, task.function_name or task.klass, task.task_id,
            task.unique_key, task.stratum, task.cascade_from, task.rule_name or task.klass,
        )

    def unique_append(
        self, task: "Task", rows: int, now: float, origin: Optional["Task"] = None
    ) -> None:
        self.staleness.on_task_append(task, now, origin=origin)
        self.events.add(
            UNIQUE_APPEND, now, NO_DUR, task.function_name or task.klass, task.task_id,
            rows, task.unique_key,
        )

    def unique_compact(
        self, task: "Task", rows_in: int, rows_out: int, now: float
    ) -> None:
        self.events.add(
            UNIQUE_COMPACT, now, NO_DUR, task.function_name or task.klass,
            task.task_id, rows_in, rows_out, task.unique_key,
        )

    def unique_rescind(
        self, task: "Task", created: bool, now: float, origin: Optional["Task"] = None
    ) -> None:
        """The commit whose firing opened ``task`` (``created``) or was
        coalesced onto it rolled back: withdraw the firing from the
        staleness stamps (the log's readers withdraw it from the batch size
        and the rule's attribution)."""
        self.staleness.on_task_rescind(task, created, origin)
        self.events.add(
            UNIQUE_RESCIND, now, NO_DUR, task.function_name or task.klass,
            task.task_id, created, task.unique_key,
        )

    # -------------------------------------------------------------- tasks

    def task_enqueue(
        self, task: "Task", delay_depth: int, ready_depth: int, now: float
    ) -> None:
        events = self.events
        events.add(TASK_ENQUEUE, now, NO_DUR, task.klass, task.task_id, task.release_time)
        self._queue_depth = delay_depth + ready_depth
        events.add(QUEUES, now, NO_DUR, delay_depth, ready_depth)
        self._maybe_sample(now)

    def task_release(self, task: "Task", ready_depth: int, now: float) -> None:
        self.events.add(TASK_RELEASE, now, NO_DUR, task.klass, task.task_id, ready_depth)

    def task_start(self, task: "Task", now: float) -> None:
        self._running = task.rule_name or task.klass
        self._start_rows = task.bound_rows

    def task_preempt(self, task: "Task", switches: int, now: float) -> None:
        self.events.add(TASK_PREEMPT, now, NO_DUR, task.klass, task.task_id, switches)

    def _server(self, server: int) -> tuple[int, int]:
        """The codes of one server's ``task`` and ``task.abort`` events; an
        abort keeps the task's bound rows at its start hidden."""
        track, code = f"server-{server}", self.events.code
        args = ("task_id", "cpu", "queueing", "bound_rows", "context_switches")
        codes = self._servers[server] = (
            code("task", track, None, *args),
            code("task.abort", track, None, "task_id", hidden=1),
        )
        return codes

    def task_done(self, task: "Task", record: "TaskRecord", server: int = 0) -> None:
        self._tasks_done += 1
        self._running = None
        self.staleness.on_task_done(task, record.end_time)
        codes = self._servers.get(server) or self._server(server)
        self.events.add(
            codes[0], record.start_time, record.length, task.klass, task.task_id,
            record.cpu_time, record.queueing, record.bound_rows, record.context_switches,
        )
        if self._cost_seconds is not None:
            totals = self._op_counts
            for op, n in task.meter.ops.items():
                totals[op] = totals.get(op, 0) + n
        self._maybe_sample(record.end_time)

    def task_abort(self, task: "Task", now: float, server: int = 0) -> None:
        # Staleness stamps stay: a retried task still owes its mutations.
        self._running = None
        start = task.start_time if task.start_time is not None else now
        codes = self._servers.get(server) or self._server(server)
        self.events.add(
            codes[1], start, max(now - start, 0.0), task.klass, task.task_id, self._start_rows
        )

    def task_drop(self, task: "Task", now: float) -> None:
        self.staleness.on_task_dropped(task, now)
        self.events.add(TASK_DROP, now, NO_DUR, task.klass, task.task_id, task.deadline)

    def task_superseded(self, task: "Task", now: float) -> None:
        self.staleness.on_task_superseded(task, now)
        self.events.add(TASK_SUPERSEDE, now, NO_DUR, task.klass, task.task_id)

    # -------------------------------------------------------------- faults

    def fault_inject(self, point: str, action: str, label: str, now: float) -> None:
        self.events.add(FAULT_INJECT, now, NO_DUR, point, action, label)

    def fault_retry(
        self, task: "Task", attempt: int, release: float, now: float
    ) -> None:
        self.events.add(
            FAULT_RETRY, now, NO_DUR, task.klass, task.task_id, attempt, release
        )

    def fault_drop(self, task: "Task", attempts: int, now: float) -> None:
        self.staleness.on_task_dropped(task, now)
        self.events.add(FAULT_DROP, now, NO_DUR, task.klass, task.task_id, attempts)

    # --------------------------------------------------------- persistence

    def persist_flush(self, kind: str, nbytes: int, lsn: int, now: float) -> None:
        self.events.add(PERSIST_FLUSH, now, NO_DUR, kind, lsn, nbytes, self._running or ENGINE_KEY)

    def persist_checkpoint(
        self, path: str, nbytes: int, tables: int, tasks: int, now: float
    ) -> None:
        self.events.add(CHECKPOINT, now, NO_DUR, nbytes, tables, tasks)

    # --------------------------------------------------------- replication

    def replication_lag(
        self, replica: str, lag: float, lsn: int, now: float
    ) -> None:
        """One commit record applied on a standby: ``lag`` virtual seconds
        after the primary committed it, on a per-replica Chrome counter
        track so the lag plots right beside the staleness watermark."""
        code = self._replicas.get(replica)
        if code is None:
            code = self._replicas[replica] = self.events.code(
                "counter.replication_lag", f"replication-{replica}", replica, "lag_s", "lsn"
            )
        self.events.add(code, now, NO_DUR, lag, lsn)

    # ------------------------------------------------------------- network

    def net_session(self, session: str, event: str, now: float) -> None:
        """A client session opened, closed, or was refused (``event`` is
        ``open`` / ``close`` / ``refused``)."""
        self.events.add(NET_SESSION, now, NO_DUR, session, event)

    def net_admission(
        self, session: str, decision: str, pressure: float, now: float
    ) -> None:
        """One admission decision (``admit`` / ``throttle`` / ``shed``) for
        a client write, with the backpressure reading that drove it.  The
        running counts mirror onto a ``counter.admission`` Chrome track so
        the shed/delay behaviour plots beside queue depth and staleness."""
        decisions = self._decisions
        decisions[decision] += 1
        events = self.events
        events.add(NET_ADMIT, now, NO_DUR, session, decision, pressure)
        events.add(
            ADMISSION, now, NO_DUR, pressure, decisions["throttle"], decisions["shed"]
        )

    def net_response(self, session: str, status: str, now: float) -> None:
        """A response reached (or left for) a client.  Logs no event: the
        count per status is kept here."""
        responses = self._net_responses
        responses[status] = responses.get(status, 0) + 1

    # --------------------------------------------------------- time series

    def _maybe_sample(self, now: float) -> None:
        """Record a time-series sample when one is due (hot-hook driver)."""
        sampler = self.timeseries
        if sampler is None or not sampler.due(now):
            return
        queue_depth = self._queue_depth
        pending = (
            self._db.unique_manager.pending_count() if self._db is not None else 0
        )
        watermark = self.staleness.watermark(now)
        outstanding = self.staleness.outstanding()
        backpressure = sampler.backpressure(queue_depth, watermark)
        sampler.record(
            now,
            {
                "queue_depth": queue_depth,
                "pending_unique": pending,
                "outstanding": outstanding,
                "staleness_watermark_s": watermark,
                "tasks_done": self._tasks_done,
                "txn_commits": self._txn_commits,
                "backpressure": backpressure,
            },
        )
        # Mirror the sample onto Chrome counter tracks so Perfetto plots it.
        events = self.events
        events.add(PENDING, now, NO_DUR, pending, outstanding)
        events.add(STALENESS, now, NO_DUR, watermark)
        events.add(BACKPRESSURE, now, NO_DUR, backpressure)

    def backpressure(self, now: Optional[float] = None) -> float:
        """The live admission signal in [0, 1] (see
        :meth:`~repro.obs.timeseries.TimeSeriesSampler.backpressure`).
        Returns 0.0 when sampling is disabled.

        With a database attached, queue depth is read live from the task
        manager: the depth kept for samples only refreshes at enqueue
        events, so between tasks it would report the depth as of the last
        enqueue — an admission controller polling a drained queue must
        see 0, not the stale high-water value."""
        sampler = self.timeseries
        if sampler is None:
            return 0.0
        if now is None:
            now = self._db.clock.now() if self._db is not None else 0.0
        if self._db is not None:
            manager = self._db.task_manager
            depth = len(manager.delay) + len(manager.ready) + len(manager.held)
        else:
            depth = self._queue_depth
        return sampler.backpressure(depth, self.staleness.watermark(now))

    # ------------------------------------------------------------ results

    def rollup(self) -> Rollup:
        """Every counter, the queue-depth gauge and every histogram, read
        from the event log, with the network response counts, which log none."""
        rollup = Rollup(self.events)
        for status, n in self._net_responses.items():
            rollup.counters[f"net_responses[{status}]"] = n
        return rollup

    def attribution(self) -> Attribution:
        """The per-rule cost profile, read from the event log."""
        return Attribution(self.events)

    @property
    def cpu_by_op(self) -> dict[str, float]:
        """Per-charge-kind CPU seconds of all finished tasks."""
        seconds = self._cost_seconds or {}
        return {op: n * seconds.get(op, 0.0) for op, n in self._op_counts.items()}

    def cpu_rows(self) -> list[dict[str, Any]]:
        """Per-charge-kind CPU of all finished tasks, largest first."""
        cpu_by_op = self.cpu_by_op
        total = sum(cpu_by_op.values()) or 1.0
        return [
            {"op": op, "cpu_s": sec, "fraction": sec / total}
            for op, sec in sorted(cpu_by_op.items(), key=lambda kv: -kv[1])
        ]
