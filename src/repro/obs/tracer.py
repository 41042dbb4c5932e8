"""Span/event tracing for the rule engine and simulator.

The engine carries a single hook point, ``db.tracer``, sitting next to
``db.charge``: instrumentation sites test ``tracer.enabled`` (one attribute
load and a branch — the :class:`NullTracer` default keeps tracing strictly
pay-for-what-you-use) and, when tracing is on, call a named hook.  The
recording implementation, :class:`TraceCollector`, appends virtual-clock-
stamped :class:`TraceEvent` records and feeds the metrics registry
(queue-depth, batch-size, and task/transaction-length histograms, plus the
per-charge-kind CPU breakdown derived from each finished task's meter).

Event taxonomy (``TraceEvent.kind``):

========================  ====================================================
``txn.begin/commit/abort``  transaction lifecycle (commit/abort carry the
                            transaction's duration as a span)
``rule.check``              a rule's events matched; its condition ran
``rule.fire``               a condition held; bound tables were dispatched
``unique.new``              dispatch created a fresh pending task
``unique.append``           dispatch coalesced a firing onto a pending task
``unique.compact``          a compacted task was sealed; carries the rows
                            that entered the fold vs the rows that survived
``unique.rescind``          the dispatching commit failed: one ``unique.new``
                            or ``unique.append`` of it was taken back
``task.enqueue``            a task entered the delay or ready queue
``task.release``            the delay queue released a task at its time
``task``                    one task execution (a span: start .. end)
``task.preempt``            quantum preemption charged to a long task
``task.abort``              a task body raised; the task was aborted
``task.drop``               firm-deadline policy discarded a late task
``task.supersede``          a deletion made a pending task moot; aborted
``lock.wait``               a lock request could not be granted immediately
``counter.queues``          delay/ready queue depths (a Chrome counter track)
``fault.inject``            the fault injector fired at one of its points
``fault.retry``             recovery re-enqueued a faulted task with backoff
``fault.drop``              recovery exhausted a task's retries; rows dropped
``persist.flush``           one WAL record was appended and flushed; carries
                            its kind, LSN, and flushed bytes
``persist.checkpoint``      a fuzzy checkpoint was written and the WAL
                            truncated; carries snapshot size, table count,
                            and the pending tasks captured
``view.register``           a maintained view was registered for staleness
                            labelling; carries its function and rule names
``counter.pending``         pending unique tasks and outstanding (stamped,
                            unreflected) mutations (a Chrome counter track)
``counter.staleness``       the staleness watermark in virtual seconds
``counter.backpressure``    the admission signal in [0, 1]
``counter.replication_lag`` a standby's apply lag in virtual seconds — how
                            far a commit's arrival at the replica trailed
                            its commit time on the primary (one Chrome
                            counter track per replica, beside staleness)
``net.session``             a client session opened, closed, or was refused
                            at the ``net.accept`` fault seam
``net.admit``               one admission decision for a client write:
                            admit, throttle (retry later), or shed (reject)
``counter.admission``       the admission controller's view — backpressure
                            reading plus cumulative throttled/shed counts
                            (a Chrome counter track)
========================  ====================================================

The collector composes the second observability layer from three parts it
owns and feeds: a :class:`~repro.obs.staleness.StalenessTracker` (mutation
-> reflection lag per view/rule), an
:class:`~repro.obs.attribution.AttributionProfiler` (per-rule cost
roll-up), and a :class:`~repro.obs.timeseries.TimeSeriesSampler`
(virtual-clock gauge snapshots plus the ``backpressure()`` signal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.obs.attribution import AttributionProfiler
from repro.obs.metrics import MetricsRegistry
from repro.obs.staleness import StalenessTracker
from repro.obs.timeseries import TimeSeriesSampler

if TYPE_CHECKING:  # pragma: no cover
    from repro.database import Database
    from repro.sim.metrics import TaskRecord
    from repro.txn.tasks import Task
    from repro.txn.transaction import Transaction


@dataclass
class TraceEvent:
    """One trace record; ``ts``/``dur`` are virtual seconds."""

    ts: float
    kind: str
    name: str
    track: str = "engine"
    dur: Optional[float] = None
    args: dict[str, Any] = field(default_factory=dict)


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
    def lock_wait(self, txn: "Transaction", resource: tuple, now: float) -> None: ...

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
    def net_response(
        self, session: str, status: str, latency: Optional[float], now: float
    ) -> None: ...


class NullTracer(Tracer):
    """The zero-overhead default: ``db.tracer`` when nobody is watching."""


class TraceCollector(Tracer):
    """Records events in memory and aggregates them into a registry."""

    enabled = True

    def __init__(
        self,
        sample_interval: float = 1.0,
        timeseries: Optional[TimeSeriesSampler] = None,
    ) -> None:
        """``sample_interval`` sets the time-series cadence in virtual
        seconds; pass 0 (or a negative value) to disable sampling."""
        self.events: list[TraceEvent] = []
        self.metrics = MetricsRegistry()
        self.staleness = StalenessTracker()
        self.attribution = AttributionProfiler()
        if timeseries is not None:
            self.timeseries: Optional[TimeSeriesSampler] = timeseries
        elif sample_interval > 0:
            self.timeseries = TimeSeriesSampler(sample_interval)
        else:
            self.timeseries = None
        self.cpu_by_op: dict[str, float] = {}
        self._cost_seconds: Optional[dict[str, float]] = None
        self._db: Optional["Database"] = None
        # task_id -> number of rule firings coalesced into the pending task
        self._batch_firings: dict[int, int] = {}
        # Pre-create the headline histograms so reports and snapshots have
        # stable names even when a run never touches one of them.
        metrics_ = self.metrics
        self._h_queue = metrics_.histogram("queue_depth", lo=1, hi=1 << 20, factor=2)
        self._h_batch_rows = metrics_.histogram(
            "batch_size_rows", lo=1, hi=1 << 20, factor=2
        )
        self._h_batch_firings = metrics_.histogram(
            "batch_firings", lo=1, hi=1 << 20, factor=2
        )
        self._h_compaction = metrics_.histogram(
            "compaction_ratio", lo=1, hi=1 << 20, factor=2
        )
        self._h_task_len = metrics_.histogram("task_length_s", lo=1e-6, hi=1e4)
        self._h_txn_len = metrics_.histogram("txn_length_s", lo=1e-6, hi=1e4)
        self._h_wal_flush = metrics_.histogram(
            "wal_flush_bytes", lo=1, hi=1 << 30, factor=2
        )

    def bind(self, db: "Database") -> None:
        self._cost_seconds = dict(db.cost_model._seconds)
        self._db = db

    # ----------------------------------------------------------- plumbing

    def _emit(
        self,
        ts: float,
        kind: str,
        name: str,
        track: str = "engine",
        dur: Optional[float] = None,
        **args: Any,
    ) -> None:
        self.events.append(TraceEvent(ts, kind, name, track, dur, args))

    def count(self, kind: str) -> int:
        """Number of recorded events of one kind (test/report convenience)."""
        return sum(1 for event in self.events if event.kind == kind)

    # ------------------------------------------------------- transactions

    def txn_begin(self, txn: "Transaction", now: float) -> None:
        self.metrics.counter("txn_begin").inc()
        self._emit(now, "txn.begin", f"txn#{txn.txn_id}", track="txn")

    def txn_commit(self, txn: "Transaction", now: float) -> None:
        self.metrics.counter("txn_commit").inc()
        dur = max(now - txn.begin_time, 0.0)
        self._h_txn_len.record(dur)
        self._emit(
            txn.begin_time, "txn.commit", f"txn#{txn.txn_id}", track="txn",
            dur=dur, ops=len(txn.log),
        )
        self._maybe_sample(now)

    def txn_abort(self, txn: "Transaction", now: float) -> None:
        self.metrics.counter("txn_abort").inc()
        dur = max(now - txn.begin_time, 0.0)
        self._emit(
            txn.begin_time, "txn.abort", f"txn#{txn.txn_id}", track="txn", dur=dur
        )

    def lock_wait(self, txn: "Transaction", resource: tuple, now: float) -> None:
        self.metrics.counter("lock_waits").inc()
        self.attribution.on_lock_wait(txn, now)
        self._emit(
            now, "lock.wait", f"txn#{txn.txn_id}", track="locks",
            resource=repr(resource),
        )

    # -------------------------------------------------------------- views

    def view_registered(
        self, view_name: str, function_name: str, rule_names: tuple, now: float
    ) -> None:
        self.metrics.counter("views_registered").inc()
        self.staleness.register_view(view_name, function_name, rule_names)
        self._emit(
            now, "view.register", view_name, track="views",
            function=function_name, rules=list(rule_names),
        )

    # -------------------------------------------------------------- rules

    def rule_check(self, rule_name: str, txn_id: int, now: float) -> None:
        self.metrics.counter("rule_checks").inc()
        self._emit(now, "rule.check", rule_name, track="rules", txn=txn_id)

    def rule_fire(
        self, rule_name: str, txn_id: int, new_tasks: int, now: float
    ) -> None:
        self.metrics.counter("rule_firings").inc()
        self._emit(
            now, "rule.fire", rule_name, track="rules", txn=txn_id,
            new_tasks=new_tasks,
        )

    # ----------------------------------------------------- unique manager

    def unique_new(
        self, task: "Task", now: float, origin: Optional["Task"] = None
    ) -> None:
        self.metrics.counter("unique_new_tasks").inc()
        if origin is not None:
            self.metrics.counter("cascade_tasks").inc()
        self._batch_firings[task.task_id] = 1
        self.staleness.on_task_new(task, now, origin=origin)
        self.attribution.on_unique_new(task, now)
        self._emit(
            now, "unique.new", task.function_name or task.klass, track="unique",
            task_id=task.task_id, key=repr(task.unique_key),
            stratum=task.stratum, cascade_from=task.cascade_from,
        )

    def unique_append(
        self, task: "Task", rows: int, now: float, origin: Optional["Task"] = None
    ) -> None:
        self.metrics.counter("unique_appends").inc()
        if task.task_id in self._batch_firings:
            self._batch_firings[task.task_id] += 1
        self.staleness.on_task_append(task, now, origin=origin)
        self.attribution.on_unique_append(task, rows, now)
        self._emit(
            now, "unique.append", task.function_name or task.klass, track="unique",
            task_id=task.task_id, rows=rows, key=repr(task.unique_key),
        )

    def unique_compact(
        self, task: "Task", rows_in: int, rows_out: int, now: float
    ) -> None:
        self.metrics.counter("unique_compactions").inc()
        # rows_in per distinct surviving row; a task whose batch folded to
        # nothing (pure churn) records the full input count.
        self._h_compaction.record(rows_in / max(rows_out, 1))
        self.attribution.on_unique_compact(task, rows_in, rows_out, now)
        self._emit(
            now, "unique.compact", task.function_name or task.klass, track="unique",
            task_id=task.task_id, rows_in=rows_in, rows_out=rows_out,
            key=repr(task.unique_key),
        )

    def unique_rescind(
        self, task: "Task", created: bool, now: float, origin: Optional["Task"] = None
    ) -> None:
        """The commit whose firing opened ``task`` (``created``) or was
        coalesced onto it rolled back: withdraw the firing from the batch
        size, the staleness stamps and the rule's attribution."""
        self.metrics.counter("unique_rescinds").inc()
        if created:
            self._batch_firings.pop(task.task_id, None)
        elif task.task_id in self._batch_firings:
            self._batch_firings[task.task_id] -= 1
        self.staleness.on_task_rescind(task, created, origin)
        self.attribution.on_unique_rescind(task)
        self._emit(
            now, "unique.rescind", task.function_name or task.klass, track="unique",
            task_id=task.task_id, created=created, key=repr(task.unique_key),
        )

    # -------------------------------------------------------------- tasks

    def _queue_counter(self, now: float, delay_depth: int, ready_depth: int) -> None:
        self._h_queue.record(delay_depth + ready_depth)
        self.metrics.gauge("queue_depth").set(delay_depth + ready_depth)
        self._emit(
            now, "counter.queues", "queues", track="queues",
            delay=delay_depth, ready=ready_depth,
        )

    def task_enqueue(
        self, task: "Task", delay_depth: int, ready_depth: int, now: float
    ) -> None:
        self.metrics.counter("task_enqueues").inc()
        self._emit(
            now, "task.enqueue", task.klass, track="sched",
            task_id=task.task_id, release=task.release_time,
        )
        self._queue_counter(now, delay_depth, ready_depth)
        self._maybe_sample(now)

    def task_release(self, task: "Task", ready_depth: int, now: float) -> None:
        self.metrics.counter("task_releases").inc()
        self._emit(
            now, "task.release", task.klass, track="sched",
            task_id=task.task_id, ready=ready_depth,
        )

    def task_start(self, task: "Task", now: float) -> None:
        self.metrics.counter("task_starts").inc()
        self.attribution.on_task_start(task, now)
        firings = self._batch_firings.pop(task.task_id, None)
        if firings is not None:
            self._h_batch_firings.record(firings)
            self._h_batch_rows.record(task.bound_rows)

    def task_preempt(self, task: "Task", switches: int, now: float) -> None:
        self.metrics.counter("context_switches").inc(switches)
        self._emit(
            now, "task.preempt", task.klass, track="sched",
            task_id=task.task_id, switches=switches,
        )

    def task_done(self, task: "Task", record: "TaskRecord", server: int = 0) -> None:
        self.metrics.counter("task_done").inc()
        self._h_task_len.record(record.length)
        self.staleness.on_task_done(task, record.end_time)
        self.attribution.on_task_done(task, record)
        self._emit(
            record.start_time, "task", task.klass, track=f"server-{server}",
            dur=record.length, task_id=task.task_id, cpu=record.cpu_time,
            queueing=record.queueing, bound_rows=record.bound_rows,
            context_switches=record.context_switches,
        )
        if self._cost_seconds is not None:
            cpu_by_op = self.cpu_by_op
            seconds = self._cost_seconds
            for op, n in task.meter.ops.items():
                cpu_by_op[op] = cpu_by_op.get(op, 0.0) + n * seconds.get(op, 0.0)
        self._maybe_sample(record.end_time)

    def task_abort(self, task: "Task", now: float, server: int = 0) -> None:
        self.metrics.counter("task_aborts").inc()
        # Staleness stamps stay: a retried task still owes its mutations.
        self.attribution.on_task_abort(task, now)
        start = task.start_time if task.start_time is not None else now
        self._emit(
            start, "task.abort", task.klass, track=f"server-{server}",
            dur=max(now - start, 0.0), task_id=task.task_id,
        )

    def task_drop(self, task: "Task", now: float) -> None:
        self.metrics.counter("task_drops").inc()
        self.staleness.on_task_dropped(task, now)
        self.attribution.on_task_drop(task, now)
        self._emit(
            now, "task.drop", task.klass, track="sched",
            task_id=task.task_id, deadline=task.deadline,
        )

    def task_superseded(self, task: "Task", now: float) -> None:
        self.metrics.counter("task_supersedes").inc()
        self.staleness.on_task_superseded(task, now)
        self.attribution.on_task_drop(task, now)
        self._emit(
            now, "task.supersede", task.klass, track="sched",
            task_id=task.task_id,
        )

    # -------------------------------------------------------------- faults

    def fault_inject(self, point: str, action: str, label: str, now: float) -> None:
        self.metrics.counter("faults_injected").inc()
        self._emit(
            now, "fault.inject", point, track="faults",
            action=action, target=label,
        )

    def fault_retry(
        self, task: "Task", attempt: int, release: float, now: float
    ) -> None:
        self.metrics.counter("fault_retries").inc()
        self.attribution.on_fault_retry(task, now)
        self._emit(
            now, "fault.retry", task.klass, track="faults",
            task_id=task.task_id, attempt=attempt, release=release,
        )

    def fault_drop(self, task: "Task", attempts: int, now: float) -> None:
        self.metrics.counter("fault_drops").inc()
        self.staleness.on_task_dropped(task, now)
        self.attribution.on_task_drop(task, now)
        self._emit(
            now, "fault.drop", task.klass, track="faults",
            task_id=task.task_id, attempts=attempts,
        )

    # --------------------------------------------------------- persistence

    def persist_flush(self, kind: str, nbytes: int, lsn: int, now: float) -> None:
        self.metrics.counter("wal_records").inc()
        self._h_wal_flush.record(max(nbytes, 1))
        self.attribution.on_persist_flush(kind, nbytes)
        self._emit(
            now, "persist.flush", kind, track="persist",
            lsn=lsn, bytes=nbytes,
        )

    def persist_checkpoint(
        self, path: str, nbytes: int, tables: int, tasks: int, now: float
    ) -> None:
        self.metrics.counter("checkpoints").inc()
        self._emit(
            now, "persist.checkpoint", "checkpoint", track="persist",
            bytes=nbytes, tables=tables, pending_tasks=tasks,
        )

    # --------------------------------------------------------- replication

    def replication_lag(
        self, replica: str, lag: float, lsn: int, now: float
    ) -> None:
        """One commit record applied on a standby: ``lag`` virtual seconds
        after the primary committed it.  Keeps a per-replica histogram and
        mirrors the value onto a per-replica Chrome counter track so the
        lag plots right beside the staleness watermark."""
        self.metrics.counter("replication_applies").inc()
        self.metrics.histogram(
            f"replication_lag_s[{replica}]", lo=1e-4, hi=1e3, factor=2.0
        ).record(max(lag, 0.0))
        self._emit(
            now, "counter.replication_lag", replica,
            track=f"replication-{replica}", lag_s=lag, lsn=lsn,
        )

    # ------------------------------------------------------------- network

    def net_session(self, session: str, event: str, now: float) -> None:
        """A client session opened, closed, or was refused (``event`` is
        ``open`` / ``close`` / ``refused``)."""
        if event == "open":
            self.metrics.counter("net_sessions").inc()
        elif event == "refused":
            self.metrics.counter("net_refused_connections").inc()
        self._emit(now, "net.session", session, track="net", event=event)

    def net_admission(
        self, session: str, decision: str, pressure: float, now: float
    ) -> None:
        """One admission decision (``admit`` / ``throttle`` / ``shed``) for
        a client write, with the backpressure reading that drove it.  The
        counters mirror onto a ``counter.admission`` Chrome track so the
        shed/delay behaviour plots beside queue depth and staleness."""
        metrics = self.metrics
        metrics.counter(f"net_{decision}").inc()
        self._emit(
            now, "net.admit", session, track="net",
            decision=decision, pressure=pressure,
        )
        self._emit(
            now, "counter.admission", "admission", track="admission",
            pressure=pressure,
            throttled=metrics.counter("net_throttle").value,
            shed=metrics.counter("net_shed").value,
        )

    def net_response(
        self, session: str, status: str, latency: Optional[float], now: float
    ) -> None:
        """A response reached (or left for) a client; ``latency`` is the
        request's round trip in virtual seconds when the transport knows
        it (the simulated channels do; raw sockets pass None)."""
        self.metrics.counter(f"net_responses[{status}]").inc()
        if latency is not None:
            self.metrics.histogram(
                "net_latency_s", lo=1e-4, hi=1e3, factor=2.0
            ).record(max(latency, 1e-4))

    # --------------------------------------------------------- time series

    def _maybe_sample(self, now: float) -> None:
        """Record a time-series sample when one is due (hot-hook driver)."""
        sampler = self.timeseries
        if sampler is None or not sampler.due(now):
            return
        queue_depth = self.metrics.gauge("queue_depth").value
        pending = (
            self._db.unique_manager.pending_count() if self._db is not None else 0
        )
        watermark = self.staleness.watermark(now)
        sampler.record(
            now,
            {
                "queue_depth": queue_depth,
                "pending_unique": pending,
                "outstanding": self.staleness.outstanding(),
                "staleness_watermark_s": watermark,
                "tasks_done": self.metrics.counter("task_done").value,
                "txn_commits": self.metrics.counter("txn_commit").value,
                "backpressure": sampler.backpressure(queue_depth, watermark),
            },
        )
        # Mirror the sample onto Chrome counter tracks so Perfetto plots it.
        self._emit(
            now, "counter.pending", "pending", track="pending",
            pending_unique=pending, outstanding=self.staleness.outstanding(),
        )
        self._emit(
            now, "counter.staleness", "staleness", track="staleness",
            watermark_s=watermark,
        )
        self._emit(
            now, "counter.backpressure", "backpressure", track="backpressure",
            value=sampler.backpressure(queue_depth, watermark),
        )

    def backpressure(self, now: Optional[float] = None) -> float:
        """The live admission signal in [0, 1] (see
        :meth:`~repro.obs.timeseries.TimeSeriesSampler.backpressure`).
        Returns 0.0 when sampling is disabled.

        With a database attached, queue depth is read live from the task
        manager: the ``queue_depth`` gauge only refreshes at enqueue
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
            depth = self.metrics.gauge("queue_depth").value
        return sampler.backpressure(depth, self.staleness.watermark(now))

    # ------------------------------------------------------------ results

    def cpu_rows(self) -> list[dict[str, Any]]:
        """Per-charge-kind CPU of all finished tasks, largest first."""
        total = sum(self.cpu_by_op.values()) or 1.0
        return [
            {"op": op, "cpu_s": sec, "fraction": sec / total}
            for op, sec in sorted(self.cpu_by_op.items(), key=lambda kv: -kv[1])
        ]
