"""Per-rule cost attribution: where did the run's resources actually go?

The tracer's event stream already carries every cost signal — task spans
(CPU, queueing), ``fault.retry``/``fault.drop``,
``unique.compact``, ``persist.flush`` — but each speaks about a *task* or a
*transaction*.  This profiler joins them back to the **owning rule**
(``Task.rule_name``, stamped by the unique manager at dispatch;
application tasks fall back to their class, so the update stream shows up
as its own row) and accumulates a rule-level profile:

* tasks executed and rule firings absorbed (the batching denominator),
* CPU seconds, queue-wait seconds, bound rows, preemptions,
* retries / drops / aborts from the fault subsystem,
* compaction savings (rows in vs rows out of the delta fold),
* WAL records and bytes, attributed to the task running when the flush
  happened (flushes outside any task land on ``"(engine)"``).

Beyond the raw sums, a least-squares fit of task CPU against bound rows
yields each rule's per-task overhead and per-row cost (``task_overhead_s``
/ ``row_cost_s`` in :meth:`AttributionProfiler.rows`) — the two measured
parameters the batching advisor of the paper's section 8
(:class:`repro.views.advisor.BatchingAdvisor`) is built from.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.metrics import TaskRecord
    from repro.txn.tasks import Task

#: Attribution key for WAL flushes that happen outside any running task
#: (e.g. population commits before the simulator starts).
ENGINE_KEY = "(engine)"


class RuleStats:
    """Accumulated costs for one rule (or task-class fallback)."""

    __slots__ = (
        "key",
        "tasks",
        "firings",
        "cpu_s",
        "queue_wait_s",
        "bound_rows",
        "context_switches",
        "retries",
        "drops",
        "aborts",
        "compact_rows_in",
        "compact_rows_out",
        "wal_records",
        "wal_bytes",
        # Least-squares accumulators for cpu ~ overhead + rows * row_cost.
        "_n",
        "_sx",
        "_sxx",
        "_sy",
        "_sxy",
    )

    def __init__(self, key: str) -> None:
        self.key = key
        self.tasks = 0
        self.firings = 0
        self.cpu_s = 0.0
        self.queue_wait_s = 0.0
        self.bound_rows = 0
        self.context_switches = 0
        self.retries = 0
        self.drops = 0
        self.aborts = 0
        self.compact_rows_in = 0
        self.compact_rows_out = 0
        self.wal_records = 0
        self.wal_bytes = 0
        self._n = 0
        self._sx = 0.0
        self._sxx = 0.0
        self._sy = 0.0
        self._sxy = 0.0

    def observe_task(self, rows: int, cpu: float) -> None:
        self._n += 1
        self._sx += rows
        self._sxx += rows * rows
        self._sy += cpu
        self._sxy += rows * cpu

    def cost_fit(self) -> tuple[float, float]:
        """(task_overhead_s, row_cost_s) from the least-squares fit.

        With fewer than two distinct batch sizes the slope is unidentified;
        the mean task CPU is reported as pure overhead instead."""
        if self._n == 0:
            return (0.0, 0.0)
        denom = self._n * self._sxx - self._sx * self._sx
        if self._n < 2 or abs(denom) < 1e-12:
            return (self._sy / self._n, 0.0)
        slope = (self._n * self._sxy - self._sx * self._sy) / denom
        intercept = (self._sy - slope * self._sx) / self._n
        return (max(intercept, 0.0), max(slope, 0.0))


class AttributionProfiler:
    """Joins trace events into per-rule cost profiles."""

    def __init__(self) -> None:
        self._stats: dict[str, RuleStats] = {}
        #: Key of the currently executing task (the engine is serial), so
        #: taskless signals like WAL flushes can be attributed.
        self._current: Optional[str] = None

    @staticmethod
    def key_of(task: "Task") -> str:
        return task.rule_name or task.klass

    def _entry(self, key: str) -> RuleStats:
        entry = self._stats.get(key)
        if entry is None:
            entry = self._stats[key] = RuleStats(key)
        return entry

    # ------------------------------------------------------------- hooks

    def on_unique_new(self, task: "Task", now: float) -> None:
        self._entry(self.key_of(task)).firings += 1

    def on_unique_append(self, task: "Task", rows: int, now: float) -> None:
        self._entry(self.key_of(task)).firings += 1

    def on_unique_rescind(self, task: "Task") -> None:
        self._entry(self.key_of(task)).firings -= 1

    def on_unique_compact(
        self, task: "Task", rows_in: int, rows_out: int, now: float
    ) -> None:
        entry = self._entry(self.key_of(task))
        entry.compact_rows_in += rows_in
        entry.compact_rows_out += rows_out

    def on_task_start(self, task: "Task", now: float) -> None:
        self._current = self.key_of(task)

    def on_task_done(self, task: "Task", record: "TaskRecord") -> None:
        self._current = None
        entry = self._entry(self.key_of(task))
        entry.tasks += 1
        entry.cpu_s += record.cpu_time
        entry.queue_wait_s += record.queueing
        entry.bound_rows += record.bound_rows
        entry.context_switches += record.context_switches
        entry.observe_task(record.bound_rows, record.cpu_time)

    def on_task_abort(self, task: "Task", now: float) -> None:
        self._current = None
        self._entry(self.key_of(task)).aborts += 1

    def on_task_drop(self, task: "Task", now: float) -> None:
        self._entry(self.key_of(task)).drops += 1

    def on_fault_retry(self, task: "Task", now: float) -> None:
        self._entry(self.key_of(task)).retries += 1

    def on_persist_flush(self, kind: str, nbytes: int) -> None:
        entry = self._entry(self._current or ENGINE_KEY)
        entry.wal_records += 1
        entry.wal_bytes += nbytes

    # ------------------------------------------------------------ reports

    def stats(self, key: str) -> Optional[RuleStats]:
        return self._stats.get(key)

    def profile_rows(self) -> list[dict[str, Any]]:
        """One report row per rule, largest CPU first."""
        rows = []
        for entry in sorted(self._stats.values(), key=lambda e: -e.cpu_s):
            overhead, row_cost = entry.cost_fit()
            rows.append(
                {
                    "rule": entry.key,
                    "tasks": entry.tasks,
                    "firings": entry.firings,
                    "cpu_s": entry.cpu_s,
                    "queue_s": entry.queue_wait_s,
                    "rows": entry.bound_rows,
                    "retries": entry.retries,
                    "drops": entry.drops,
                    "compact_saved": max(
                        entry.compact_rows_in - entry.compact_rows_out, 0
                    ),
                    "wal_bytes": entry.wal_bytes,
                    "task_cost_s": overhead,
                    "row_cost_s": row_cost,
                }
            )
        return rows

    def snapshot(self) -> list[dict[str, Any]]:
        """The full profile as plain JSON-serialisable rows."""
        rows = []
        for entry in sorted(self._stats.values(), key=lambda e: -e.cpu_s):
            overhead, row_cost = entry.cost_fit()
            rows.append(
                {
                    "rule": entry.key,
                    "tasks": entry.tasks,
                    "firings": entry.firings,
                    "cpu_s": entry.cpu_s,
                    "queue_wait_s": entry.queue_wait_s,
                    "bound_rows": entry.bound_rows,
                    "context_switches": entry.context_switches,
                    "retries": entry.retries,
                    "drops": entry.drops,
                    "aborts": entry.aborts,
                    "compact_rows_in": entry.compact_rows_in,
                    "compact_rows_out": entry.compact_rows_out,
                    "wal_records": entry.wal_records,
                    "wal_bytes": entry.wal_bytes,
                    "task_overhead_s": overhead,
                    "row_cost_s": row_cost,
                }
            )
        return rows
