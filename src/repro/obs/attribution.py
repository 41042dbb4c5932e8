"""Per-rule cost attribution: where did the run's resources actually go?

The tracer's event log already carries every cost signal — task spans
(CPU, queueing), ``fault.retry``/``fault.drop``,
``unique.compact``, ``persist.flush`` — but each speaks about a *task* or a
*transaction*.  :class:`Attribution` reads the log once and joins them back
to the **owning rule** (``Task.rule_name``, stamped by the unique manager at
dispatch and kept as a hidden value of ``unique.new``; application tasks
fall back to their class, so the update stream shows up as its own row)
into a rule-level profile:

* tasks executed and rule firings absorbed (the batching denominator),
* CPU seconds, queue-wait seconds, bound rows, preemptions,
* retries / drops / aborts from the fault subsystem,
* compaction savings (rows in vs rows out of the delta fold),
* WAL records and bytes, attributed to the task running when the flush
  happened (a hidden value of ``persist.flush``; flushes outside any task
  land on ``"(engine)"``).

Beyond the raw sums, a least-squares fit of task CPU against bound rows
yields each rule's per-task overhead and per-row cost (``task_overhead_s``
/ ``row_cost_s`` in :meth:`Attribution.profile_rows`) — the two measured
parameters the batching advisor of the paper's section 8
(:class:`repro.views.advisor.BatchingAdvisor`) is built from.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import EventLog

#: Attribution key for WAL flushes that happen outside any running task
#: (e.g. population commits before the simulator starts).
ENGINE_KEY = "(engine)"

#: The kinds of event, other than ``unique.new``, that speak of one task.
_TASK_KINDS = frozenset({
    "task", "unique.append", "unique.rescind", "unique.compact", "task.abort",
    "fault.retry", "task.drop", "task.supersede", "fault.drop",
})


class RuleStats:
    """Accumulated costs for one rule (or task-class fallback)."""

    #: The accumulated figures, in snapshot column order.
    COLUMNS = (
        "tasks", "firings", "cpu_s", "queue_wait_s", "bound_rows", "context_switches",
        "retries", "drops", "aborts", "compact_rows_in", "compact_rows_out",
        "wal_records", "wal_bytes",
    )
    # The last five: least-squares accumulators for cpu ~ overhead + rows * row_cost.
    __slots__ = ("key", *COLUMNS, "_n", "_sx", "_sxx", "_sy", "_sxy")

    def __init__(self, key: str) -> None:
        self.key = key
        self.tasks = self.firings = self.bound_rows = self.context_switches = 0
        self.retries = self.drops = self.aborts = self.wal_records = self.wal_bytes = 0
        self.compact_rows_in = self.compact_rows_out = 0
        self.cpu_s = self.queue_wait_s = 0.0
        self._n, self._sx, self._sxx, self._sy, self._sxy = 0, 0.0, 0.0, 0.0, 0.0

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


class Attribution:
    """Per-rule cost profiles, read from an event log in one pass.

    A rule's entry is made at the first event that touches it, so rules
    that tie on CPU keep that order in the reports."""

    def __init__(self, log: "EventLog") -> None:
        self._stats: dict[str, RuleStats] = {}
        entry = self._entry
        rule_of: dict[int, str] = {}  # task id -> its key, from unique.new
        for shape, _ts, _dur, values in log.raw():
            kind = shape.kind
            if kind == "unique.new":
                rule_of[values[1]] = values[5]
                entry(values[5]).firings += 1
            elif kind == "persist.flush":
                stats = entry(values[3])
                stats.wal_records += 1
                stats.wal_bytes += values[2]
            elif kind in _TASK_KINDS:
                # Each stores a task's name, then its id.  The key is the
                # one its unique.new kept, else that name (an application
                # task's class).
                stats = entry(rule_of.get(values[1], values[0]))
                if kind == "task":
                    rows, cpu = values[4], values[2]
                    stats.tasks += 1
                    stats.cpu_s += cpu
                    stats.queue_wait_s += values[3]
                    stats.bound_rows += rows
                    stats.context_switches += values[5]
                    stats.observe_task(rows, cpu)
                elif kind == "unique.append":
                    stats.firings += 1
                elif kind == "unique.rescind":
                    stats.firings -= 1
                elif kind == "unique.compact":
                    stats.compact_rows_in += values[2]
                    stats.compact_rows_out += values[3]
                elif kind == "task.abort":
                    stats.aborts += 1
                elif kind == "fault.retry":
                    stats.retries += 1
                else:
                    stats.drops += 1

    def _entry(self, key: str) -> RuleStats:
        entry = self._stats.get(key)
        if entry is None:
            entry = self._stats[key] = RuleStats(key)
        return entry

    # ------------------------------------------------------------ reports

    def stats(self, key: str) -> Optional[RuleStats]:
        return self._stats.get(key)

    def profile_rows(self) -> list[dict[str, Any]]:
        """One report row per rule, largest CPU first: the headline
        columns of :meth:`snapshot`."""
        return [
            {
                "rule": row["rule"], "tasks": row["tasks"], "firings": row["firings"],
                "cpu_s": row["cpu_s"], "queue_s": row["queue_wait_s"],
                "rows": row["bound_rows"], "retries": row["retries"], "drops": row["drops"],
                "compact_saved": max(row["compact_rows_in"] - row["compact_rows_out"], 0),
                "wal_bytes": row["wal_bytes"], "task_cost_s": row["task_overhead_s"],
                "row_cost_s": row["row_cost_s"],
            }
            for row in self.snapshot()
        ]

    def snapshot(self) -> list[dict[str, Any]]:
        """The full profile as plain JSON-serialisable rows, largest CPU first."""
        rows = []
        for entry in sorted(self._stats.values(), key=lambda e: -e.cpu_s):
            overhead, row_cost = entry.cost_fit()
            row = {"rule": entry.key}
            row.update((name, getattr(entry, name)) for name in RuleStats.COLUMNS)
            row.update(task_overhead_s=overhead, row_cost_s=row_cost)
            rows.append(row)
        return rows
