"""Counters, the queue-depth gauge and log-scale histograms, read from a
trace collector's event log.

Histograms use **fixed log-scale buckets** (geometric bucket bounds chosen
at construction) so that recording stays O(log buckets) with bounded
memory — the same shape DBToaster/Bleach-style engines use for their
operator stats.

Nothing here is kept up to date as the engine runs.  A :class:`Rollup`
walks the event log once, in order, when a report asks for it: each
counter counts one event kind (or reads one argument), the gauge and the
histograms record event values in log order, so their float sums are the
ones a live registry would have summed.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import TYPE_CHECKING, Any, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import EventLog


def log_bounds(lo: float, hi: float, factor: float) -> tuple[float, ...]:
    """Geometric bucket bounds ``lo, lo*factor, ...`` up to and including
    the first bound >= ``hi``."""
    if lo <= 0 or hi < lo or factor <= 1.0:
        raise ValueError("need 0 < lo <= hi and factor > 1")
    bounds = []
    bound = lo
    while True:
        bounds.append(bound)
        if bound >= hi:
            break
        bound *= factor
    return tuple(bounds)


class Histogram:
    """Fixed log-scale-bucket histogram.

    Bucket ``i`` counts values ``bounds[i-1] < v <= bounds[i]``; one
    overflow bucket catches everything above the last bound.  Values at or
    below zero land in the first bucket.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(
        self,
        name: str,
        lo: float = 1e-6,
        hi: float = 1e4,
        factor: float = 10.0,
        bounds: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.bounds = tuple(bounds) if bounds is not None else log_bounds(lo, hi, factor)
        self.counts = [0] * (len(self.bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def record(self, value: float, n: int = 1) -> None:
        self.counts[bisect_left(self.bounds, value)] += n
        self.count += n
        self.total += value * n
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Upper bucket bound below which at least ``p`` (0..1) of the
        recorded values fall (the usual histogram-quantile estimate)."""
        if not 0.0 <= p <= 1.0:
            raise ValueError("percentile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = p * self.count
        seen = 0
        for i, bucket in enumerate(self.counts):
            seen += bucket
            if seen >= target:
                return self.bounds[i] if i < len(self.bounds) else self.max
        return self.max

    def bucket_rows(self) -> list[dict[str, Any]]:
        """Non-empty buckets as ``{"le": bound, "count": n}`` rows."""
        rows = []
        for i, bucket in enumerate(self.counts):
            if not bucket:
                continue
            le: Any = self.bounds[i] if i < len(self.bounds) else "+inf"
            rows.append({"le": le, "count": bucket})
        return rows

    def snapshot(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "buckets": self.bucket_rows(),
        }

    def quantile_row(self) -> dict[str, Any]:
        """The headline quantiles as one flat report row."""
        return {
            "n": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "max": self.max if self.count else 0.0,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.4g})"


#: Event kind -> the counter that counts its events.
_COUNTED = {
    "txn.begin": "txn_begin",
    "txn.commit": "txn_commit",
    "txn.abort": "txn_abort",
    "view.register": "views_registered",
    "rule.check": "rule_checks",
    "rule.fire": "rule_firings",
    "unique.new": "unique_new_tasks",
    "unique.append": "unique_appends",
    "unique.compact": "unique_compactions",
    "unique.rescind": "unique_rescinds",
    "task.enqueue": "task_enqueues",
    "task.release": "task_releases",
    "task": "task_done",
    "task.abort": "task_aborts",
    "task.drop": "task_drops",
    "task.supersede": "task_supersedes",
    "fault.inject": "faults_injected",
    "fault.retry": "fault_retries",
    "fault.drop": "fault_drops",
    "persist.flush": "wal_records",
    "persist.checkpoint": "checkpoints",
    "counter.replication_lag": "replication_applies",
}

#: Every counter a rollup reports, zero or not.
_COUNTERS = (
    *_COUNTED.values(), "task_starts", "cascade_tasks", "context_switches",
    "net_sessions", "net_refused_connections", "net_admit", "net_throttle", "net_shed",
)

#: The histograms every rollup has: name, lo, hi, factor.
_HISTOGRAMS = (
    ("queue_depth", 1, 1 << 20, 2),
    ("batch_size_rows", 1, 1 << 20, 2),
    ("batch_firings", 1, 1 << 20, 2),
    ("compaction_ratio", 1, 1 << 20, 2),
    ("task_length_s", 1e-6, 1e4, 10.0),
    ("txn_length_s", 1e-6, 1e4, 10.0),
    ("wal_flush_bytes", 1, 1 << 30, 2),
)


class Rollup:
    """Every counter, the ``queue_depth`` gauge and every histogram of one
    event log, read in one pass.

    ``pending_firings`` is what the pass has left over: task id -> rule
    firings batched into a task that has neither started, been dropped
    nor been superseded (its ``batch_firings`` sample is still owed)."""

    __slots__ = ("counters", "gauges", "histograms", "pending_firings")

    def __init__(self, log: "EventLog") -> None:
        counters = self.counters = dict.fromkeys(_COUNTERS, 0)
        histograms = self.histograms = {
            name: Histogram(name, lo=lo, hi=hi, factor=factor)
            for name, lo, hi, factor in _HISTOGRAMS
        }
        queue, rows, batches, compaction, task_len, txn_len, wal = histograms.values()
        firings: dict[int, int] = {}
        self.pending_firings = firings
        depth: Any = 0.0
        for shape, _ts, dur, values in log.raw():
            kind = shape.kind
            counted = _COUNTED.get(kind)
            if counted is not None:
                counters[counted] += 1
            if kind == "counter.queues":
                depth = values[0] + values[1]
                queue.record(depth)
            elif kind == "unique.new":
                firings[values[1]] = 1
                if values[4] is not None:  # cascade_from
                    counters["cascade_tasks"] += 1
            elif kind == "unique.append":
                if values[1] in firings:
                    firings[values[1]] += 1
            elif kind == "unique.rescind":
                if values[2]:  # the rolled-back commit created the task
                    firings.pop(values[1], None)
                elif values[1] in firings:
                    firings[values[1]] -= 1
            elif kind == "unique.compact":
                # rows_in per distinct surviving row; a task whose batch
                # folded to nothing (pure churn) records the full input.
                compaction.record(values[2] / max(values[3], 1))
            elif kind == "task" or kind == "task.abort":
                # A task's first ending closes the batch it started with:
                # the serial engine appends nothing to a running task.
                counters["task_starts"] += 1
                batched = firings.pop(values[1], None)
                if batched is not None:
                    batches.record(batched)
                    rows.record(values[4] if kind == "task" else values[2])
                if kind == "task":
                    task_len.record(dur)
            elif kind == "task.drop" or kind == "task.supersede":
                firings.pop(values[1], None)
            elif kind == "task.preempt":
                counters["context_switches"] += values[2]
            elif kind == "txn.commit":
                txn_len.record(dur)
            elif kind == "persist.flush":
                wal.record(max(values[2], 1))
            elif kind == "counter.replication_lag":
                name = f"replication_lag_s[{shape.name}]"
                lag = histograms.get(name)
                if lag is None:
                    lag = histograms[name] = Histogram(name, lo=1e-4, hi=1e3, factor=2.0)
                lag.record(max(values[0], 0.0))
            elif kind == "net.session":
                if values[1] == "open":
                    counters["net_sessions"] += 1
                elif values[1] == "refused":
                    counters["net_refused_connections"] += 1
            elif kind == "net.admit":
                counters["net_" + values[1]] += 1
        # A gauge's extremes start at its first value, not at 0.0.
        low, high = (queue.min, queue.max) if queue.count else (0.0, 0.0)
        self.gauges = {"queue_depth": {"value": depth, "min": low, "max": high}}
