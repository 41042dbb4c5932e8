"""Experiment metrics.

The paper reports three quantities per experiment (section 5):

* **CPU utilization** — fraction of the trace duration the processor spent
  on a class of work (Figures 9 and 12);
* **N_r** — the number of recomputation transactions run (Figures 10, 13);
* **recompute transaction length** — "average system time spent per
  recomputation transaction minus queueing time" (Figures 11, 14), i.e. the
  execution time, which in our single-server model is the charged CPU plus
  any lock-wait time.

:class:`MetricsCollector` records one :class:`TaskRecord` per completed task
and aggregates per task *class* (``"update"``, ``"recompute:<function>"``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


@dataclass(slots=True)
class TaskRecord:
    """Timing of one completed task, all times in seconds."""

    task_id: int
    klass: str
    release_time: float
    start_time: float
    end_time: float
    cpu_time: float
    lock_wait: float = 0.0
    bound_rows: int = 0
    context_switches: int = 0
    deadline: Optional[float] = None
    dropped: bool = False  # firm-deadline policy discarded the task unrun

    @property
    def queueing(self) -> float:
        return self.start_time - self.release_time

    @property
    def length(self) -> float:
        """System time minus queueing (the Figure 11/14 metric)."""
        return self.end_time - self.start_time


@dataclass
class ClassSummary:
    """Aggregate statistics for one task class."""

    klass: str
    count: int = 0
    total_cpu: float = 0.0
    total_length: float = 0.0
    total_response: float = 0.0
    total_queueing: float = 0.0
    total_bound_rows: int = 0
    total_context_switches: int = 0
    max_length: float = 0.0
    deadline_misses: int = 0
    dropped: int = 0
    _sq_length: float = 0.0

    def add(self, record: TaskRecord) -> None:
        """Fold one record in; a dropped task, or one that ended past its
        deadline, is a deadline miss."""
        release, start, end = record.release_time, record.start_time, record.end_time
        length = end - start
        self.count += 1
        if record.deadline is not None and (record.dropped or end > record.deadline):
            self.deadline_misses += 1
        if record.dropped:
            self.dropped += 1
        self.total_cpu += record.cpu_time
        self.total_length += length
        self.total_response += end - release
        self.total_queueing += start - release
        self.total_bound_rows += record.bound_rows
        self.total_context_switches += record.context_switches
        if length > self.max_length:
            self.max_length = length
        self._sq_length += length * length

    @property
    def mean_length(self) -> float:
        return self.total_length / self.count if self.count else 0.0

    @property
    def mean_response(self) -> float:
        return self.total_response / self.count if self.count else 0.0

    @property
    def stdev_length(self) -> float:
        if self.count < 2:
            return 0.0
        mean = self.mean_length
        variance = max(self._sq_length / self.count - mean * mean, 0.0)
        return math.sqrt(variance)


class MetricsCollector:
    """Accumulates task records and answers the paper's questions."""

    def __init__(self) -> None:
        self.records: list[TaskRecord] = []
        self.by_class: dict[str, ClassSummary] = {}
        self._keep_records = True

    def set_keep_records(self, keep: bool) -> None:
        """Disable per-record retention for very large runs (aggregates stay)."""
        self._keep_records = keep

    def record(self, record: TaskRecord) -> None:
        if self._keep_records:
            self.records.append(record)
        summary = self.by_class.get(record.klass)
        if summary is None:
            summary = self.by_class[record.klass] = ClassSummary(record.klass)
        summary.add(record)

    # ----------------------------------------------------- paper quantities

    def classes(self, prefix: str = "") -> list[str]:
        return sorted(klass for klass in self.by_class if klass.startswith(prefix))

    def count(self, prefix: str) -> int:
        """N_r: number of completed tasks whose class starts with ``prefix``."""
        return sum(s.count for k, s in self.by_class.items() if k.startswith(prefix))

    def total_cpu(self, prefix: str = "") -> float:
        return sum(s.total_cpu for k, s in self.by_class.items() if k.startswith(prefix))

    def cpu_fraction(self, duration: float, prefix: str = "") -> float:
        """Fraction of ``duration`` spent on tasks in classes with ``prefix``."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        return self.total_cpu(prefix) / duration

    def mean_length(self, prefix: str) -> float:
        """Mean task length (system time minus queueing) over a class prefix."""
        total = 0.0
        count = 0
        for klass, summary in self.by_class.items():
            if klass.startswith(prefix):
                total += summary.total_length
                count += summary.count
        return total / count if count else 0.0

    def deadline_misses(self, prefix: str = "") -> int:
        return sum(
            s.deadline_misses for k, s in self.by_class.items() if k.startswith(prefix)
        )

    def mean_response(self, prefix: str) -> float:
        total = 0.0
        count = 0
        for klass, summary in self.by_class.items():
            if klass.startswith(prefix):
                total += summary.total_response
                count += summary.count
        return total / count if count else 0.0

    def summary_table(self) -> list[dict[str, object]]:
        """One row per class — used by benchmark reports."""
        rows = []
        for klass in self.classes():
            summary = self.by_class[klass]
            rows.append(
                {
                    "class": klass,
                    "count": summary.count,
                    "total_cpu_s": summary.total_cpu,
                    "mean_length_ms": summary.mean_length * 1e3,
                    "mean_response_ms": summary.mean_response * 1e3,
                    "bound_rows": summary.total_bound_rows,
                    "context_switches": summary.total_context_switches,
                }
            )
        return rows
