"""Freshness/staleness tracking for derived data.

STRIP's central trade-off is deferring rule execution — delayed ``unique``
tasks, batching, compaction — at the cost of derived-data *staleness*.
This module measures that cost directly: every base-table mutation that
fires a maintenance rule is **stamped** with its commit time when its rows
enter a pending task (``unique.new`` / ``unique.append``), and when the
task completes the lag ``reflection_time - stamp`` is recorded, in virtual
seconds, into per-view, per-rule and per-stratum log-bucket histograms.

The ledger reads the collector's event log, like
:class:`~repro.obs.metrics.Rollup`, but incrementally: it keeps its
position, and :meth:`StalenessTracker.read` folds in only the events added
since (``TraceCollector.staleness`` reads before it answers, so a
watermark poll costs the events logged since the last one).  The commit-
time stamp, the cascade origin of an append or a rescind and a task's end
time ride as hidden values on their events.

The stamp rides the pending task, so the measured lag is what a reader of
the derived table experiences: the ``after`` delay, plus queueing, plus
the recompute itself.  Mutations whose task is dropped (``task.drop``,
``fault.drop``) are counted as ``lost`` — their staleness is unbounded, so
they must not silently vanish from the percentiles.  A retry keeps the
stamps: it lengthens the lag, it does not reset it.

**Cascades inherit stamps.**  A rule firing that arrives via another
rule's action is the same base-table change propagating one stratum up.
The downstream task *inherits* the upstream task's stamps (so its lag is
end-to-end from the base write) and the upstream entry is marked
forwarded: its completion still records the intermediate view's lag, but
the mutation counts as ``reflected`` only when the deepest task retires
it.  Stamping cascade arrivals fresh would count the mutation twice and
underreport the top-level lag.

Views are labelled by ``view.register`` events; unregistered rule
functions fall back to the function name.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.obs.metrics import Histogram, log_bounds

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import EventLog

#: Default staleness bucket bounds: 1 ms .. ~1000 s of virtual time.
STALENESS_BOUNDS = log_bounds(1e-3, 1e3, 2.0)

#: The event kinds the ledger reads.
_READ = frozenset({
    "view.register", "unique.new", "unique.append", "unique.rescind", "task",
    "task.supersede", "task.drop", "fault.drop",
})


class _Outstanding:
    """Stamps carried by one pending/running task."""

    __slots__ = ("view", "rule", "stratum", "stamps", "oldest", "forwarded")

    def __init__(self, view: str, rule: str, stratum: str, stamps: list[float]) -> None:
        self.view, self.rule, self.stratum = view, rule, stratum
        self.stamps = stamps
        # min(stamps), inf when empty: a cascade firing extends the stamps
        # with its upstream's, which can be older than any already here.
        self.oldest = min(stamps, default=math.inf)
        # True once the stamps were inherited by a downstream cascade task:
        # this task's completion then records intermediate-view lag but the
        # mutations stay outstanding until the deepest task retires them.
        self.forwarded = False


class StalenessTracker:
    """Mutation-to-reflection lag per derived view, rule and stratum, read
    from an event log as far as the last :meth:`read`."""

    def __init__(self, bounds: Sequence[float] = STALENESS_BOUNDS) -> None:
        self.bounds = tuple(bounds)
        self.by_view: dict[str, Histogram] = {}
        self.by_rule: dict[str, Histogram] = {}
        self.by_stratum: dict[str, Histogram] = {}
        #: function name -> view label (from view.register).
        self._views: dict[str, str] = {}
        #: task_id -> the mutations awaiting that task's completion.
        self._outstanding: dict[int, _Outstanding] = {}
        self._read = 0  # events of the log folded in so far
        self.reflected = 0  # mutations whose lag was measured
        self.lost = 0  # mutations whose task was dropped (staleness unbounded)
        #: Mutations reflected *by a deletion*: a newer change removed every
        #: derived row the pending task would have maintained, so the task
        #: was superseded.  The derived table is consistent the moment the
        #: deleting transaction commits — these are reflections, not losses.
        self.reflected_by_delete = 0

    def read(self, log: "EventLog") -> "StalenessTracker":
        """Fold in the events ``log`` gained since the last read (every
        read must be of the same log); returns the tracker."""
        if self._read == len(log):
            return self
        outstanding = self._outstanding
        for shape, ts, _dur, values in log.raw(self._read, _READ):
            kind = shape.kind
            if kind == "task":
                # The task committed: its lags end at its (hidden) end time.
                # Forwarded stamps are reflected by the deepest cascade task.
                entry = outstanding.pop(values[1], None)
                if entry is not None:
                    self._reflect(entry, values[6])
                    if not entry.forwarded:
                        self.reflected += len(entry.stamps)
            elif kind == "unique.append":
                # A later firing coalesced onto the pending task.
                entry = outstanding.get(values[1])
                if entry is None:
                    continue
                upstream = self._upstream(values[4])
                if upstream is None:
                    entry.stamps.append(ts)
                    entry.oldest = min(entry.oldest, ts)
                else:
                    entry.stamps.extend(upstream.stamps)
                    entry.oldest = min(entry.oldest, upstream.oldest)
            elif kind == "unique.new":
                # A dispatch opened a pending task: a base-table firing
                # mints the commit's stamp, a cascade firing inherits its
                # upstream's stamps (a fresh one would count it twice).
                function, task_id, _key, stratum, origin, rule, stamp = values
                upstream = self._upstream(origin)
                outstanding[task_id] = _Outstanding(
                    self._views.get(function, function), rule, f"stratum-{stratum}",
                    [stamp] if upstream is None else list(upstream.stamps),
                )
            elif kind == "unique.rescind":
                # The commit that stamped a firing rolled back.  Commits are
                # serial, so what it added (one stamp, or a copy of the
                # upstream's) is the entry's tail, or all of it if it created
                # the task.  An application task origin has no entry here.
                upstream = outstanding.get(values[4])
                if upstream is not None:
                    upstream.forwarded = False  # forwarded by the failed commit only
                if values[2]:  # created
                    outstanding.pop(values[1], None)
                    continue
                entry = outstanding.get(values[1])
                added = 1 if upstream is None else len(upstream.stamps)
                if entry is not None and added:
                    del entry.stamps[-added:]
                    entry.oldest = min(entry.stamps, default=math.inf)
            elif kind == "task.supersede":
                entry = outstanding.pop(values[1], None)
                if entry is not None:
                    self._reflect(entry, ts)
                    self.reflected += len(entry.stamps)
                    self.reflected_by_delete += len(entry.stamps)
            elif kind == "task.drop" or kind == "fault.drop":
                entry = outstanding.pop(values[1], None)
                if entry is not None:
                    self.lost += len(entry.stamps)
            elif kind == "view.register":
                self._views[values[1]] = values[0]
        self._read = len(log)
        return self

    def _upstream(self, origin: Optional[int]) -> Optional[_Outstanding]:
        """The upstream task's entry, when the firing is a cascade.

        Marks it forwarded — the base mutations stay outstanding (carried
        by the downstream task) until the deepest stratum reflects them."""
        upstream = self._outstanding.get(origin)
        if upstream is not None:
            upstream.forwarded = True
        return upstream

    def _reflect(self, entry: _Outstanding, now: float) -> None:
        """Record the lag of every stamp ``entry`` carries, reflected at
        ``now``, in its view's, rule's and stratum's histograms."""
        bounds = self.bounds
        histograms = []
        for table, label in (
            (self.by_view, entry.view), (self.by_rule, entry.rule), (self.by_stratum, entry.stratum)
        ):
            histogram = table.get(label)
            if histogram is None:
                histogram = table[label] = Histogram(label, bounds=bounds)
            histograms.append(histogram)
        for stamp in entry.stamps:
            lag = max(now - stamp, 0.0)
            for histogram in histograms:
                histogram.record(lag)

    # ------------------------------------------------------------ queries

    def outstanding(self) -> int:
        """Mutations stamped but not yet reflected.  Forwarded entries are
        excluded — their stamps are carried by the downstream cascade task
        and would otherwise count twice."""
        return sum(
            len(entry.stamps)
            for entry in self._outstanding.values()
            if not entry.forwarded
        )

    def oldest_stamp(self) -> Optional[float]:
        oldest = min(
            (entry.oldest for entry in self._outstanding.values() if not entry.forwarded),
            default=math.inf,
        )
        return None if oldest == math.inf else oldest

    def watermark(self, now: float) -> float:
        """Age of the oldest unreflected mutation (0.0 when caught up).

        This is the run's live staleness bound: no derived row is more
        than ``watermark`` virtual seconds behind its base data."""
        oldest = self.oldest_stamp()
        if oldest is None:
            return 0.0
        return max(now - oldest, 0.0)

    # ------------------------------------------------------------ reports

    @staticmethod
    def _rows(table: dict[str, Histogram], label_key: str) -> list[dict[str, Any]]:
        rows = []
        for label in sorted(table):
            histogram = table[label]
            rows.append(
                {
                    label_key: label,
                    "n": histogram.count,
                    "mean_s": histogram.mean,
                    "p50_s": histogram.percentile(0.50),
                    "p95_s": histogram.percentile(0.95),
                    "p99_s": histogram.percentile(0.99),
                    "max_s": histogram.max if histogram.count else 0.0,
                }
            )
        return rows

    def view_rows(self) -> list[dict[str, Any]]:
        """Per-view staleness percentiles for report tables."""
        return self._rows(self.by_view, "view")

    def rule_rows(self) -> list[dict[str, Any]]:
        """Per-rule staleness percentiles for report tables."""
        return self._rows(self.by_rule, "rule")

    def stratum_rows(self) -> list[dict[str, Any]]:
        """Per-stratum staleness percentiles — how lag accumulates as a
        mutation climbs the cascade."""
        return self._rows(self.by_stratum, "stratum")

    def snapshot(self) -> dict[str, Any]:
        """Everything as plain JSON-serialisable dicts."""
        return {
            "views": {label: h.snapshot() for label, h in sorted(self.by_view.items())},
            "rules": {label: h.snapshot() for label, h in sorted(self.by_rule.items())},
            "strata": {
                label: h.snapshot() for label, h in sorted(self.by_stratum.items())
            },
            "reflected": self.reflected,
            "reflected_by_delete": self.reflected_by_delete,
            "lost": self.lost,
            "outstanding": self.outstanding(),
        }
