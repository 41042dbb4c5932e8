"""Freshness/staleness tracking for derived data.

STRIP's central trade-off is deferring rule execution — delayed ``unique``
tasks, batching, compaction — at the cost of derived-data *staleness*.
This module measures that cost directly: every base-table mutation that
fires a maintenance rule is **stamped** with its commit time when its rows
enter a pending task (``unique.new`` / ``unique.append``), and when the
task completes the lag ``reflection_time - stamp`` is recorded, in virtual
seconds, into per-view and per-rule log-bucket histograms.

The stamp rides the pending task, so the measured lag is exactly what a
reader of the derived table experiences: the ``after`` delay window, plus
queueing, plus the recompute itself.  Mutations whose task is dropped
(firm deadline or exhausted fault retries) are counted as ``lost`` — their
staleness is unbounded, so they must not silently vanish from the
percentiles.  Fault-retried tasks keep their stamps: a retry lengthens the
lag, it does not reset it.

**Cascades inherit stamps.**  A rule firing that arrives via another
rule's action (``origin`` is the upstream task) is not a new mutation —
it is the same base-table change propagating one stratum up.  The
downstream task therefore *inherits* the upstream task's stamps (original
commit times preserved, so the measured lag is end-to-end from the base
write) and the upstream entry is marked forwarded: its completion still
records the intermediate view's lag histogram, but the mutation counts as
``reflected`` only when the deepest task retires it.  Stamping cascade
arrivals fresh — the pre-cascade behaviour — would both double-count the
mutation and underreport the top-level lag.

Views are labelled through :meth:`StalenessTracker.register_view` (wired
from ``views/maintain.materialize`` and the PTA rule installers via the
tracer's ``view_registered`` hook); unregistered rule functions fall back
to the function name, so every rule-maintained table is tracked either way.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.obs.metrics import Histogram, log_bounds

if TYPE_CHECKING:  # pragma: no cover
    from repro.txn.tasks import Task

#: Default staleness bucket bounds: 1 ms .. ~1000 s of virtual time.
STALENESS_BOUNDS = log_bounds(1e-3, 1e3, 2.0)


class _Outstanding:
    """Stamps carried by one pending/running task."""

    __slots__ = ("view", "rule", "stamps", "oldest", "forwarded")

    def __init__(self, view: str, rule: str, stamps: list[float]) -> None:
        self.view = view
        self.rule = rule
        self.stamps = stamps
        # min(stamps), inf when empty: a cascade firing extends the stamps
        # with its upstream's, which can be older than any already here.
        self.oldest = min(stamps, default=math.inf)
        # True once the stamps were inherited by a downstream cascade task:
        # this task's completion then records intermediate-view lag but the
        # mutations stay outstanding until the deepest task retires them.
        self.forwarded = False


class StalenessTracker:
    """Mutation-to-reflection lag per derived view and per rule."""

    def __init__(self, bounds: Sequence[float] = STALENESS_BOUNDS) -> None:
        self.bounds = tuple(bounds)
        self.by_view: dict[str, Histogram] = {}
        self.by_rule: dict[str, Histogram] = {}
        self.by_stratum: dict[str, Histogram] = {}
        #: function name -> view label (from register_view).
        self._views: dict[str, str] = {}
        #: task_id -> the mutations awaiting that task's completion.
        self._outstanding: dict[int, _Outstanding] = {}
        self.reflected = 0  # mutations whose lag was measured
        self.lost = 0  # mutations whose task was dropped (staleness unbounded)
        #: Mutations reflected *by a deletion*: a newer change removed every
        #: derived row the pending task would have maintained, so the task
        #: was superseded.  The derived table is consistent the moment the
        #: deleting transaction commits — these are reflections, not losses.
        self.reflected_by_delete = 0

    # ------------------------------------------------------------- labels

    def register_view(self, view: str, function: str, rules: Sequence[str]) -> None:
        """Label the staleness series of ``function``'s tasks with ``view``."""
        self._views[function] = view

    def view_of(self, task: "Task") -> str:
        return self._views.get(task.function_name or "", task.function_name or task.klass)

    # ----------------------------------------------------------- stamping

    def _hist(self, table: dict[str, Histogram], label: str) -> Histogram:
        histogram = table.get(label)
        if histogram is None:
            histogram = table[label] = Histogram(label, bounds=self.bounds)
        return histogram

    def _upstream(self, origin: Optional["Task"]) -> Optional[_Outstanding]:
        """The upstream task's entry, when the firing is a cascade.

        Marks it forwarded — the base mutations stay outstanding (carried
        by the downstream task) until the deepest stratum reflects them."""
        if origin is None:
            return None
        upstream = self._outstanding.get(origin.task_id)
        if upstream is not None:
            upstream.forwarded = True
        return upstream

    def on_task_new(
        self, task: "Task", now: float, origin: Optional["Task"] = None
    ) -> None:
        """A dispatch opened a fresh pending task for one rule firing.

        A base-table firing mints a fresh stamp (the triggering commit's
        time); a cascade firing inherits the upstream task's stamps instead
        — stamping it fresh would count the same base mutation twice."""
        if task.function_name is None:
            return
        upstream = self._upstream(origin)
        stamps = [task.created_time] if upstream is None else list(upstream.stamps)
        self._outstanding[task.task_id] = _Outstanding(
            self.view_of(task), task.rule_name or task.klass, stamps
        )

    def on_task_append(
        self, task: "Task", now: float, origin: Optional["Task"] = None
    ) -> None:
        """A later firing coalesced onto the pending task: new stamp for a
        base-table firing, inherited stamps for a cascade firing."""
        entry = self._outstanding.get(task.task_id)
        if entry is None:
            return
        upstream = self._upstream(origin)
        if upstream is None:
            entry.stamps.append(now)
            entry.oldest = min(entry.oldest, now)
        else:
            entry.stamps.extend(upstream.stamps)
            entry.oldest = min(entry.oldest, upstream.oldest)

    def on_task_rescind(
        self, task: "Task", created: bool, origin: Optional["Task"] = None
    ) -> None:
        """The commit that stamped a firing onto ``task`` rolled back: the
        mutation never happened.  Commits are serial, so what the failed one
        added — one fresh stamp, or for a cascade a copy of the upstream
        task's — is the tail of the entry (all of it if ``created``).
        ``origin`` is the failed transaction's task: only a rule task has
        an entry here, so an application task reads as no upstream."""
        upstream = self._outstanding.get(origin.task_id) if origin is not None else None
        if upstream is not None:
            upstream.forwarded = False  # forwarded by the failed commit only
        if created:
            self._outstanding.pop(task.task_id, None)
            return
        entry = self._outstanding.get(task.task_id)
        added = 1 if upstream is None else len(upstream.stamps)
        if entry is not None and added:
            del entry.stamps[-added:]
            entry.oldest = min(entry.stamps, default=math.inf)

    def on_task_done(self, task: "Task", end_time: float) -> None:
        """The task committed: every stamped mutation is now reflected —
        unless the stamps were forwarded to a downstream cascade task, in
        which case only the intermediate view's lag is recorded here and
        the deepest task retires the mutations."""
        entry = self._outstanding.pop(task.task_id, None)
        if entry is None:
            return
        view_hist = self._hist(self.by_view, entry.view)
        rule_hist = self._hist(self.by_rule, entry.rule)
        stratum_hist = self._hist(self.by_stratum, f"stratum-{task.stratum}")
        for stamp in entry.stamps:
            lag = max(end_time - stamp, 0.0)
            view_hist.record(lag)
            rule_hist.record(lag)
            stratum_hist.record(lag)
        if not entry.forwarded:
            self.reflected += len(entry.stamps)

    def on_task_dropped(self, task: "Task", now: float) -> None:
        """The task was discarded: its mutations will never be reflected."""
        entry = self._outstanding.pop(task.task_id, None)
        if entry is not None:
            self.lost += len(entry.stamps)

    def on_task_superseded(self, task: "Task", now: float) -> None:
        """A deletion made the task moot: its mutations ARE reflected.

        The deleting transaction removed (or rewrote) every derived row the
        task would have touched, so the derived table caught up with the
        stamped mutations at ``now`` — record the lags as usual but tally
        them separately, so deletion-heavy runs don't misreport batched
        updates that deletions legitimately retired as "lost"."""
        entry = self._outstanding.pop(task.task_id, None)
        if entry is None:
            return
        view_hist = self._hist(self.by_view, entry.view)
        rule_hist = self._hist(self.by_rule, entry.rule)
        stratum_hist = self._hist(self.by_stratum, f"stratum-{task.stratum}")
        for stamp in entry.stamps:
            lag = max(now - stamp, 0.0)
            view_hist.record(lag)
            rule_hist.record(lag)
            stratum_hist.record(lag)
        self.reflected += len(entry.stamps)
        self.reflected_by_delete += len(entry.stamps)

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
