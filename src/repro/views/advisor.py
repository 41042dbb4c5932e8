"""The batching advisor — the paper's proposed future work (section 8).

    "By maintaining statistics such as join selectivities and how often
    tables are updated, it should be possible for a materialized view
    manager to derive not just the rules to maintain a view but the unit
    of batching and delay window size as well."

The advisor models each candidate unit of batching as a set of batching
*keys* over which changes arrive as independent Poisson streams.  With
per-key arrival rate λ and delay window d, a pending unique task absorbs
every firing in its window, so batches renew roughly every ``d + 1/λ``
seconds and the number of recompute tasks over a horizon T is::

    N_r(d) = Σ_keys  λ_k · T / (1 + λ_k · d)

Expected CPU is then ``N_r(d) · c_task + R · c_row`` (per-task overhead
plus total per-row work, which batching does not change), mirroring the
decomposition in section 5.1.  The advisor applies the paper's two rules of
thumb: pick the unit of batching *just large enough* to capture the
redundancy of the recomputation (smallest key cardinality whose per-key
rate still yields real batching), and pick the smallest delay window whose
marginal CPU saving has fallen below a threshold (diminishing returns).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence


@dataclass(frozen=True)
class BatchingCandidate:
    """One candidate unit of batching for a view's maintenance rules.

    ``unique_on=()`` with ``unique=True`` is coarse (whole-function)
    batching; ``unique=False`` is the non-batched baseline.
    """

    name: str
    unique: bool
    unique_on: tuple[str, ...]
    n_keys: int  # distinct batching keys (1 for coarse batching)


@dataclass
class AdvisorReport:
    """The advisor's recommendation plus the predicted tradeoff curves."""

    candidate: BatchingCandidate
    delay: float
    predicted_cpu: float
    predicted_recomputes: float
    predicted_task_length: float
    curves: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    rationale: str = ""


class BatchingAdvisor:
    """Recommends (unit of batching, delay window) for maintenance rules."""

    def __init__(
        self,
        update_rate: float,
        horizon: float,
        rows_per_change: float,
        task_overhead: float,
        row_cost: float,
        max_delay: float = 3.0,
        max_task_length: Optional[float] = None,
        diminishing_returns: float = 0.05,
    ) -> None:
        """
        Args:
            update_rate: base-data changes per second (trace average).
            horizon: experiment duration in seconds.
            rows_per_change: derived rows affected per base change (fan-out,
                e.g. 12 composites per stock change).
            task_overhead: per-recompute-task fixed cost (seconds).
            row_cost: per-affected-row recompute cost (seconds).
            max_delay: largest acceptable staleness for the derived data.
            max_task_length: schedulability bound on one recompute task.
            diminishing_returns: stop lengthening the window once the
                marginal CPU saving per step drops below this fraction.
        """
        if update_rate <= 0 or horizon <= 0:
            raise ValueError("update_rate and horizon must be positive")
        self.update_rate = update_rate
        self.horizon = horizon
        self.rows_per_change = rows_per_change
        self.task_overhead = task_overhead
        self.row_cost = row_cost
        self.max_delay = max_delay
        self.max_task_length = max_task_length
        self.diminishing_returns = diminishing_returns

    # ------------------------------------------------------------ modelling

    def recomputes(self, candidate: BatchingCandidate, delay: float) -> float:
        """Expected number of recompute tasks over the horizon."""
        firings = self.update_rate * self.rows_per_change  # rule firings/sec
        if not candidate.unique:
            return self.update_rate * self.horizon  # one task per update txn
        keys = max(candidate.n_keys, 1)
        rate_per_key = firings / keys
        return keys * rate_per_key * self.horizon / (1.0 + rate_per_key * delay)

    def cpu(self, candidate: BatchingCandidate, delay: float) -> float:
        """Expected CPU seconds over the horizon (section 5.1 decomposition):
        the per-row term is fixed — batching does not change how many rows
        are recomputed — so only the per-task overhead moves with the delay."""
        total_rows = self.update_rate * self.rows_per_change * self.horizon
        return self.recomputes(candidate, delay) * self.task_overhead + total_rows * self.row_cost

    def task_length(self, candidate: BatchingCandidate, delay: float) -> float:
        """Expected per-task execution time."""
        total_rows = self.update_rate * self.rows_per_change * self.horizon
        n_r = max(self.recomputes(candidate, delay), 1.0)
        return self.task_overhead + (total_rows / n_r) * self.row_cost

    # ---------------------------------------------------------- recommend

    def recommend(
        self,
        candidates: Sequence[BatchingCandidate],
        delays: Optional[Sequence[float]] = None,
    ) -> AdvisorReport:
        """Pick the best (candidate, delay) under the paper's heuristics."""
        if not candidates:
            raise ValueError("no candidates supplied")
        if delays is None:
            delays = [round(0.5 * i, 2) for i in range(1, int(self.max_delay / 0.5) + 1)]
        delays = [d for d in delays if d <= self.max_delay]
        if not delays:
            raise ValueError("no delay candidates within max_delay")

        curves: dict[str, list[tuple[float, float]]] = {}
        best: Optional[tuple[tuple, BatchingCandidate, float]] = None
        for candidate in candidates:
            curves[candidate.name] = [(d, self.cpu(candidate, d)) for d in delays]
            # The non-batched baseline ignores the delay; evaluate it at 0.
            delay_choice = self._knee(candidate, delays) if candidate.unique else 0.0
            length = self.task_length(candidate, delay_choice)
            if self.max_task_length is not None and length > self.max_task_length:
                continue  # schedulability bound violated
            score = (self.cpu(candidate, delay_choice), length)
            if best is None or score < best[0]:
                best = (score, candidate, delay_choice)
        if best is None:
            raise ValueError(
                "every candidate exceeds max_task_length; relax the bound"
            )
        _score, candidate, delay = best
        return AdvisorReport(
            candidate=candidate,
            delay=delay,
            predicted_cpu=self.cpu(candidate, delay),
            predicted_recomputes=self.recomputes(candidate, delay),
            predicted_task_length=self.task_length(candidate, delay),
            curves=curves,
            rationale=self._rationale(candidate, delay),
        )

    def _knee(self, candidate: BatchingCandidate, delays: Sequence[float]) -> float:
        """Smallest delay at which marginal CPU saving has petered out.

        The paper's rule of thumb: "a small window should be chosen to
        begin and only lengthened if performance is not acceptable" — i.e.
        stop where lengthening yields diminishing returns.
        """
        ordered = sorted(delays)
        cpu_values = [self.cpu(candidate, d) for d in ordered]
        base = cpu_values[0]
        floor = min(cpu_values)
        span = max(base - floor, 1e-12)
        choice = ordered[-1]
        for i in range(1, len(ordered)):
            marginal = (cpu_values[i - 1] - cpu_values[i]) / span
            if marginal < self.diminishing_returns:
                choice = ordered[i - 1]
                break
        return choice

    def _rationale(self, candidate: BatchingCandidate, delay: float) -> str:
        n_r = self.recomputes(candidate, delay)
        return (
            f"unit of batching {candidate.name!r} with a {delay:.2f}s window: "
            f"~{n_r:.0f} recompute tasks over {self.horizon:.0f}s, predicted CPU "
            f"{self.cpu(candidate, delay):.1f}s, task length "
            f"{self.task_length(candidate, delay) * 1e3:.2f}ms. Batching "
            "unit chosen just large enough to capture recomputation redundancy; "
            "window chosen at the diminishing-returns knee (paper section 8 rules "
            "of thumb)."
        )


# --------------------------------------------------------------------------
# Maintenance-strategy advisor (insert-incremental vs DRed vs full recompute)


@dataclass(frozen=True)
class MaintenanceProfile:
    """Workload + view shape inputs to the maintenance-strategy choice.

    Args:
        delete_fraction: fraction of base-data changes that are deletions
            (or the delete half of a key-column update).
        fanout: derived rows supported by one base row — the overdeletion
            blast radius of deleting it.
        rederive_rows: surviving base rows scanned to re-derive one marked
            key (restricted-requery width).
        view_rows: total derived rows, i.e. the cost driver of one full
            recomputation.
        incremental_ok: whether an insert-incremental fold exists for the
            view (self-maintainable aggregates; false forces a choice
            between DRed and full recompute).
        multi_table: whether the view joins several base tables — the
            incremental deletion path then needs partner-join work that a
            single-table view does not.
    """

    delete_fraction: float
    fanout: float
    rederive_rows: float
    view_rows: float
    incremental_ok: bool = True
    multi_table: bool = False


@dataclass
class MaintenanceReport:
    """The maintenance advisor's choice plus the per-change cost estimates."""

    strategy: str  # "incremental" | "dred" | "recompute"
    costs: dict[str, float]  # per-change expected cost of every strategy
    profile: MaintenanceProfile
    rationale: str = ""


class MaintenanceAdvisor:
    """Chooses the deletion-maintenance strategy for one view's rules.

    Per-change expected cost under a deletion mix ``d``:

    * ``incremental`` — inserts pay the fold; deletions additionally pay
      the partner-join delete work on multi-table views (a deleted base
      row has to be joined against live partners to find its deltas,
      which under-deletes when the partner died in the same transaction —
      the bug class DRed exists to avoid).
    * ``dred`` — inserts pay the same fold; deletions pay mark +
      fanout × (overdelete + rederive_rows × rederive).
    * ``recompute`` — every change pays ``view_rows`` × per-row recompute.

    Ties break toward the cheaper machinery: incremental < dred <
    recompute.
    """

    ORDER = ("incremental", "dred", "recompute")

    def __init__(
        self,
        insert_cost: float,
        delete_join_cost: float,
        mark_cost: float,
        overdelete_cost: float,
        rederive_cost: float,
        recompute_row_cost: float,
    ) -> None:
        self.insert_cost = insert_cost
        self.delete_join_cost = delete_join_cost
        self.mark_cost = mark_cost
        self.overdelete_cost = overdelete_cost
        self.rederive_cost = rederive_cost
        self.recompute_row_cost = recompute_row_cost

    @classmethod
    def from_cost_model(cls, cost_model) -> "MaintenanceAdvisor":
        """Derive the per-op coefficients from a simulator cost model."""
        return cls(
            insert_cost=cost_model.seconds("agg_update")
            + cost_model.seconds("row_output"),
            delete_join_cost=cost_model.seconds("join_probe")
            + cost_model.seconds("row_scan"),
            mark_cost=cost_model.seconds("dred_mark"),
            overdelete_cost=cost_model.seconds("dred_overdelete_row"),
            rederive_cost=cost_model.seconds("dred_rederive_row"),
            recompute_row_cost=cost_model.seconds("view_recompute_row"),
        )

    def per_change_cost(self, strategy: str, profile: MaintenanceProfile) -> float:
        """Expected cost of maintaining the view after one base change."""
        d = min(max(profile.delete_fraction, 0.0), 1.0)
        insert = profile.fanout * self.insert_cost
        if strategy == "incremental":
            if not profile.incremental_ok:
                return float("inf")
            delete_extra = (
                profile.fanout * self.delete_join_cost if profile.multi_table else 0.0
            )
            return (1.0 - d) * insert + d * (insert + delete_extra)
        if strategy == "dred":
            delete_extra = self.mark_cost + profile.fanout * (
                self.overdelete_cost + profile.rederive_rows * self.rederive_cost
            )
            return (1.0 - d) * insert + d * delete_extra
        if strategy == "recompute":
            return profile.view_rows * self.recompute_row_cost
        raise ValueError(f"unknown maintenance strategy {strategy!r}")

    def recommend(self, profile: MaintenanceProfile) -> MaintenanceReport:
        costs = {
            strategy: self.per_change_cost(strategy, profile)
            for strategy in self.ORDER
        }
        # min() keeps the first of equals, and ORDER ranks the machinery
        # from simplest to heaviest — ties go to the simpler strategy.
        strategy = min(self.ORDER, key=lambda s: costs[s])
        finite = {k: v for k, v in costs.items() if v != float("inf")}
        rationale = (
            f"deletion mix {profile.delete_fraction:.0%}, fan-out "
            f"{profile.fanout:.1f}, view rows {profile.view_rows:.0f}: "
            + ", ".join(f"{k}={v * 1e6:.1f}us" for k, v in finite.items())
            + f" per change -> {strategy}"
        )
        return MaintenanceReport(
            strategy=strategy, costs=costs, profile=profile, rationale=rationale
        )
