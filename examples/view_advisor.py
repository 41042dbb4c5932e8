"""Choosing the unit of batching and delay window automatically.

The paper's conclusion proposes that "it should be possible for a
materialized view manager to derive not just the rules to maintain a view
but the unit of batching and delay window size as well" (section 8).  This
example exercises that loop on the PTA composite workload:

1. the advisor predicts CPU curves for every candidate unit of batching
   from workload statistics (the analytic model);
2. its recommendation is validated by actually running the experiment on
   the engine and comparing against the alternatives.

Run:  python examples/view_advisor.py
"""

from repro.bench.reporting import format_series, format_table
from repro.pta import Scale, VIEW
from repro.sim.costmodel import CostModel
from repro.views.advisor import BatchingAdvisor, BatchingCandidate


def main() -> None:
    scale = Scale.tiny().scaled(2.0)
    model = CostModel()

    # Statistics a view manager would maintain: update rates, fan-out
    # (join selectivity of stocks -> comps_list), per-row maintenance cost.
    update_rate = scale.n_updates / scale.duration
    fan_out = scale.avg_comps_per_stock
    task_overhead = (
        model.seconds("begin_task")
        + model.seconds("begin_txn")
        + model.seconds("commit_txn")
        + model.seconds("end_task")
        + model.seconds("task_create")
        + model.seconds("sched_enqueue")
        + model.seconds("sched_dequeue")
        + model.seconds("user_func_base")
    )
    row_cost = model.seconds("user_row") + model.seconds("bind_row") + 120e-6

    advisor = BatchingAdvisor(
        update_rate=update_rate,
        horizon=scale.duration,
        rows_per_change=fan_out,
        task_overhead=task_overhead,
        row_cost=row_cost,
        max_delay=3.0,
        max_task_length=50e-3,  # schedulability: keep recomputes < 50 ms
    )
    candidates = [
        BatchingCandidate("nonunique", unique=False, unique_on=(), n_keys=1),
        BatchingCandidate("unique", unique=True, unique_on=(), n_keys=1),
        BatchingCandidate(
            "on_comp", unique=True, unique_on=("comp",), n_keys=scale.n_comps
        ),
    ]
    report = advisor.recommend(candidates)
    print("predicted CPU-seconds curves (analytic model):")
    print(format_series(report.curves, x_label="delay_s", y_label="CPU seconds"))
    print()
    print("recommendation:", report.rationale)
    print()

    # --- validate the prediction against the real engine -----------------
    name_to_variant = {"nonunique": "nonunique", "unique": "unique", "on_comp": "on_comp"}
    rows = []
    for candidate in candidates:
        variant = name_to_variant[candidate.name]
        delay = 0.0 if variant == "nonunique" else report.delay
        result = VIEW.run(scale=scale, view="comps", variant=variant, delay=delay)
        rows.append(
            {
                "unit": candidate.name,
                "delay_s": delay,
                "measured_cpu_s": round(result.maintenance_cpu, 3),
                "measured_len_ms": round(result.mean_recompute_length * 1e3, 3),
                "N_r": result.n_recomputes,
            }
        )
    print(format_table(rows, "Measured on the engine (same workload)"))

    measured = {row["unit"]: row["measured_cpu_s"] for row in rows}
    chosen = report.candidate.name
    best_batched = min((u for u in measured if u != "nonunique"), key=measured.get)
    print()
    print(f"advisor chose {chosen!r}; measured best batched unit is {best_batched!r}")
    assert measured[chosen] < measured["nonunique"], "advisor must beat the baseline"
    print("the recommendation beats the non-batched baseline on the real engine. done.")


if __name__ == "__main__":
    main()
