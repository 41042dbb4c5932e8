"""Ablation: scheduling policies (section 6.2).

STRIP provides earliest-deadline and value-density-first scheduling.  This
benchmark runs the composite workload under all three policies with tight
update-task deadlines and shows EDF/VDF protecting update latency against
the recompute backlog, at no correctness cost (the derived data converges
identically — the equivalence tests assert that elsewhere).
"""

import pytest

from repro.bench.experiments import bench_scale
from repro.bench.reporting import emit, format_table
from repro.pta.workload import VIEW


def _run(policy: str):
    scale = bench_scale().scaled(0.5)
    return VIEW.run(
        scale=scale,
        view="comps",
        variant="on_comp",
        delay=0.5,
        policy=policy,
        update_deadline=0.05,
        keep_records=True,
    )


def test_scheduling_policies(benchmark):
    def sweep():
        return {policy: _run(policy) for policy in ("fifo", "edf", "vdf")}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    update_response = {}
    for policy, result in results.items():
        response = result.run.db.metrics.mean_response("update")
        update_response[policy] = response
        rows.append(
            {
                "policy": policy,
                "update_mean_response_ms": round(response * 1e3, 4),
                "recompute_mean_response_ms": round(
                    result.mean_recompute_response * 1e3, 4
                ),
                "cpu_fraction": round(result.cpu_fraction, 4),
            }
        )
        benchmark.extra_info[policy] = response
    emit(format_table(rows, "Ablation: scheduling policy vs update latency"), "ablation_scheduler")

    # Deadline/value-aware policies should not serve updates worse than
    # FIFO (they may tie when the system is underloaded).
    assert update_response["edf"] <= update_response["fifo"] * 1.05
    assert update_response["vdf"] <= update_response["fifo"] * 1.05
    # Total maintenance CPU is policy-independent (same work, moved around).
    cpus = [result.cpu_fraction for result in results.values()]
    assert max(cpus) - min(cpus) < 0.02
