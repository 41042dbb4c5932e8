"""Replication bench: read-throughput scaling and the semi-sync tax.

Two claims, measured on the same seeded PTA workload:

* **Read scaling** — every hot standby is a full database serving
  read-only SELECTs, so aggregate read capacity (rows the fleet can
  answer per wall-clock second, primary + replicas) must grow with the
  replica count.  Each database's rate is timed independently — in a
  real deployment the replicas serve concurrently — and summed.
* **Semi-sync commit latency** — semi-sync mode buys replica durability
  with one network round trip per commit, charged in virtual time to
  the committing task.  The bench pins that the wait is visible (mean
  commit wait >= the 2x one-way latency floor, longer virtual end time)
  and that async mode stays free (zero waits, end time identical to an
  unreplicated run's).

Every leg must converge: the oracle + row-for-row replica equivalence
run inside ``REPLICATED.run``.  Emits ``BENCH_replication.json``.
"""

import json
import os
import time

from repro.bench.reporting import emit, format_table, results_dir
from repro.pta.distributed import REPLICATED
from repro.pta.tables import Scale
from repro.replic import NetworkConfig

SCALE = Scale(
    n_stocks=12, n_comps=3, stocks_per_comp=4,
    n_options=10, duration=8.0, n_updates=60,
)
LATENCY = 0.02
READS = 200
READ_QUERIES = (
    "select count(*) as n from comp_prices",
    "select count(*) as n from stocks",
)

#: (replicas, mode) legs of the sweep.
CASES = [(1, "async"), (2, "async"), (4, "async"), (1, "semisync"), (2, "semisync")]


def read_rate(db, n=READS):
    """Wall-clock SELECT throughput of one database, reads per second."""
    start = time.perf_counter()
    for i in range(n):
        db.query(READ_QUERIES[i % len(READ_QUERIES)])
    elapsed = time.perf_counter() - start
    return n / elapsed if elapsed > 0 else float("inf")


def replication_sweep():
    rows = []
    for replicas, mode in CASES:
        start = time.perf_counter()
        result = REPLICATED.run(
            scale=SCALE, replicas=replicas, mode=mode,
            network=NetworkConfig(latency=LATENCY),
        )
        wall = time.perf_counter() - start
        primary_rate = read_rate(result.run.db)
        replica_rates = [
            read_rate(standby.db) for standby in result.cluster.standbys
        ]
        rows.append(
            {
                "replicas": replicas,
                "mode": mode,
                "converged": result.converged,
                "end_time": round(result.end_time, 4),
                "wal_records": result.wal_records,
                "shipped_frames": result.shipped_frames,
                "shipped_bytes": result.shipped_bytes,
                "commit_waits": result.commit_waits,
                "commit_wait_mean_s": round(result.commit_wait_mean, 5),
                "commit_wait_max_s": round(result.commit_wait_max, 5),
                "reads_per_s_primary": round(primary_rate),
                "reads_per_s_aggregate": round(
                    primary_rate + sum(replica_rates)
                ),
                "wall_s": round(wall, 3),
            }
        )
    return rows


def test_replication_scaling(benchmark):
    rows = benchmark.pedantic(replication_sweep, rounds=1, iterations=1)
    emit(
        format_table(
            rows,
            f"WAL-shipping replication sweep (scale micro, "
            f"{LATENCY * 1e3:.0f}ms one-way latency)",
        ),
        "replication",
    )
    by_case = {(row["replicas"], row["mode"]): row for row in rows}
    for row in rows:
        benchmark.extra_info[f"{row['mode']}-{row['replicas']}"] = {
            "reads_per_s_aggregate": row["reads_per_s_aggregate"],
            "commit_wait_mean_s": row["commit_wait_mean_s"],
            "end_time": row["end_time"],
        }
        assert row["converged"], row

    # Read scaling: more replicas, more aggregate read capacity.  The
    # 4-replica fleet times 5 databases vs the 1-replica fleet's 2, so a
    # 1.5x floor survives normal CI timing noise.
    one = by_case[(1, "async")]
    four = by_case[(4, "async")]
    assert four["reads_per_s_aggregate"] > 1.5 * one["reads_per_s_aggregate"], (
        one, four,
    )

    # Async commits never wait; semi-sync pays at least the round trip.
    for replicas, mode in CASES:
        row = by_case[(replicas, mode)]
        if mode == "async":
            assert row["commit_waits"] == 0, row
        else:
            assert row["commit_waits"] > 0, row
            assert row["commit_wait_mean_s"] >= 2 * LATENCY, row
            assert row["end_time"] > by_case[(replicas, "async")]["end_time"]

    # Replica count does not change the async primary's virtual timeline.
    assert one["end_time"] == by_case[(2, "async")]["end_time"] == four["end_time"]

    try:
        target = results_dir()
        os.makedirs(target, exist_ok=True)
        path = os.path.join(target, "BENCH_replication.json")
        with open(path, "w") as handle:
            json.dump(
                {
                    "scale": "micro",
                    "latency_s": LATENCY,
                    "reads_per_db": READS,
                    "rows": rows,
                },
                handle,
                indent=2,
            )
    except OSError:
        pass  # results files are a convenience, never a failure
