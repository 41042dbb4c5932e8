"""Network front-end bench: throughput/latency vs client count, and
graceful degradation under overload.

Two claims, measured on the same seeded bursty quote streams:

* **Client scaling** — the server multiplexes concurrent protocol
  sessions into one engine; with a healthy admission posture, acked
  throughput (commits per virtual second) holds up as the client count
  grows and no acknowledged mutation is ever lost.
* **Graceful degradation** — under a ~10x overload burst the server
  degrades by *refusing* work (throttle + shed responses) rather than
  by queueing it: the shed/throttle rate rises with offered load while
  the convergence oracle and the zero-lost-acks check keep passing.

Every leg ends in the convergence oracle + lost-acked-mutations check
inside ``NETWORKED.run``.  Emits ``BENCH_network.json``.
"""

import json
import os
import time

from repro.bench.reporting import emit, format_table, results_dir
from repro.net import AdmissionConfig, LoadConfig
from repro.obs import TimeSeriesSampler, TraceCollector
from repro.pta.distributed import NETWORKED
from repro.replic import NetworkConfig

NETWORK = NetworkConfig(latency=0.005, bandwidth=10e6, jitter=0.002)
CLIENT_COUNTS = [1, 2, 4, 8]
REQUESTS_PER_CLIENT = 30

#: The healthy posture: buckets sized well above the offered rate.
HEALTHY = AdmissionConfig(session_rate=200.0, session_burst=40.0)
HEALTHY_LOAD = LoadConfig(burst_size=4.0, burst_gap=0.4, intra_gap=0.01)

#: The overload leg: every client bursts ~10x faster than it drains.
OVERLOAD_LOAD = LoadConfig(burst_size=20.0, burst_gap=0.05, intra_gap=0.001)


def run_leg(n_clients, load, admission, sampler=None, seed=5):
    collector = TraceCollector(timeseries=sampler) if sampler else TraceCollector()
    start = time.perf_counter()
    result = NETWORKED.run(
        seed=seed,
        n_clients=n_clients,
        requests_per_client=REQUESTS_PER_CLIENT,
        load=load,
        network=NETWORK,
        admission=admission,
        tracer=collector,
    )
    wall = time.perf_counter() - start
    depths = [s["queue_depth"] for s in collector.timeseries.samples]
    return {
        "clients": n_clients,
        "requests": result.requests,
        "acked": result.acked,
        "shed_responses": result.shed,
        "gave_up": result.gave_up,
        "throughput_per_vs": round(result.throughput, 2),
        "p50_ms": None if result.p50_latency is None else round(result.p50_latency * 1e3, 2),
        "p95_ms": None if result.p95_latency is None else round(result.p95_latency * 1e3, 2),
        "admit": result.admit_decisions,
        "throttle": result.throttle_decisions,
        "shed": result.shed_decisions,
        "peak_queue": max(depths) if depths else 0,
        "lost_acked": len(result.lost_acked),
        "converged": result.ok,
        "wall_s": round(wall, 3),
    }


def network_sweep():
    rows = []
    for n_clients in CLIENT_COUNTS:
        row = run_leg(n_clients, HEALTHY_LOAD, HEALTHY)
        row["leg"] = "healthy"
        rows.append(row)
    overload = run_leg(8, OVERLOAD_LOAD, AdmissionConfig())
    overload["leg"] = "overload"
    rows.append(overload)
    shed = run_leg(
        6,
        LoadConfig(burst_size=15.0, burst_gap=0.1, intra_gap=0.005),
        AdmissionConfig(session_rate=40.0, session_burst=5.0, delay_at=0.55, shed_at=0.8),
        sampler=TimeSeriesSampler(interval=0.25, max_queue_depth=2.0),
        seed=7,
    )
    shed["leg"] = "shedding"
    rows.append(shed)
    return rows


def test_network_scaling(benchmark):
    rows = benchmark.pedantic(network_sweep, rounds=1, iterations=1)
    emit(
        format_table(
            [{"leg": row["leg"], **{k: v for k, v in row.items() if k != "leg"}}
             for row in rows],
            "Network front-end sweep (binary protocol, simulated channels)",
        ),
        "network",
    )
    healthy = [row for row in rows if row["leg"] == "healthy"]
    overload = next(row for row in rows if row["leg"] == "overload")
    shed = next(row for row in rows if row["leg"] == "shedding")
    for row in rows:
        benchmark.extra_info[f"{row['leg']}-{row['clients']}"] = {
            "throughput_per_vs": row["throughput_per_vs"],
            "p95_ms": row["p95_ms"],
            "shed_rate": row["shed"] / max(row["requests"], 1),
        }
        # Every leg, however hostile: converged, zero lost acked writes.
        assert row["converged"], row
        assert row["lost_acked"] == 0, row

    # Healthy posture: every request is acknowledged at every client count.
    for row in healthy:
        assert row["acked"] == row["requests"], row

    # Overload degrades by refusal, not by queueing: the controller
    # throttled, and the scheduler queues never approached saturation.
    assert overload["throttle"] > 0, overload
    assert overload["peak_queue"] < 64, overload

    # The shedding posture really sheds (and still loses nothing).
    assert shed["shed"] > 0, shed

    try:
        target = results_dir()
        os.makedirs(target, exist_ok=True)
        path = os.path.join(target, "BENCH_network.json")
        with open(path, "w") as handle:
            json.dump(
                {
                    "requests_per_client": REQUESTS_PER_CLIENT,
                    "network": {
                        "latency_s": NETWORK.latency,
                        "jitter_s": NETWORK.jitter,
                    },
                    "rows": rows,
                },
                handle,
                indent=2,
            )
    except OSError:
        pass  # results files are a convenience, never a failure
