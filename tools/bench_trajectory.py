"""Append one same-session entry to ``BENCH_e2e.json``, the wall-clock
trajectory of the end-to-end benchmark.

Absolute wall times from different sessions on this kind of machine cannot
be compared; ratios against a fixed tree measured in the same session can.
So an entry runs the *reference* tree (``eb89280``, the commit that added
the benchmark) and the *measured* tree in alternating pairs, each through
its own ``benchmarks/e2e/run.py --trace 0 --json-out``, and records per
workload and end-to-end metric the median of the per-pair ratios
(measured / reference) beside both sides' absolute medians.  One
``--traced`` run of the measured tree adds each layer's self-time share.
Both trees are extracted with ``git archive`` into a temporary directory,
so the working tree is never what runs.

    python tools/bench_trajectory.py --commit HEAD --pairs 3 --seconds 6
    python tools/bench_trajectory.py --commit eb89280   # the reference: ratio 1.0

Measuring the reference against itself runs it ``--pairs`` times alone
and records ratio 1.0.  ``--dry-run`` prints the entry instead of
appending it.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "BENCH_e2e.json")
REFERENCE = "eb89280"
WORKLOADS = ("pta_comps_unique", "pta_options_on_symbol", "sql_views_mixed", "wire_wal_replica")
METRICS = (
    "setup_s", "throughput_ops_s", "op_p50_us", "op_p99_us", "maint_us_per_op", "peak_rss_mb",
)


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def extract(commit: str, into: str) -> str:
    """``git archive`` of ``commit`` unpacked under ``into``; returns the tree."""
    tree = os.path.join(into, commit)
    os.makedirs(tree)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
    return tree


def run(tree: str, workload: str, seed: int, seconds: float, traced: bool = False) -> dict:
    """One run of ``tree``'s own benchmark; its record for ``workload``."""
    out = os.path.join(tree, f"out-{workload}.json")
    command = [
        sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--json-out", out,
        *(["--traced"] if traced else ["--trace", "0"]),
    ]
    subprocess.run(command, cwd=tree, check=True, stdout=subprocess.DEVNULL)
    with open(out) as source:
        record = json.load(source)["workloads"][workload]
    if not record["correct"] or record["failed"]:
        raise SystemExit(f"{tree}: {workload} was not correct (failed {record['failed']})")
    return record


def values(record: dict) -> dict:
    return {name: record["end_to_end"][name]["value"] for name in METRICS}


def measure(
    reference: str, measured: str, workload: str, pairs: int, seed: int, seconds: float
) -> dict:
    """``pairs`` alternating runs of both trees; per metric the median pair
    ratio and both sides' absolute medians."""
    ref_runs, new_runs = [], []
    for pair in range(pairs):
        if measured == reference:
            ref_runs.append(values(run(reference, workload, seed, seconds)))
            new_runs.append(ref_runs[-1])
            continue
        order = (reference, measured) if pair % 2 == 0 else (measured, reference)
        got = {tree: values(run(tree, workload, seed, seconds)) for tree in order}
        ref_runs.append(got[reference])
        new_runs.append(got[measured])
        print(f"  {workload} pair {pair + 1}: " + "  ".join(
            f"{name} {got[measured][name] / got[reference][name]:.3f}" for name in METRICS
        ), flush=True)
    out = {}
    for name in METRICS:
        ratios = [new[name] / ref[name] for ref, new in zip(ref_runs, new_runs)]
        out[name] = {
            "ratio": 1.0 if measured == reference else statistics.median(ratios),
            "pair_ratios": [round(ratio, 4) for ratio in ratios] if measured != reference else [],
            "reference": statistics.median(run[name] for run in ref_runs),
            "measured": statistics.median(run[name] for run in new_runs),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commit", default="HEAD", help="the tree to measure")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--note", default="", help="free-text machine note")
    parser.add_argument("--dry-run", action="store_true", help="print, do not append")
    args = parser.parse_args(argv)

    commit = _git("rev-parse", "--short", args.commit)
    reference = _git("rev-parse", "--short", REFERENCE)
    entry = {
        "commit": commit,
        "subject": _git("log", "-1", "--format=%s", commit),
        "date": datetime.date.today().isoformat(),
        "machine": (
            f"{os.cpu_count()} cores, Python {platform.python_version()}, "
            f"{platform.machine()}" + (f"; {args.note}" if args.note else "")
        ),
        "seed": args.seed,
        "reference": reference,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-trajectory-") as scratch:
        ref_tree = extract(reference, scratch)
        new_tree = ref_tree if commit == reference else extract(commit, scratch)
        for workload in args.workload:
            metrics = measure(ref_tree, new_tree, workload, args.pairs, args.seed, args.seconds)
            traced = run(new_tree, workload, args.seed, 1.0, traced=True)
            entry["workloads"][workload] = {
                "metrics": metrics,
                "layer_share": {
                    layer: round(share, 4) for layer, share in sorted(
                        traced.get("layer_share", {}).items(), key=lambda item: -item[1]
                    )
                },
            }
            print(f"{workload}: " + "  ".join(
                f"{name} {metrics[name]['ratio']:.3f}" for name in METRICS
            ), flush=True)
    if args.dry_run:
        print(json.dumps(entry, indent=1))
        return 0
    trajectory = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY) as source:
            trajectory = json.load(source)
    trajectory.append(entry)
    with open(TRAJECTORY, "w") as out:
        json.dump(trajectory, out, indent=1)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
