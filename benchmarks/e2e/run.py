"""Entry point: ``python3 benchmarks/e2e/run.py`` (what BENCHMARK.json names)
or ``python -m benchmarks.e2e``.

Prints every metric by name with its unit, verifies outputs, and exits
non-zero on a wrong result.  The last line of standard output for each
workload is one JSON object — ``correct``, ``attempted``, ``failed``,
``metrics`` — holding the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
if sys.path and os.path.abspath(sys.path[0]) == _HERE:
    sys.path.pop(0)  # run as a script: this directory's trace.py would shadow the stdlib's
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402

from benchmarks.e2e.harness import run_workload  # noqa: E402
from benchmarks.e2e.metrics import DRIVER_END_TO_END, DRIVER_PER_LAYER, END_TO_END  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402


def environment() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
    }


def _format(value: float) -> str:
    return f"{value:.0f}" if value == int(value) and abs(value) < 1e15 else f"{value:.6g}"


def report(record: dict) -> None:
    """The human-readable block for one workload."""
    print(
        f"== {record['workload']}  seed {record['seed']}  reps {record['reps']}  "
        f"ops/rep {record['ops']}"
    )
    for metric in END_TO_END:
        entry = record["end_to_end"].get(metric.name)
        if entry is None:
            continue  # read_* exist only where the workload reads
        print(
            f"  {metric.name:<28} {_format(entry['value']):>12} {entry['unit']:<6}"
            f" [q1 {_format(entry['q1'])}, q3 {_format(entry['q3'])}]  n={entry['n']}"
        )
    for name, entry in record.get("per_layer", {}).items():
        print(f"  {name:<28} {_format(entry['value']):>12} {entry['unit']}")
    if "layer_share" in record:
        # One thread, no contention: a faster layer saves at most its
        # self-time share of 1/throughput_ops_s.
        shares = sorted(record["layer_share"].items(), key=lambda item: -item[1])
        print("  self-time share of the traced run: " + "  ".join(
            f"{layer} {share:.1%}" for layer, share in shares
        ) + f"  (untraced code {1 - sum(s for _l, s in shares):.1%})")
    print(f"  virtual fingerprint          {json.dumps(record['fingerprint'])}")
    for other in record["fingerprint_mismatches"]:
        print(f"  FINGERPRINT MISMATCH         {json.dumps(other)}")


def driver_line(record: dict, trace: int) -> str:
    """The contract's result object: measured values, all digits."""
    if trace:
        source = dict(record["per_layer"])
        for name in ("read_p50_us", "read_p99_us"):
            source[name] = record["end_to_end"].get(name, {"value": 0.0, "unit": "us"})
        wanted = DRIVER_PER_LAYER
    else:
        source, wanted = record["end_to_end"], DRIVER_END_TO_END
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m.name: {"value": source[m.name]["value"], "unit": m.unit} for m in wanted
        },
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="repeat until the timed sections have used this budget "
        "(default: each workload's fixed repetition count)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1: add the traced repetition")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one repetition (the self-test size)")
    parser.add_argument("--json-out", help="write every workload's record here")
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = {}
    for name in names:
        record = run_workload(
            WORKLOADS[name], args.seed, smoke=args.smoke,
            traced=bool(args.trace), seconds=args.seconds,
        )
        records[name] = record
        report(record)
        print(driver_line(record, args.trace), flush=True)
    if args.json_out:
        with open(args.json_out, "w") as out:
            json.dump({"env": environment(), "seed": args.seed, "workloads": records}, out, indent=1)
            out.write("\n")
    return 0 if all(record["correct"] for record in records.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
