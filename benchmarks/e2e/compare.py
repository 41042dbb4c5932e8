"""``python -m benchmarks.e2e.compare A.json B.json`` — is B worse than A?

A and B are ``--json-out`` files of two sets of runs (A the parent, B the
change; or the same commit twice, to check the benchmark against itself).
For every (end-to-end metric, workload) pair this prints both medians with
their quartiles, B's relative change, the metric's bound, and a verdict:

* ``worse``       B's median is worse than A's by more than the bound;
* ``better``      better by more than the bound;
* ``same``        within the bound either way;
* ``unresolved``  either side's quartile spread is wider than the bound, so
  the medians cannot settle it — unless every B sample beats every A
  sample, which counts as ``better``.

Per-layer metrics carry no bound: counts are compared exactly
(``same``/``changed``), times and ratios are listed with their change.
Exits 1 if any pair is ``worse``, else 0.
"""

from __future__ import annotations

import json
import sys

from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, Metric


def verdict(metric: Metric, a: dict, b: dict) -> tuple[float, str]:
    """B's worsening relative to A (positive = worse), and the verdict."""
    sign = 1.0 if metric.better == "lower" else -1.0
    base = a["value"]
    if base == 0:
        # Only failed_frac is expected to be 0: any increase is a regression.
        return (0.0, "same") if b["value"] == 0 else (float("inf"), "worse")
    change = sign * (b["value"] - base) / abs(base)
    for side in (a, b):
        if side["value"] and (side["q3"] - side["q1"]) / abs(side["value"]) > metric.bound:
            separated = all(
                sign * (y - x) < 0 for x in a["samples"] for y in b["samples"]
            )
            return change, "better" if separated else "unresolved"
    if change > metric.bound:
        return change, "worse"
    return change, "better" if change < -metric.bound else "same"


def compare(a: dict, b: dict) -> int:
    """Print the comparison table; returns the number of ``worse`` pairs."""
    worse = 0
    for name, run_a in a["workloads"].items():
        run_b = b["workloads"].get(name)
        if run_b is None:
            continue
        print(f"== {name}")
        for metric in END_TO_END:
            ea, eb = run_a["end_to_end"].get(metric.name), run_b["end_to_end"].get(metric.name)
            if ea is None or eb is None:
                continue
            change, word = verdict(metric, ea, eb)
            worse += word == "worse"
            print(
                f"  {metric.name:<20} A {ea['value']:>11.5g} [{ea['q1']:.5g}, {ea['q3']:.5g}]"
                f"  B {eb['value']:>11.5g} [{eb['q1']:.5g}, {eb['q3']:.5g}]"
                f"  worse by {change:+7.1%}  bound {metric.bound:.0%}  {word}"
            )
        layers_a, layers_b = run_a.get("per_layer"), run_b.get("per_layer")
        if not layers_a or not layers_b:
            continue
        for metric in PER_LAYER:
            va, vb = layers_a[metric.name]["value"], layers_b[metric.name]["value"]
            if metric.unit in ("count", "B"):
                note = "same" if va == vb else "changed"
            else:
                note = f"{(vb - va) / va:+.1%}" if va else ""
            print(f"  {metric.name:<28} A {va:>12.6g}  B {vb:>12.6g}  {note}")
    return worse


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in paths:
        with open(path) as source:
            records.append(json.load(source))
    return 1 if compare(*records) else 0


if __name__ == "__main__":
    sys.exit(main())
