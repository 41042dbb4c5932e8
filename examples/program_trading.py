"""The paper's program trading application, end to end (sections 3-5).

Builds the six PTA tables at a reduced scale, installs one composite rule
and one option rule, replays a synthetic TAQ quote trace through the
virtual-time simulator, and reports the quantities the paper plots:
maintenance CPU fraction, number of recomputations, and recompute
transaction length — for a non-batched rule vs a unique-transaction rule.

Run:  python examples/program_trading.py [--scale tiny|small] [--delay 1.5]
"""

import argparse

from repro.bench.reporting import format_table
from repro.pta import Scale, VIEW


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=["tiny", "small"], default="tiny")
    parser.add_argument("--delay", type=float, default=1.5, help="delay window (s)")
    args = parser.parse_args()
    scale = Scale.tiny() if args.scale == "tiny" else Scale.small()

    print(f"scale: {scale}")
    print(f"average composite memberships per stock: {scale.avg_comps_per_stock:.1f}")
    print()

    rows = []
    for view, batched_variant in (("comps", "on_comp"), ("options", "on_symbol")):
        for variant, delay in (("nonunique", 0.0), (batched_variant, args.delay)):
            result = VIEW.run(scale=scale, view=view, variant=variant, delay=delay)
            rows.append(
                {
                    "view": view,
                    "rule": variant,
                    "delay_s": delay,
                    "cpu_fraction": round(result.cpu_fraction, 4),
                    "N_r": result.n_recomputes,
                    "mean_len_ms": round(result.mean_recompute_length * 1e3, 3),
                    "batched": result.batched_firings,
                }
            )
    print(format_table(rows, "Derived-data maintenance: standard vs unique rules"))

    comps = [row for row in rows if row["view"] == "comps"]
    options = [row for row in rows if row["view"] == "options"]
    comp_saving = 1 - comps[1]["cpu_fraction"] / comps[0]["cpu_fraction"]
    option_saving = 1 - options[1]["cpu_fraction"] / options[0]["cpu_fraction"]
    print()
    print(f"composite maintenance CPU saved by batching: {comp_saving:.0%}")
    print(f"option maintenance CPU saved by batching:    {option_saving:.0%}")
    print(
        "\n(the two views batch through different locality: composites need "
        "only temporal-*spatial* locality — different member stocks changing "
        "inside the window — while options need the *same* stock to change "
        "twice, pure temporal locality; paper section 5.2)"
    )


if __name__ == "__main__":
    main()
