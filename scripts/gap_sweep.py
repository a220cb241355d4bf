#!/usr/bin/env python3
"""Integrality-gap sweep on the two-variable minimum-knapsack family.

For each delta, the plain relaxation is worth delta while the integer
optimum costs 1, so its gap is 1/delta -- unbounded as delta shrinks.
Adding the residual-demand cuts lifts the relaxation to 1, and the
strict solver recovers the exact optimum at every delta.

Usage: python scripts/gap_sweep.py [--deltas 1/2,1/10,1/100,1/1000]
"""

import argparse
from fractions import Fraction

from coverpack import brute_force_opt, knapsack_gap
from coverpack.kc import solve_cip_strict, solve_lp_kc
from coverpack.rounding import solve_relaxation


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--deltas", default="1/2,1/10,1/100,1/1000")
    args = parser.parse_args()
    deltas = [Fraction(d) for d in args.deltas.split(",")]

    header = f"{'delta':>8} {'fopt':>10} {'opt':>5} {'gap':>8} {'kc value':>9} {'strict':>7} {'ratio':>6}"
    print(header)
    print("-" * len(header))
    for delta in deltas:
        inst = knapsack_gap(delta)
        fopt = solve_relaxation(inst).objective_value
        opt = brute_force_opt(inst).cost
        kc_value = solve_lp_kc(inst, 2).round_objectives[-1]
        _, report = solve_cip_strict(inst, 1)
        print(
            f"{str(delta):>8} {float(fopt):>10.6g} {float(opt):>5g} "
            f"{float(opt / fopt):>8g} {float(kc_value):>9g} "
            f"{float(report.cost):>7g} {float(report.cost / opt):>6.3f}"
        )


if __name__ == "__main__":
    main()
