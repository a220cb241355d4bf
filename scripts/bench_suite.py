#!/usr/bin/env python3
"""Benchmark sweep across all instance families.

Tabulates, per instance and slack level: relaxation value, cut-
strengthened value, exact optimum (when enumeration fits the budget),
bicriteria cost with worst packing excess, strict cost, and the
granularity/scale parameters actually used.

Usage: python scripts/bench_suite.py [--count 5] [--seed 0] [--jsonl]
"""

import argparse
from fractions import Fraction

from coverpack import GeneratorSpec, run_bench


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=5, help="instances per family")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epsilons", default="1/4,1")
    parser.add_argument("--jsonl", action="store_true", help="machine-readable output")
    args = parser.parse_args()

    specs = [
        GeneratorSpec("KNAPSACK_GAP", delta=Fraction(1, 10 **k))
        for k in range(1, 4)
    ]
    for k in range(args.count):
        specs.append(
            GeneratorSpec("SET_COVER", m=4 + k % 3, n=5 + k % 4,
                          density=0.4, seed=args.seed + k)
        )
        specs.append(
            GeneratorSpec("MULTISET_MULTICOVER", m=3 + k % 3, n=4 + k % 3,
                          d_max=2, r=1, seed=args.seed + k)
        )
        specs.append(
            GeneratorSpec("RANDOM_CPIP", m=3 + k % 4, n=4 + k % 4, r=2,
                          seed=args.seed + k)
        )

    epsilons = [Fraction(e) for e in args.epsilons.split(",")]
    result = run_bench(specs, epsilons)
    print(result.to_jsonl() if args.jsonl else result.to_text())


if __name__ == "__main__":
    main()
