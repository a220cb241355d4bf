"""Instance generators and a benchmark harness for the solver suite.

Families:

* ``KNAPSACK_GAP`` -- the two-variable minimum-knapsack family whose
  plain relaxation has integrality gap 1/delta while the cut-strengthened
  relaxation closes it entirely.
* ``SET_COVER`` -- 0/1 incidence rows with unit demands and one copy per
  set.
* ``MULTISET_MULTICOVER`` -- integer coefficients and demands with finite
  multiplicities.
* ``RANDOM_CPIP`` -- general covering/packing instances, feasible by
  construction: demands are drawn at or below the row value of x = d/2,
  never above any single coefficient, so emitted instances are already
  width-normalized and the relaxation always solves.

All generation is driven by one seeded ``random.Random``; the same spec
and seed reproduce the same instance bit for bit.  Sizes and seeds are read
by ``as_int``; a density by ``as_epsilon``, then compared with each draw as a float.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from coverpack.model import (
    CpipInstance, InstanceError, as_epsilon, as_fraction, as_int, as_sequence, dot,
    normalize_width, report_dict,
)
from coverpack.oracle import brute_force_opt
from coverpack.rounding import solve_cpip_bicriteria
from coverpack.kc import solve_cip_strict

FAMILIES = ("SET_COVER", "MULTISET_MULTICOVER", "KNAPSACK_GAP", "RANDOM_CPIP")

#: the harness asks the oracle only for search spaces up to this size
ORACLE_MAX_POINTS = 200_000


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate: family, sizes, density, multiplicity cap, seed."""

    family: str
    m: int = 4
    n: int = 5
    r: int = 0
    density: float = 0.5
    d_max: int = 3
    seed: int = 0
    delta: Fraction | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InstanceError(f"unknown family {self.family!r}")
        as_epsilon(self.density, "density")


def knapsack_gap(delta) -> CpipInstance:
    """min x2 s.t. (1-delta) x1 + x2 >= 1, x1 <= 1, x2 unbounded.

    The relaxation optimum is delta (at x = (1, delta)) while the integer
    optimum is 1, so the plain integrality gap is 1/delta.
    """
    delta = as_fraction(delta, "delta")
    if not (0 < delta < 1):
        raise InstanceError(f"delta {delta} outside (0, 1)")
    return CpipInstance.from_data(
        A=[[1 - delta, 1]], a=[1], c=[0, 1], d=[1, None]
    )


def gen_set_cover(num_elements: int, num_sets: int, density: float, seed: int) -> CpipInstance:
    """0/1 set-cover instance; every element is guaranteed a covering set."""
    num_elements = as_int(num_elements, "num_elements", 1)
    num_sets, density = as_int(num_sets, "num_sets", 1), float(as_epsilon(density, "density"))
    rng = random.Random(as_int(seed, "seed"))
    A = []
    for _ in range(num_elements):
        row = [1 if rng.random() < density else 0 for _ in range(num_sets)]
        if not any(row):
            row[rng.randrange(num_sets)] = 1
        A.append(row)
    c = [rng.randint(1, 10) for _ in range(num_sets)]
    return CpipInstance.from_data(
        A=A, a=[1] * num_elements, c=c, d=[1] * num_sets
    )


def gen_multiset_multicover(
    m: int,
    n: int,
    seed: int,
    *,
    coeff_max: int = 3,
    d_max: int = 2,
    density: float = 0.7,
    r: int = 0,
) -> CpipInstance:
    """Integer multicover rows with finite multiplicities, feasible at x = d.

    Demands are capped at the row's total supply, so x = d is always an
    integer solution; max_j d_j equals d_max exactly.
    """
    m, n, r = as_int(m, "m", 1), as_int(n, "n", 1), as_int(r, "r", 0)
    coeff_max, d_max = as_int(coeff_max, "coeff_max", 1), as_int(d_max, "d_max", 1)
    density, rng = float(as_epsilon(density, "density")), random.Random(as_int(seed, "seed"))
    d = [rng.randint(1, d_max) for _ in range(n)]
    d[rng.randrange(n)] = d_max
    A = []
    a = []
    for _ in range(m):
        row = [rng.randint(1, coeff_max) if rng.random() < density else 0 for _ in range(n)]
        if not any(row):
            row[rng.randrange(n)] = rng.randint(1, coeff_max)
        supply = sum(row[j] * d[j] for j in range(n))
        a.append(rng.randint(1, supply))
        A.append(row)
    c = [rng.randint(1, 10) for _ in range(n)]
    B, b = [], []
    for _ in range(r):
        row = [rng.randint(0, 2) for _ in range(n)]
        load = sum(row[j] * d[j] for j in range(n))
        b.append(Fraction(load) * Fraction(rng.randint(10, 14), 10))
        B.append(row)
    inst = CpipInstance.from_data(A=A, a=a, c=c, d=d, B=B, b=b)
    return normalize_width(inst)


def gen_random_cpip(
    m: int,
    n: int,
    r: int,
    seed: int,
    *,
    d_max: int = 4,
    density: float = 0.6,
) -> CpipInstance:
    """General covering/packing instance, fractionally feasible at x = d/2.

    Multiplicities start at 2 so x = d/2 >= 1 dominates every single
    coefficient, which lets each demand sit between the row maximum and
    the row value at d/2: the instance comes out width-normalized and the
    relaxation is feasible by construction.
    """
    m, n, r = as_int(m, "m", 1), as_int(n, "n", 1), as_int(r, "r", 0)
    d_max, density = as_int(d_max, "d_max", 2), float(as_epsilon(density, "density"))
    rng = random.Random(as_int(seed, "seed"))
    d = [rng.randint(2, d_max) for _ in range(n)]
    x0 = [Fraction(v, 2) for v in d]
    A = []
    a = []
    for _ in range(m):
        row = [rng.randint(1, 5) if rng.random() < density else 0 for _ in range(n)]
        if not any(row):
            row[rng.randrange(n)] = rng.randint(1, 5)
        value = dot(row, x0)
        peak = Fraction(max(row))
        # demand between the largest coefficient and the value at x0
        theta = Fraction(rng.randint(0, 10), 10)
        a.append(peak + theta * (value - peak))
        A.append(row)
    c = [rng.randint(0 if rng.random() < 0.1 else 1, 10) for _ in range(n)]
    B, b = [], []
    for _ in range(r):
        row = [rng.randint(0, 3) if rng.random() < density else 0 for _ in range(n)]
        b.append(dot(row, x0) * Fraction(rng.randint(10, 16), 10))
        B.append(row)
    return CpipInstance.from_data(A=A, a=a, c=c, d=d, B=B, b=b)


def generate(spec: GeneratorSpec) -> CpipInstance:
    if spec.family == "KNAPSACK_GAP":
        return knapsack_gap(spec.delta)
    if spec.family == "SET_COVER":
        return gen_set_cover(spec.m, spec.n, spec.density, spec.seed)
    if spec.family == "MULTISET_MULTICOVER":
        return gen_multiset_multicover(
            spec.m,
            spec.n,
            spec.seed,
            coeff_max=5,  # the bench fingerprint fixes 5, not the default 3
            d_max=spec.d_max,
            density=spec.density,
            r=spec.r,
        )
    return gen_random_cpip(
        spec.m, spec.n, spec.r, spec.seed, d_max=spec.d_max, density=spec.density
    )


@dataclass
class BenchRow:
    instance_id: str
    family: str
    m: int
    n: int
    r: int
    epsilon: Fraction
    fopt: Fraction | None = None
    fopt_kc: Fraction | None = None
    opt: Fraction | None = None
    bicriteria_cost: Fraction | None = None
    bicriteria_ratio_fopt: float | None = None
    max_pack_excess: Fraction | None = None
    strict_cost: Fraction | None = None
    strict_ratio_opt: float | None = None
    K: int | None = None
    L: Fraction | None = None
    time_ms: float | None = None
    error: str | None = None


@dataclass
class BenchResult:
    rows: list[BenchRow] = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)

    def to_jsonl(self) -> str:
        lines = [json.dumps(report_dict(row)) for row in self.rows]
        if self.aggregates:
            lines.append(json.dumps({"aggregates": self.aggregates}))
        return "\n".join(lines)

    def to_text(self) -> str:
        headers = [
            "id", "eps", "fopt", "fopt_kc", "opt",
            "bic_cost", "bic/fopt", "strict", "strict/opt", "K", "time_ms",
        ]
        table = [headers]
        for row in self.rows:
            if row.error:
                table.append([row.instance_id, str(row.epsilon), "ERROR: " + row.error])
                continue
            table.append([
                row.instance_id,
                str(row.epsilon),
                _short(row.fopt),
                _short(row.fopt_kc),
                _short(row.opt),
                _short(row.bicriteria_cost),
                f"{row.bicriteria_ratio_fopt:.3f}" if row.bicriteria_ratio_fopt is not None else "-",
                _short(row.strict_cost),
                f"{row.strict_ratio_opt:.3f}" if row.strict_ratio_opt is not None else "-",
                str(row.K) if row.K is not None else "-",
                f"{row.time_ms:.1f}" if row.time_ms is not None else "-",
            ])
        # an error row's one long cell widens no column
        full = [r for r in table if len(r) == len(headers)]
        widths = [max(len(r[i]) for r in full) for i in range(len(headers))]
        out = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)) for r in table]
        if self.aggregates:
            out.append("")
            for k, v in self.aggregates.items():
                out.append(f"{k}: {v}")
        return "\n".join(out)


def _short(v) -> str:
    if v is None:
        return "-"
    f = float(v)
    return f"{f:.6g}"


def run_bench(specs, epsilons, *, include_timing: bool = True) -> BenchResult:
    """Run every solver stage on every (instance, epsilon) pair.

    Per row: relaxation value, cut-strengthened value, exact optimum when
    the oracle budget allows, bicriteria cost and worst packing excess,
    strict cost, the granularity and scale parameters, and wall time.
    Individual failures are recorded and the harness keeps going.  With
    ``include_timing=False`` the output is bit-identical across runs for
    a fixed seed.  Every epsilon and spec is read before any instance is
    generated: an epsilon outside (0, 1], a spec that is not a
    ``GeneratorSpec``, or a non-sequence ``specs`` or ``epsilons`` is ``InstanceError``.
    """
    epsilons = [as_epsilon(eps) for eps in as_sequence(epsilons, "epsilons")]
    specs = as_sequence(specs, "specs")
    for k, spec in enumerate(specs):
        if not isinstance(spec, GeneratorSpec):
            raise InstanceError(f"specs[{k}] is not a GeneratorSpec")
    result = BenchResult()
    ratios_fopt: list[float] = []
    ratios_opt: list[float] = []
    for idx, spec in enumerate(specs):
        inst_id = f"{spec.family.lower()}-{idx}"
        for eps in epsilons:
            row = BenchRow(
                instance_id=inst_id,
                family=spec.family,
                m=spec.m,
                n=spec.n,
                r=spec.r,
                epsilon=eps,
            )
            try:
                inst = normalize_width(generate(spec))
                row.m, row.n, row.r = inst.m, inst.n, inst.r
                t0 = perf_counter()
                xb, rep_b = solve_cpip_bicriteria(inst, eps)
                row.fopt = rep_b.fopt
                row.bicriteria_cost = rep_b.cost
                row.bicriteria_ratio_fopt = rep_b.ratio_cost_fopt
                row.K = rep_b.K
                row.L = rep_b.L
                beta = inst.beta()
                excesses = [
                    dot(inst.B[i], xb) - ((1 + eps) * inst.b[i] + beta[i])
                    for i in range(inst.r)
                ]
                row.max_pack_excess = max(excesses, default=None)
                xs, rep_s = solve_cip_strict(inst, eps)
                row.strict_cost = rep_s.cost
                row.fopt_kc = rep_s.fopt_kc
                oracle = brute_force_opt(inst, max_points=ORACLE_MAX_POINTS)
                if oracle.status == "OPTIMAL":
                    row.opt = oracle.cost
                    if oracle.cost > 0:
                        row.strict_ratio_opt = float(rep_s.cost / oracle.cost)
                        ratios_opt.append(row.strict_ratio_opt)
                if include_timing:
                    row.time_ms = (perf_counter() - t0) * 1000.0
                if row.bicriteria_ratio_fopt is not None:
                    ratios_fopt.append(row.bicriteria_ratio_fopt)
            except Exception as exc:  # record and continue
                row.error = f"{type(exc).__name__}: {exc}"
            result.rows.append(row)
    if ratios_fopt:
        result.aggregates["bicriteria_vs_fopt_mean"] = round(
            sum(ratios_fopt) / len(ratios_fopt), 6
        )
        result.aggregates["bicriteria_vs_fopt_max"] = round(max(ratios_fopt), 6)
    if ratios_opt:
        result.aggregates["strict_vs_opt_mean"] = round(sum(ratios_opt) / len(ratios_opt), 6)
        result.aggregates["strict_vs_opt_max"] = round(max(ratios_opt), 6)
    return result
