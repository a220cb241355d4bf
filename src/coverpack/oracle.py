"""Ground-truth engines: brute-force integer optimum and exhaustive checkers.

These exist to verify every guarantee the solvers claim, so they stay
independent of the solver code paths: this module imports only
``coverpack.model`` and works by plain enumeration over exact rationals,
with no LP bounding and no shared rounding machinery.  Usable only at
desk scale, which is the point.  ``kc.check_kc_validity`` sweeps the pin
sets with ``feasible_points`` and ``validate_kc_system``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from operator import mul
from typing import Sequence

from coverpack.model import (
    ZERO,
    CpipInstance,
    InstanceError,
    IntegerVector,
    ViolationReport,
    as_fraction,
    dot,
    integers,
)


def effective_bounds(inst: CpipInstance) -> tuple[int, ...]:
    """Per-variable enumeration caps.

    A finite multiplicity bound caps at floor(d_j).  An unbounded variable
    is capped at ceil(max_i a_i / min positive A_ij): at that many copies
    the variable alone meets every covering row it touches, so larger
    values never help and never hurt optimality.
    """
    amax = max(inst.a, default=ZERO)
    caps = []
    for j in range(inst.n):
        if inst.d[j] is not None:
            caps.append(floor(inst.d[j]))
            continue
        col = [inst.A[i][j] for i in range(inst.m) if inst.A[i][j] > 0]
        if not col or amax == 0:
            caps.append(0)
        else:
            caps.append(ceil(amax / min(col)))
    return tuple(caps)


@dataclass(frozen=True)
class BruteForceResult:
    status: str  # OPTIMAL | INFEASIBLE | BUDGET_EXCEEDED
    x: IntegerVector | None
    cost: Fraction | None
    space_size: int
    bounds: tuple[int, ...]


def brute_force_opt(inst: CpipInstance, *, max_points: int = 2_000_000) -> BruteForceResult:
    """Exhaustive integer optimum over the capped box, if it has at most ``max_points``.

    Odometer-style depth-first enumeration (last coordinate fastest) with
    early pruning: a packing row already exceeded, or a cost prefix that
    cannot beat the incumbent, kills the subtree.  Ties in cost keep the
    lexicographically smallest vector -- enumeration order is ascending
    lexicographic and the incumbent is only replaced on strict improvement.
    """
    u = effective_bounds(inst)
    space = 1
    for cap in u:
        space *= cap + 1
    if space > max_points:
        return BruteForceResult("BUDGET_EXCEEDED", None, None, space, u)

    n, m, r = inst.n, inst.m, inst.r
    best_cost: Fraction | None = None
    best_x: tuple[int, ...] | None = None
    x = [0] * n
    cover = [ZERO] * m
    pack = [ZERO] * r

    def descend(j: int, cost: Fraction) -> None:
        nonlocal best_cost, best_x
        if best_cost is not None and cost >= best_cost:
            return
        if j == n:
            if all(cover[i] >= inst.a[i] for i in range(m)):
                best_cost = cost
                best_x = tuple(x)
            return
        acol = [inst.A[i][j] for i in range(m)]
        bcol = [inst.B[i][j] for i in range(r)]
        for v in range(u[j] + 1):
            if v > 0:
                x[j] = v
                for i in range(m):
                    cover[i] += acol[i]
                for i in range(r):
                    pack[i] += bcol[i]
            if any(pack[i] > inst.b[i] for i in range(r)):
                break  # larger v only packs more
            if best_cost is not None and cost + inst.c[j] * v >= best_cost:
                break  # costs are nonnegative; nothing cheaper down here
            descend(j + 1, cost + inst.c[j] * v)
        for i in range(m):
            cover[i] -= acol[i] * x[j]
        for i in range(r):
            pack[i] -= bcol[i] * x[j]
        x[j] = 0

    descend(0, ZERO)
    if best_x is None:
        return BruteForceResult("INFEASIBLE", None, None, space, u)
    return BruteForceResult("OPTIMAL", IntegerVector(best_x), best_cost, space, u)


def check_solution(
    inst: CpipInstance, x: IntegerVector | Sequence, epsilon
) -> ViolationReport:
    """Exact violation report for a nonnegative candidate x at slack level epsilon.

    The row sums run in integers: each row over its least common
    denominator ``D_i`` (``inst.int_rows``) and x over one denominator, so
    every ``A_i x`` and ``B_i x`` is an integer dot product.  beta_i is the
    sum of the scaled row over ``D_i``, and each amount is the exact rational.
    """
    eps = as_fraction(epsilon, "epsilon")
    xv = tuple(Fraction(v) for v in x)
    if len(xv) != inst.n:
        raise InstanceError(f"x has {len(xv)} entries, expected {inst.n}")
    for j, v in enumerate(xv):
        if v < 0:
            raise InstanceError(f"x[{j}] = {v} is negative")
    n, m = inst.n, inst.m
    X, Dx = integers(xv)
    covering = []
    for i, (S, D) in enumerate(inst.int_rows[:m]):
        short = S[n] * Dx - sum(map(mul, S, X))  # (a_i - A_i x) * D * Dx
        if short > 0:
            covering.append((i, Fraction(short, D * Dx)))
    # B_i x - ((1 + eps) b_i + beta_i), with eps = p/q, over D * q * Dx
    p, q = eps.numerator, eps.denominator
    packing = []
    for i, (S, D) in enumerate(inst.int_rows[m:]):
        excess = q * sum(map(mul, S, X)) - ((q + p) * S[n] + q * sum(S[:n])) * Dx
        if excess > 0:
            packing.append((i, Fraction(excess, D * q * Dx)))
    mult_strict = []
    mult_relaxed = []
    for j in range(inst.n):
        if inst.d[j] is None:
            continue
        if xv[j] > inst.d[j]:
            mult_strict.append((j, xv[j] - inst.d[j]))
        relaxed = ceil((1 + eps) * inst.d[j])
        if xv[j] > relaxed:
            mult_relaxed.append((j, xv[j] - relaxed))
    return ViolationReport(
        covering=tuple(covering),
        packing_relaxed=tuple(packing),
        multiplicity_strict=tuple(mult_strict),
        multiplicity_relaxed=tuple(mult_relaxed),
    )


def validate_kc_system(
    inst: CpipInstance,
    F: frozenset,
    A_F,
    a_F,
    points: Sequence[tuple[int, ...]],
) -> tuple[list, list]:
    """Check one pinned-set system against every feasible integer point.

    Returns (counterexamples, structural_defects).  A counterexample is a
    feasible point violating a residual row.  A structural defect is a
    coefficient exceeding its row's residual demand, which would let the
    restricted system's width drop below 1.
    """
    counterexamples = []
    structural = []
    for i in range(len(a_F)):
        for j in range(inst.n):
            if A_F[i][j] > a_F[i]:
                structural.append((F, i, j, A_F[i][j] - a_F[i]))
    for y in points:
        for i in range(len(a_F)):
            lhs = dot(A_F[i], y)
            if lhs < a_F[i]:
                counterexamples.append((F, i, y, a_F[i] - lhs))
    return counterexamples, structural


def feasible_points(inst: CpipInstance, caps: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every integer point in the box 0 <= x <= caps that meets the covering rows."""
    pts = []
    x = [0] * inst.n

    def descend(j):
        if j == inst.n:
            if all(dot(inst.A[i], x) >= inst.a[i] for i in range(inst.m)):
                pts.append(tuple(x))
            return
        for v in range(caps[j] + 1):
            x[j] = v
            descend(j + 1)
        x[j] = 0

    descend(0)
    return pts
