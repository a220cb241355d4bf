"""Ground-truth engines: brute-force integer optimum and exhaustive checkers.

These exist to verify every guarantee the solvers claim, so they stay
deliberately independent of the solver code paths: plain enumeration over
exact rationals, no LP bounding, no shared rounding machinery.  Usable
only at desk scale, which is the point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction
from math import ceil, floor
from typing import Sequence

from coverpack.model import ZERO, CpipInstance, InstanceError, IntegerVector, dot, number_out


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


@dataclass(frozen=True)
class ViolationReport:
    """Per-family constraint violations of a candidate integer solution.

    Multiplicity is reported against both contracts: the strict bound
    x <= d and the relaxed bound x <= ceil((1+eps) d).  Packing is checked
    against the slackened bound (1+eps) b + beta, where beta holds the row
    sums of B.
    """

    covering: tuple[tuple[int, Fraction], ...]
    packing_relaxed: tuple[tuple[int, Fraction], ...]
    multiplicity_strict: tuple[tuple[int, Fraction], ...]
    multiplicity_relaxed: tuple[tuple[int, Fraction], ...]

    @property
    def ok_bicriteria(self) -> bool:
        return not (self.covering or self.packing_relaxed or self.multiplicity_relaxed)

    @property
    def ok_strict(self) -> bool:
        return not (self.covering or self.packing_relaxed or self.multiplicity_strict)

    def to_dict(self) -> dict:
        def fam(items):
            return [[i, number_out(v)] for i, v in items]

        return {
            "covering": fam(self.covering),
            "packing_relaxed": fam(self.packing_relaxed),
            "multiplicity_strict": fam(self.multiplicity_strict),
            "multiplicity_relaxed": fam(self.multiplicity_relaxed),
        }


def check_solution(
    inst: CpipInstance, x: IntegerVector | Sequence, epsilon: Fraction
) -> ViolationReport:
    """Exact violation report for a nonnegative candidate x at slack level epsilon."""
    xv = x.as_fractions() if isinstance(x, IntegerVector) else tuple(Fraction(v) for v in x)
    if len(xv) != inst.n:
        raise InstanceError(f"x has {len(xv)} entries, expected {inst.n}")
    for j, v in enumerate(xv):
        if v < 0:
            raise InstanceError(f"x[{j}] = {v} is negative")
    covering = []
    for i in range(inst.m):
        lhs = dot(inst.A[i], xv)
        if lhs < inst.a[i]:
            covering.append((i, inst.a[i] - lhs))
    packing = []
    beta = inst.beta()
    for i in range(inst.r):
        lhs = dot(inst.B[i], xv)
        bound = (1 + epsilon) * inst.b[i] + beta[i]
        if lhs > bound:
            packing.append((i, lhs - bound))
    mult_strict = []
    mult_relaxed = []
    for j in range(inst.n):
        if inst.d[j] is None:
            continue
        if xv[j] > inst.d[j]:
            mult_strict.append((j, xv[j] - inst.d[j]))
        relaxed = ceil((1 + epsilon) * inst.d[j])
        if xv[j] > relaxed:
            mult_relaxed.append((j, xv[j] - relaxed))
    return ViolationReport(
        covering=tuple(covering),
        packing_relaxed=tuple(packing),
        multiplicity_strict=tuple(mult_strict),
        multiplicity_relaxed=tuple(mult_relaxed),
    )


@dataclass(frozen=True)
class KcValidityReport:
    status: str  # OK | COUNTEREXAMPLE | BUDGET_EXCEEDED
    counterexamples: tuple[tuple[frozenset, int, tuple[int, ...], Fraction], ...]
    structural_defects: tuple[tuple[frozenset, int, int, Fraction], ...]
    checked_sets: int
    checked_points: int


def validate_kc_system(
    inst: CpipInstance,
    F: frozenset,
    A_F,
    a_F,
    feasible_points: Sequence[tuple[int, ...]],
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
    for y in feasible_points:
        for i in range(len(a_F)):
            lhs = dot(A_F[i], y)
            if lhs < a_F[i]:
                counterexamples.append((F, i, y, a_F[i] - lhs))
    return counterexamples, structural


def _feasible_points(inst: CpipInstance, caps: tuple[int, ...]) -> list[tuple[int, ...]]:
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


def check_kc_validity(inst: CpipInstance, *, max_points: int = 2_000_000) -> KcValidityReport:
    """Exhaustively verify residual covering rows against all feasible points.

    For every pinnable subset F of the finite-bound variables, builds the
    residual system and checks that each feasible integer point (with
    respect to covering and multiplicity) satisfies it, and that no
    coefficient exceeds its residual demand.  Pins sit at integral
    bounds, so a fractional d is refused (``normalize_width`` floors it).
    """
    from coverpack import kc  # runtime import; kc depends on this module

    finite = [j for j in range(inst.n) if inst.d[j] is not None]
    caps = effective_bounds(inst)
    space = 1
    for cap in caps:
        space *= cap + 1
    work = (2 ** len(finite)) * space
    if work > max_points:
        return KcValidityReport("BUDGET_EXCEEDED", (), (), 0, space)

    points = _feasible_points(inst, caps)
    counterexamples: list = []
    structural: list = []
    checked = 0
    for mask in range(2 ** len(finite)):
        F = frozenset(finite[k] for k in range(len(finite)) if mask >> k & 1)
        system = kc.kc_system(inst, F)
        bad, defects = validate_kc_system(inst, F, system.A_F, system.a_F, points)
        counterexamples.extend(bad)
        structural.extend(defects)
        checked += 1
    status = "OK" if not (counterexamples or structural) else "COUNTEREXAMPLE"
    return KcValidityReport(
        status, tuple(counterexamples), tuple(structural), checked, len(points)
    )


@dataclass
class SolveReport:
    """Everything a run learned: cost, lower bounds, ratios, checks, config echo."""

    mode: str
    cost: Fraction | None = None
    fopt: Fraction | None = None
    fopt_kc: Fraction | None = None
    opt: Fraction | None = None
    ratio_cost_fopt: float | None = None
    epsilon: Fraction | None = None
    lam: Fraction | None = None
    K: int | None = None
    L: Fraction | None = None
    seed: int | None = None
    rng: str | None = None
    x: tuple[int, ...] | None = None
    violations: ViolationReport | None = None
    guarantees_ok: bool | None = None
    certificate_ok: bool | None = None
    pinned: tuple[int, ...] | None = None
    pin_sets_seen: tuple[tuple[int, ...], ...] | None = None
    cut_rows_added: int | None = None
    lp_rounds: int | None = None
    oracle_bounds: tuple[int, ...] | None = None
    oracle_space: int | None = None
    status: str = "OPTIMAL"
    elapsed_s: float | None = None

    def to_dict(self) -> dict:
        def conv(v):
            if isinstance(v, tuple):
                return [conv(item) for item in v]
            return number_out(v)

        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None:
                continue
            if f.name == "L":
                v = float(v)
            elif isinstance(v, ViolationReport):
                v = v.to_dict()
            else:
                v = conv(v)
            out[f.name] = v
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict())
