"""Ground-truth engines: the brute-force integer optimum and the solution checker.

These exist to verify every guarantee the solvers claim, so they stay
independent of the solver code paths: this module imports only
``coverpack.model`` and works by plain enumeration on each instance's
integer rows (``CpipInstance.int_rows``), exact because every row is
scaled by the lcm of its denominators, with no LP bounding and no shared
rounding machinery.  The enumeration skips variables capped at 0, values
too small for the later variables to still meet every covering row, and
subtrees that a per-row cost bound shows cannot beat the incumbent (the
bound step of branch and bound: Land & Doig, *Econometrica* 28, 1960),
and decides the last variable in closed form: its least covering value is
the only one that can beat the incumbent.  None of these changes the
answer.  Usable only at desk scale, which is the point.
``brute_force_opt`` is the one enumeration of the box; the test suite's
knapsack-cover audit runs it with each residual row as the costs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from operator import add, floordiv, ge, gt, mul, sub
from typing import Sequence

from coverpack.model import (
    ZERO,
    CpipInstance,
    IntegerVector,
    ViolationReport,
    as_epsilon,
    as_int,
    as_sequence,
    as_vector,
    integers,
    nonnegative,
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

    Odometer-style depth-first enumeration (last coordinate fastest) over
    the variables with a positive cap (the rest stay 0).  A variable's
    values start at the least one at which the later variables at their
    caps can still fill every covering row.  A packing row already
    exceeded, or a cost prefix that cannot beat the incumbent, kills the
    subtree, and so does the cost bound: a covering row short by delta
    costs the later variables at least delta times their least ratio
    c_j / S_ij over S_ij > 0, and when that closes the gap to the
    incumbent, nothing below is cheaper.  The last variable is decided
    without a value loop: no later variable is left, so its start value
    fills every covering row, and each larger value costs c_j >= 0 more and
    packs B_ij >= 0 more per unit.  The search records that one value if it
    fits every packing row and costs strictly less than the incumbent (or
    there is none yet), and tries no other.  So every point skipped covers
    nothing or costs at least the incumbent, and ties in cost keep the
    lexicographically smallest vector: enumeration order is ascending
    lexicographic, the incumbent is only replaced on strict improvement,
    and a skipped point of the incumbent's cost comes after it (a larger
    last value comes after the start value of the same prefix).  A box
    with no variable to raise is the point x = 0, optimal when it meets
    every covering row.  Rows, demands, capacities and costs are integers
    (``inst.int_rows`` and the costs over their common denominator), so
    every tally is an int.  A box with more such variables than the
    recursion limit leaves room for is ``BUDGET_EXCEEDED`` too.
    """
    max_points = as_int(max_points, "max_points")
    u = effective_bounds(inst)
    space = 1
    for cap in u:
        space *= cap + 1
    free = [j for j in range(inst.n) if u[j]]
    # one recursion level per variable in ``free``, with a margin for the
    # frames between the levels
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    if space > max_points or depth + len(free) + 50 > sys.getrecursionlimit():
        return BruteForceResult("BUDGET_EXCEEDED", None, None, space, u)

    m = inst.m
    caps = [u[j] for j in free]
    cover_rows, pack_rows = inst.int_rows[:m], inst.int_rows[m:]
    need = [S[-1] for S, _ in cover_rows]
    room = [S[-1] for S, _ in pack_rows]
    acols = [[S[j] for S, _ in cover_rows] for j in free]
    bcols = [[S[j] for S, _ in pack_rows] for j in free]
    # reach[k][i]: the most that variables k, k+1, ... at their caps add to row i
    reach = [[0] * m]
    for col, cap in zip(reversed(acols), reversed(caps)):
        reach.append([r + cap * v for r, v in zip(reach[-1], col)])
    reach.reverse()
    costs, cost_den = integers(inst.c)
    costs = [costs[j] for j in free]
    # ratios[k] = (C, S): C[i] / S[i] is the least cost per unit of row i
    # among variables k, k+1, ...; (0, 1) where none of them covers row i
    ratios = [([0] * m, [1] * m)]
    for k in reversed(range(len(free))):
        C, S = map(list, ratios[-1])
        for i, s in enumerate(acols[k]):
            if s and (not reach[k + 1][i] or costs[k] * S[i] < C[i] * s):
                C[i], S[i] = costs[k], s
        ratios.append((C, S))
    ratios.reverse()
    # spare[k][i]: how far variables k, k+1, ... at their caps overshoot row i
    spare = [list(map(sub, r, need)) for r in reach]
    # a zero in a column divides as 1: that row's slack below is never
    # negative, so it never raises the start value
    divisors = [[s or 1 for s in col] for col in acols]
    best_cost: int | None = None
    best_x: tuple[int, ...] | None = None
    x = [0] * inst.n
    cover = [0] * m
    pack = [0] * len(room)
    last = len(free) - 1

    def descend(k: int, cost: int) -> None:
        # every covering row can still be filled by variables k, k+1, ...
        nonlocal best_cost, best_x
        j, acol, bcol, cj = free[k], acols[k], bcols[k], costs[k]
        # the least v at which the later variables can still fill every row
        slack = map(add, cover, spare[k + 1])
        low = max(0, -min(map(floordiv, slack, divisors[k]), default=0))
        if k == last:
            # no later variable: low fills every covering row, and a larger v
            # costs and packs no less, so only x_j = low can beat the incumbent
            cost += cj * low
            if (best_cost is None or cost < best_cost) and not any(
                map(gt, map(add, pack, map(low.__mul__, bcol)), room)
            ):
                best_cost, best_x = cost, (*x[:j], low, *x[j + 1 :])
            return
        C, S = ratios[k + 1]
        if low:
            x[j] = low
            cover[:] = map(add, cover, map(low.__mul__, acol))
            pack[:] = map(add, pack, map(low.__mul__, bcol))
        for v in range(low, caps[k] + 1):
            if v > low:
                x[j] = v
                cover[:] = map(add, cover, acol)
                pack[:] = map(add, pack, bcol)
            if any(map(gt, pack, room)):
                break  # larger v only packs more
            if best_cost is not None:
                gap = best_cost - cost - cj * v
                if gap <= 0:
                    break  # costs are nonnegative; nothing cheaper down here
                if any(map(ge, map(mul, map(sub, need, cover), C), map(gap.__mul__, S))):
                    continue  # filling some row costs the later variables at least gap
            descend(k + 1, cost + cj * v)
        v = x[j]
        if v:
            cover[:] = map(sub, cover, map(v.__mul__, acol))
            pack[:] = map(sub, pack, map(v.__mul__, bcol))
            x[j] = 0

    if not any(map(gt, need, reach[0])):
        if free:
            descend(0, 0)
        else:  # every cap is 0 and every demand is met: x = 0
            best_cost, best_x = 0, tuple(x)
    del descend  # it holds itself in its closure: free the search's lists now
    if best_x is None:
        return BruteForceResult("INFEASIBLE", None, None, space, u)
    return BruteForceResult(
        "OPTIMAL", IntegerVector(best_x), Fraction(best_cost, cost_den), space, u
    )


def check_solution(
    inst: CpipInstance, x: IntegerVector | Sequence, epsilon
) -> ViolationReport:
    """Exact violation report for a nonnegative candidate x at slack level epsilon.

    The row sums run in integers: each row over its least common
    denominator ``D_i`` (``inst.int_rows``) and x over one denominator, so
    every ``A_i x`` and ``B_i x`` is an integer dot product.  beta_i is the
    sum of the scaled row over ``D_i``; an ``IntegerVector`` x is read as
    the ints it holds, any other x by ``as_vector``.  Each multiplicity
    bound x_j <= d_j is tested in integers too, and ceil((1+eps) d_j) is
    built only where x_j exceeds d_j: below d_j the relaxed bound holds as
    well.  Each amount is the exact rational.
    """
    eps = as_epsilon(epsilon)
    if isinstance(x, IntegerVector):  # nonnegative ints, checked when it was built
        xv = as_sequence(x, "x", inst.n)
        X, Dx = list(xv), 1
    else:
        xv = nonnegative(as_vector(x, "x", inst.n), "x")
        X, Dx = integers(xv)
    n, m = inst.n, inst.m
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
    # x_j <= d_j in integers; ceil((1+eps) d_j) >= d_j, so only a coordinate
    # above d_j can exceed the relaxed bound
    mult_strict = []
    mult_relaxed = []
    lam = 1 + eps
    for j, (v, u) in enumerate(zip(X, inst.d)):
        if u is None or v * u.denominator <= u.numerator * Dx:
            continue
        mult_strict.append((j, xv[j] - u))
        relaxed = ceil(lam * u)
        if v > relaxed * Dx:
            mult_relaxed.append((j, xv[j] - relaxed))
    return ViolationReport(
        covering=tuple(covering),
        packing_relaxed=tuple(packing),
        multiplicity_strict=tuple(mult_strict),
        multiplicity_relaxed=tuple(mult_relaxed),
    )
