"""Shared helpers: instance builders, an independent exact LP oracle and the cut audit."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from coverpack import kc
from coverpack.model import CpipInstance
from coverpack.oracle import brute_force_opt
from coverpack.simplex import GE, LE

F = Fraction


def make_inst(A, a, c, d, B=(), b=()):
    return CpipInstance.from_data(A=A, a=a, c=c, d=d, B=B, b=b)


def kc_defects(inst):
    """Each way a residual system of ``inst`` breaks knapsack-cover validity, by the oracle.

    For each set F of the variables with a positive finite bound, and each
    row i ``(S, D)`` of ``kc.kc_system(inst, F)``: a coefficient above the
    residual demand is ``("truncation", F, i, j)``, and a point that meets
    the covering rows and the bounds but not the row is ``("cut-off", F, i,
    x)``, x being ``brute_force_opt`` of the covering-only instance with the
    row as its costs.  Pinning a zero bound changes no residual demand, so
    those sets are not swept.  A box the oracle refuses fails the test.
    """
    finite = [j for j in range(inst.n) if inst.d[j]]  # finite and positive
    defects = []
    for mask in range(2 ** len(finite)):
        pins = frozenset(finite[k] for k in range(len(finite)) if mask >> k & 1)
        for i, (S, _) in enumerate(kc.kc_system(inst, pins).rows):
            defects += [("truncation", pins, i, j) for j in range(inst.n) if S[j] > S[-1]]
            res = brute_force_opt(make_inst(A=inst.A, a=inst.a, c=S[:-1], d=inst.d))
            if res.status == "BUDGET_EXCEEDED":
                pytest.fail(f"the oracle refused a box of {res.space_size} points")
            if res.status == "OPTIMAL" and res.cost < S[-1]:
                defects.append(("cut-off", pins, i, res.x.values))
    return defects


def lp_rows(problem):
    """Each row of an ``LpProblem`` as ``(coeffs, sense, rhs)``, read from its integer rows."""
    n = len(problem.objective)
    return [
        (tuple(F(v, D) for v in S[:n]), row.sense, F(S[n], D))
        for row, (S, D) in zip(problem.rows, problem.int_rows)
    ]


def gauss_solve(M, rhs):
    """Exact Gaussian elimination; None if the system is singular."""
    n = len(M)
    aug = [[F(v) for v in row] + [F(rhs[i])] for i, row in enumerate(M)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = F(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [vr - f * vc for vr, vc in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def vertex_enum_optimum(problem):
    """Minimum objective over all basic feasible points, by brute force.

    Completely independent of the simplex implementation: every choice of
    n constraints (rows, bounds, nonnegativity) is made tight and solved
    exactly; feasible solutions compete on objective value.  Returns None
    when no vertex is feasible.
    """
    n = len(problem.objective)
    cons = []
    for coeffs, sense, rhs in lp_rows(problem):
        cons.append((list(coeffs), rhs, sense))
    for j, u in enumerate(problem.var_bounds):
        if u is not None:
            e = [F(0)] * n
            e[j] = F(1)
            cons.append((e, u, LE))
    for j in range(n):
        e = [F(0)] * n
        e[j] = F(1)
        cons.append((e, F(0), GE))
    best = None
    for tight in itertools.combinations(range(len(cons)), n):
        M = [cons[t][0] for t in tight]
        rhs = [cons[t][1] for t in tight]
        x = gauss_solve(M, rhs)
        if x is None:
            continue
        ok = all(v >= 0 for v in x)
        if ok:
            for coeffs, r, sense in cons:
                lhs = sum(cv * xv for cv, xv in zip(coeffs, x))
                if (sense == GE and lhs < r) or (sense == LE and lhs > r):
                    ok = False
                    break
        if ok:
            val = sum(cv * xv for cv, xv in zip(problem.objective, x))
            if best is None or val < best:
                best = val
    return best
