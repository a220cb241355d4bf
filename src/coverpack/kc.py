"""Knapsack-cover cuts and the solver that meets multiplicity bounds exactly.

The solvers here take width-normalized instances, whose finite bounds
d_j are integers (``normalize_width`` floors them; integer x_j <= d_j
iff x_j <= floor(d_j)).  For a set F of variables imagined pinned at
their bounds, each covering row ``(S, D)`` of ``CpipInstance.int_rows``
(its coefficients, then its demand, as integers over D) keeps a residual
demand

    a'_F = max(0, S[n] - sum_{j in F} S[j] d_j)

and truncated coefficients min(S[j], a'_F) for j not in F (zero on F
itself), over the same D: the residual row ``(S_F, D)``.  These rows
hold for every integer point satisfying the covering and multiplicity
constraints (the test suite checks this at desk scale, with
``oracle.brute_force_opt`` taking each residual row as its costs), and
adding them can close the (arbitrarily large) integrality gap of the
plain relaxation.  Truncation keeps the width of every residual row at
least 1, which is what lets the rounding machinery run on the residual
system at full strength.

Because there are exponentially many sets F, the relaxation is solved to
lambda-relaxed form, lambda = 1 + eps, by a cutting-plane loop: solve the
current LP (``rounding.solve_relaxation`` with the cuts so far), separate
cuts for the variables at least d/lambda in the current point, add them,
repeat.
Only valid rows are ever added, so every iterate's value is a lower
bound on the cut-strengthened relaxation optimum, and there are finitely
many (F, row) pairs, so the loop terminates.  ``solve_lp_kc`` returns
the loop as a ``CutLoop``: the point, the residual system of its high
set, and each round's LP value.

``solve_cip_strict`` then pins the high variables of a (1+eps)-relaxed
point at their bounds and rounds the rest against that residual system,
giving an integer solution with x <= d exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from time import perf_counter

from coverpack.model import (
    ZERO,
    CpipInstance,
    FractionalVector,
    GuaranteeError,
    InstanceError,
    IntegerVector,
    LimitError,
    SolveReport,
    as_epsilon,
    as_int,
    as_sequence,
    as_vector,
    dot,
    integers,
    is_width_normalized,
    nonnegative,
)
from coverpack.oracle import check_solution
# solve_lp and verify_certificate are unused here; perfbench/spans.py patches them by name
from coverpack.simplex import solve_lp, verify_certificate
from coverpack.rounding import bicriteria_round, solve_relaxation

#: cut rounds one ``solve_lp_kc`` may run before it raises ``LimitError``; read at
#: call time, by ``as_int``, so a cap set to a non-int or below 1 is refused by name
MAX_ROUNDS = 1000


@dataclass(frozen=True)
class KcSystem:
    """Residual system of a pinned set F: ``rows[i]`` is covering row i as ``(S_F, D)``."""

    F: frozenset
    rows: tuple[tuple[tuple[int, ...], int], ...]


@dataclass(frozen=True)
class CutLoop:
    """A finished cut loop: its lambda-relaxed point and how it got there.

    ``system`` is the residual system of ``x``'s own high set, which
    ``x`` violates in no row.  ``round_objectives`` holds each round's LP
    value, one per round; round 1 solved the plain relaxation.
    ``pin_sets_seen`` lists the distinct high sets that yielded cuts.
    """

    x: FractionalVector
    system: KcSystem
    round_objectives: tuple[Fraction, ...]
    cut_rows_added: int
    pin_sets_seen: tuple[tuple[int, ...], ...]


def kc_system(inst: CpipInstance, F) -> KcSystem:
    """Residual system: coefficients truncated at the residual demand, zero on F.

    The pins F, a set or a sequence, must be variable indexes with finite integral bounds.
    """
    F = frozenset(F if isinstance(F, (set, frozenset)) else as_sequence(F, "F"))
    n = inst.n
    for j in F:
        if isinstance(j, bool) or not (isinstance(j, int) and 0 <= j < n):
            raise InstanceError(f"cannot pin {j!r}: the variables are 0..{n - 1}")
        if inst.d[j] is None:
            raise InstanceError(f"cannot pin variable {j}: its multiplicity is unbounded")
        if inst.d[j].denominator != 1:
            raise InstanceError(
                f"cannot pin variable {j}: its bound {inst.d[j]} is not an integer "
                "(normalize width first)"
            )
    pins = [(j, inst.d[j].numerator) for j in F]
    free = [j not in F for j in range(n)]
    rows = []
    for S, D in inst.int_rows[: inst.m]:
        demand = max(0, S[n] - sum(S[j] * dj for j, dj in pins))
        rows.append(((*(min(v, demand) if f else 0 for v, f in zip(S, free)), demand), D))
    return KcSystem(F=F, rows=tuple(rows))


def _high_set(X, Dx, d, eps) -> frozenset:
    """Variables with x_j >= d_j / (1+eps) in x = X / Dx, d_j finite: one integer test each."""
    lam = 1 + eps
    p, q = lam.numerator, lam.denominator * Dx
    return frozenset(
        j for j, (v, u) in enumerate(zip(X, d))
        if u is not None and v * p * u.denominator >= u.numerator * q
    )


def find_violated_kc(
    inst: CpipInstance, x, epsilon
) -> tuple[KcSystem, list[tuple[int, Fraction]]]:
    """The residual system of the point's own high set, and the rows it violates.

    The high set holds the variables with x_j >= d_j / (1 + eps).  Each
    violated row comes with its exact shortfall a'_F - A'_F x, one
    integer dot product with x over one denominator.  No violated rows
    means x satisfies the cut family required of a (1+eps)-relaxed
    solution.  x must have one nonnegative entry per variable.
    """
    eps = as_epsilon(epsilon)
    n = inst.n
    X, Dx = integers(nonnegative(as_vector(x, "x", n), "x"))
    system = kc_system(inst, _high_set(X, Dx, inst.d, eps))
    violated = []
    for i, (S, D) in enumerate(system.rows):
        short = S[n] * Dx - sum(map(mul, S, X))  # (a'_F - A'_F x) * D * Dx
        if short > 0:
            violated.append((i, Fraction(short, D * Dx)))
    return system, violated


def solve_lp_kc(inst: CpipInstance, epsilon) -> CutLoop:
    """(1+eps)-relaxed point for the cut-strengthened relaxation.

    The returned loop's x has A x >= a, B x <= b, x <= d, no violated
    residual rows for its own high set, and cost at most the optimum of
    the relaxation with all cuts (each round solves a relaxation of that
    program, and values only grow as cuts are added).  Each round is one
    ``solve_relaxation`` with the cuts so far, which checks its
    certificate, a Farkas ray included.  A loop with no lambda-relaxed
    point after ``MAX_ROUNDS`` rounds raises ``LimitError``.
    """
    eps = as_epsilon(epsilon)
    max_rounds = as_int(MAX_ROUNDS, "kc.MAX_ROUNDS", 1)
    if not is_width_normalized(inst):
        raise InstanceError("normalize width first")
    cuts: list[tuple[tuple[int, ...], int]] = []
    objectives: list[Fraction] = []
    pin_sets: list[tuple[int, ...]] = []
    for round_no in range(1, max_rounds + 1):
        sol = solve_relaxation(inst, cuts)
        # only valid rows were added, so values never decrease
        if objectives and sol.objective_value < objectives[-1]:
            raise GuaranteeError(
                f"cut round {round_no} lowered the LP value from "
                f"{objectives[-1]} to {sol.objective_value}"
            )
        objectives.append(sol.objective_value)
        # an added cut holds exactly at every later iterate, so each
        # violated (F, row) pair is new and the loop terminates
        system, violated = find_violated_kc(inst, sol.primal, eps)
        if not violated:
            return CutLoop(sol.primal, system, tuple(objectives), len(cuts), tuple(pin_sets))
        cuts.extend(system.rows[i] for i, _ in violated)
        pins = tuple(sorted(system.F))
        if pins not in pin_sets:
            pin_sets.append(pins)
    raise LimitError(f"no lambda-relaxed point after {max_rounds} rounds")


def solve_cip_strict(inst: CpipInstance, epsilon) -> tuple[IntegerVector, SolveReport]:
    """Integer solution meeting the multiplicity constraints exactly.

    Pipeline: take a (1+eps)-relaxed point xbar of the cut-strengthened
    relaxation, pin every variable with xbar_j >= d_j/(1+eps) at d_j,
    and round the rest against the residual system (whose width is at
    least 1 by truncation).  Guarantees, all checked exactly: A xhat >= a,
    xhat <= d exactly, B xhat <= (1+eps) b + beta, and
    cost <= (1 + eps + 4K) times the relaxed point's cost.
    """
    eps = as_epsilon(epsilon)
    t0 = perf_counter()
    loop = solve_lp_kc(inst, eps)
    # the loop's last high set is the pinned set, and xbar violates none of
    # its residual rows (the rounding re-checks); only the demanded ones go
    # to the rounding, as the integer rows they are
    xbar, system = loop.x, loop.system
    xres = tuple(ZERO if j in system.F else v for j, v in enumerate(xbar))
    info: dict = {}
    demanded = [S for S, _ in system.rows if S[-1] > 0]
    A, a = [S[:-1] for S in demanded], [S[-1] for S in demanded]
    xhat_rest = bicriteria_round(xres, A, a, inst.c, None, eps, info_out=info)
    xhat = IntegerVector([int(inst.d[j]) if j in system.F else v for j, v in enumerate(xhat_rest)])
    relaxed_cost = loop.round_objectives[-1]  # c . xbar, by its certificate
    pinned_cost = sum((inst.c[j] * inst.d[j] for j in system.F), ZERO)
    if pinned_cost > (1 + eps) * relaxed_cost:
        raise GuaranteeError(
            f"pinned cost {pinned_cost} above (1+eps) * {relaxed_cost}"
        )
    cost = dot(inst.c, xhat)
    K = info["K"]
    if cost > (1 + eps + 4 * K) * relaxed_cost:
        raise GuaranteeError(
            f"cost {cost} above (1 + eps + 4K) * {relaxed_cost} with K = {K}"
        )
    violations = check_solution(inst, xhat, eps)
    if not violations.ok_strict:
        raise GuaranteeError(f"strict guarantees violated: {violations}")
    # round 1 of the cut loop solved the plain relaxation: fopt, for gap reporting
    fopt = loop.round_objectives[0]
    elapsed_s = perf_counter() - t0
    report = SolveReport(
        mode="strict",
        cost=cost,
        fopt=fopt,
        fopt_kc=relaxed_cost,
        ratio_cost_fopt=float(cost / fopt) if fopt else None,
        epsilon=eps,
        K=K,
        L=info["L"],
        x=xhat,
        violations=violations,
        guarantees_ok=violations.ok_strict,
        pinned=tuple(sorted(system.F)),
        pin_sets_seen=loop.pin_sets_seen,
        cut_rows_added=loop.cut_rows_added,
        lp_rounds=len(loop.round_objectives),
        elapsed_s=elapsed_s,
    )
    return xhat, report
