"""Dense exact LP solver with primal/dual certificates.

Two-phase primal simplex over the rationals, exactly.  Inside the tableau each
row is a list of Python integers over one positive row denominator, and
pivots are integer-preserving (Edmonds; Bareiss), so no ``Fraction`` is
built while pivoting.  Every pivot choice compares the rationals the
integers stand for, exactly.  Problems come in and results go out as
``Fraction``: an OPTIMAL result carries a primal point and a dual vector
whose objectives agree with zero gap, and an INFEASIBLE result carries
an exact Farkas ray; ``verify_certificate`` checks them in ``Fraction``
values.  Dense tableaus are fine at the scales this package targets
(a few hundred rows including cut rows).

Row order inside an ``LpProblem`` built from an instance is fixed and
documented: covering rows, then packing rows, then any cut rows in
insertion order.  Variable upper bounds are handled as bound rows after
all user rows, never as big-M terms.

Dual sign convention (minimization): duals of >= rows are >= 0, duals of
<= rows and of upper bounds are <= 0, and the dual objective is
``sum_i y_i rhs_i + sum_j ybound_j u_j``.

Solver state is confined to a single ``solve_lp`` call; concurrent
solves on distinct problems are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from coverpack.model import (
    ZERO,
    CoverpackError,
    CpipInstance,
    FractionalVector,
    InstanceError,
    as_fraction,
    dot,
)

GE = ">="
LE = "<="

ONE = Fraction(1)


class LpError(CoverpackError):
    """Solver failure unrelated to problem status."""


class IterationLimitError(LpError):
    """Pivot budget exhausted; carries the best objective bound reached."""

    def __init__(self, message: str, best_objective):
        super().__init__(message)
        self.best_objective = best_objective


class NumericalInstabilityError(LpError):
    """Non-finite input detected; re-run with exact rational data."""


class InfeasibleError(CoverpackError):
    """Raised by callers that require a feasible LP."""

    def __init__(self, message: str, solution: "LpSolution | None" = None):
        super().__init__(message)
        self.solution = solution


@dataclass(frozen=True)
class LpRow:
    coeffs: tuple[Fraction, ...]
    sense: str
    rhs: Fraction


@dataclass(frozen=True)
class LpProblem:
    """min objective . x  s.t.  rows, 0 <= x_j <= var_bounds[j] (None = free above)."""

    objective: tuple[Fraction, ...]
    rows: tuple[LpRow, ...]
    var_bounds: tuple[Fraction | None, ...]

    @classmethod
    def from_data(cls, objective, rows, var_bounds) -> "LpProblem":
        def num(v, where):
            if isinstance(v, float) and (v != v or v in (float("inf"), float("-inf"))):
                raise NumericalInstabilityError(
                    f"{where} is not finite; supply exact rational data"
                )
            return as_fraction(v, where)

        obj = tuple(num(v, f"objective[{j}]") for j, v in enumerate(objective))
        n = len(obj)
        out_rows = []
        for i, row in enumerate(rows):
            coeffs, sense, rhs = (
                (row.coeffs, row.sense, row.rhs) if isinstance(row, LpRow) else row
            )
            if sense not in (GE, LE):
                raise InstanceError(f"row {i}: sense must be '>=' or '<='")
            cf = tuple(num(v, f"row {i} coeff {j}") for j, v in enumerate(coeffs))
            if len(cf) != n:
                raise InstanceError(f"row {i} has {len(cf)} coeffs, expected {n}")
            out_rows.append(LpRow(cf, sense, num(rhs, f"row {i} rhs")))
        ub = tuple(
            None if v is None else num(v, f"bound[{j}]") for j, v in enumerate(var_bounds)
        )
        if len(ub) != n:
            raise InstanceError(f"var_bounds has {len(ub)} entries, expected {n}")
        return cls(objective=obj, rows=tuple(out_rows), var_bounds=ub)


@dataclass(frozen=True)
class LpSolution:
    status: str  # OPTIMAL | INFEASIBLE | UNBOUNDED
    primal: FractionalVector | None
    objective_value: Fraction | None
    dual_rows: tuple[Fraction, ...] | None
    dual_bounds: tuple[Fraction, ...] | None
    ray_rows: tuple[Fraction, ...] | None
    ray_bounds: tuple[Fraction, ...] | None
    iterations: int


def lp_from_instance(
    inst: CpipInstance,
    upper_bounds: Sequence[Fraction | None] | None = None,
    cut_rows: Sequence[tuple[Sequence[Fraction], Fraction]] = (),
) -> LpProblem:
    """Standard relaxation of an instance plus optional >= cut rows.

    Row order: covering rows, packing rows, then cut rows in insertion
    order.  ``upper_bounds`` defaults to the instance multiplicity vector.
    """
    rows: list[tuple] = []
    for i in range(inst.m):
        rows.append((inst.A[i], GE, inst.a[i]))
    for i in range(inst.r):
        rows.append((inst.B[i], LE, inst.b[i]))
    for coeffs, rhs in cut_rows:
        rows.append((tuple(coeffs), GE, rhs))
    bounds = inst.d if upper_bounds is None else tuple(upper_bounds)
    return LpProblem.from_data(inst.c, rows, bounds)


def _eliminate(row: list[int], den: int, prow: list[int], p: int, e: int, nz: list[int]):
    """``row/den - (row[e]/den) * prow/p`` as (integers, positive denominator).

    ``prow/p`` is a pivot row whose entry ``e`` is ``p > 0``, so the result
    is zero in column ``e``; only the columns ``nz`` where ``prow`` is
    nonzero need the subtraction.  The result is divided by the gcd of its
    entries and denominator.
    """
    f = row[e]
    new = [v * p for v in row]
    for j in nz:
        new[j] -= f * prow[j]
    den *= p
    g = gcd(den, *new)
    if g > 1:
        new = [v // g for v in new]
        den //= g
    return new, den


class _Tableau:
    """Mutable simplex working state: internal rows are user rows then bound rows.

    Row ``i`` is held as integers ``T[i]`` over one positive denominator
    ``den[i]``, so its tableau entries are the rationals ``T[i][j] / den[i]``
    and its last entry is the right-hand side.  Pivots are integer-preserving
    (Edmonds 1967, Bareiss 1968) and every rewritten row is reduced by the
    gcd of its entries and denominator.  The objective row ``obj`` over
    ``obj_den`` holds the reduced costs, with ``-z`` last.
    """

    def __init__(self, p: LpProblem):
        n = len(p.objective)
        # Internal rows, each normalized to nonnegative rhs.  flip[i] records
        # rows multiplied by -1 so duals can be mapped back.
        senses: list[str] = []
        coeffs: list[list[Fraction]] = []
        rhs: list[Fraction] = []
        flip: list[bool] = []
        for row in p.rows:
            cf, sn, rh = list(row.coeffs), row.sense, row.rhs
            if rh < 0:
                cf = [-v for v in cf]
                rh = -rh
                sn = GE if sn == LE else LE
                flip.append(True)
            else:
                flip.append(False)
            coeffs.append(cf)
            senses.append(sn)
            rhs.append(rh)
        self.num_user_rows = len(p.rows)
        for j, u in enumerate(p.var_bounds):
            if u is None:
                continue
            cf = [ZERO] * n
            cf[j] = ONE
            coeffs.append(cf)
            senses.append(LE)
            rhs.append(u)
            flip.append(False)
        self.bound_row_var: list[int] = [
            j for j, u in enumerate(p.var_bounds) if u is not None
        ]

        R = len(coeffs)
        self.n = n
        self.slack_of = list(range(n, n + R))
        self.slack_sign = [1 if s == LE else -1 for s in senses]
        art_cols = [i for i in range(R) if senses[i] == GE]
        self.art_of = {}
        ncols = n + R
        for i in art_cols:
            self.art_of[i] = ncols
            ncols += 1
        self.ncols = ncols
        self.flip = flip

        # Row i scaled by the lcm D of its denominators: slack and
        # artificial entries become +-D.
        self.T: list[list[int]] = []
        self.den: list[int] = []
        self.basis: list[int] = []
        for i in range(R):
            D = lcm(rhs[i].denominator, *(v.denominator for v in coeffs[i]))
            trow = [0] * (ncols + 1)
            for j, v in enumerate(coeffs[i]):
                if v:
                    trow[j] = v.numerator * (D // v.denominator)
            trow[self.slack_of[i]] = self.slack_sign[i] * D
            if i in self.art_of:
                trow[self.art_of[i]] = D
                self.basis.append(self.art_of[i])
            else:
                self.basis.append(self.slack_of[i])
            trow[ncols] = rhs[i].numerator * (D // rhs[i].denominator)
            self.T.append(trow)
            self.den.append(D)
        self.artificial = set(self.art_of.values())
        self.obj: list[int] = []  # set by price()
        self.obj_den = 1
        self.iterations = 0

    def price(self, cost: list[Fraction]) -> None:
        """Set the objective row to the reduced costs of ``cost`` for the current basis."""
        D = lcm(*(c.denominator for c in cost))
        obj = [c.numerator * (D // c.denominator) for c in cost] + [0]
        for i, bi in enumerate(self.basis):
            # the basic entry of row i is den[i], i.e. one
            if obj[bi]:
                nz = [j for j, v in enumerate(self.T[i]) if v]
                obj, D = _eliminate(obj, D, self.T[i], self.den[i], bi, nz)
        self.obj, self.obj_den = obj, D

    def objective(self) -> Fraction:
        """Current objective value z of the priced cost."""
        return Fraction(-self.obj[self.ncols], self.obj_den)

    def pivot(self, r: int, e: int) -> None:
        """Pivot basis row r on column e, updating the objective row too."""
        prow = self.T[r]
        p = prow[e]
        if p < 0:
            prow = [-v for v in prow]
            p = -p
        g = gcd(*prow)
        if g > 1:
            prow = [v // g for v in prow]
            p //= g
        self.T[r] = prow
        self.den[r] = p
        nz = [j for j, v in enumerate(prow) if v]
        T, dens = self.T, self.den
        for i, row in enumerate(T):
            if i != r and row[e]:
                T[i], dens[i] = _eliminate(row, dens[i], prow, p, e, nz)
        if self.obj[e]:
            self.obj, self.obj_den = _eliminate(self.obj, self.obj_den, prow, p, e, nz)
        self.basis[r] = e

    def run(self, cost, *, forbid, bland_after: int, max_iters: int) -> bool:
        """Minimize cost over the current tableau; False if it is unbounded.

        Reduced costs share the positive denominator ``obj_den``, so they
        compare by numerator.  The ratio ``T[i][-1] / T[i][e]`` of a row is
        free of its denominator and compares by cross-multiplication.
        """
        self.price(cost)
        rhs = self.ncols
        degenerate_streak = 0
        while True:
            obj = self.obj
            use_bland = degenerate_streak >= bland_after
            enter = -1
            if use_bland:
                for j in range(self.ncols):
                    if j not in forbid and obj[j] < 0:
                        enter = j
                        break
            else:
                best = 0
                for j in range(self.ncols):
                    if j not in forbid and obj[j] < best:
                        best = obj[j]
                        enter = j
            if enter < 0:
                return True
            leave = -1
            for i, trow in enumerate(self.T):
                aie = trow[enter]
                if aie <= 0:
                    continue
                if leave >= 0:  # keep the smaller rhs/aie, ties to lower basis index
                    lhs, rgt = trow[rhs] * best_aie, best_rhs * aie
                    if lhs > rgt or (lhs == rgt and self.basis[i] > self.basis[leave]):
                        continue
                best_rhs, best_aie, leave = trow[rhs], aie, i
            if leave < 0:
                return False  # unbounded direction on column `enter`
            if self.iterations >= max_iters:
                raise IterationLimitError(
                    f"simplex exceeded {max_iters} pivots",
                    best_objective=self.objective(),
                )
            self.iterations += 1
            degenerate_streak = degenerate_streak + 1 if best_rhs == 0 else 0
            self.pivot(leave, enter)


def solve_lp(
    p: LpProblem,
    *,
    bland_after: int = 40,
    max_iters: int = 50_000,
) -> LpSolution:
    """Two-phase primal simplex with exact certificates.

    Pivot rule is largest reduced-cost improvement (deterministic ties by
    lowest column index), falling back to Bland's rule after
    ``bland_after`` consecutive degenerate pivots so termination is
    guaranteed.  Same problem and configuration always yield the same
    solution.
    """
    t = _Tableau(p)
    phase1_cost = [ZERO] * t.ncols
    for col in t.artificial:
        phase1_cost[col] = ONE
    if not t.run(
        phase1_cost, forbid=frozenset(), bland_after=bland_after, max_iters=max_iters
    ):  # cannot happen: phase-1 objective is bounded below by 0
        raise LpError("phase 1 reported unbounded")
    if t.objective() > 0:
        ray_rows, ray_bounds = _split_duals(p, t, _extract_duals(t))
        return LpSolution(
            status="INFEASIBLE",
            primal=None,
            objective_value=None,
            dual_rows=None,
            dual_bounds=None,
            ray_rows=ray_rows,
            ray_bounds=ray_bounds,
            iterations=t.iterations,
        )

    _drive_out_artificials(t)

    phase2_cost = [ZERO] * t.ncols
    for j in range(t.n):
        phase2_cost[j] = p.objective[j]
    if not t.run(
        phase2_cost, forbid=t.artificial, bland_after=bland_after, max_iters=max_iters
    ):
        return LpSolution(
            status="UNBOUNDED",
            primal=None,
            objective_value=None,
            dual_rows=None,
            dual_bounds=None,
            ray_rows=None,
            ray_bounds=None,
            iterations=t.iterations,
        )
    x = [ZERO] * t.n
    for i, bi in enumerate(t.basis):
        if bi < t.n:
            x[bi] = Fraction(t.T[i][t.ncols], t.den[i])
    dual_rows, dual_bounds = _split_duals(p, t, _extract_duals(t))
    return LpSolution(
        status="OPTIMAL",
        primal=FractionalVector(tuple(x)),
        objective_value=t.objective(),
        dual_rows=dual_rows,
        dual_bounds=dual_bounds,
        ray_rows=None,
        ray_bounds=None,
        iterations=t.iterations,
    )


def _drive_out_artificials(t: _Tableau) -> None:
    """Pivot zero-valued artificials out of the basis; drop redundant rows."""
    i = 0
    while i < len(t.T):
        if t.basis[i] not in t.artificial:
            i += 1
            continue
        trow = t.T[i]
        enter = next(
            (
                j
                for j in range(t.ncols)
                if j not in t.artificial and trow[j] != 0
            ),
            -1,
        )
        if enter >= 0:
            t.pivot(i, enter)
            i += 1
        else:
            del t.T[i], t.den[i], t.basis[i]


def _extract_duals(t: _Tableau) -> list[Fraction]:
    """Dual value per original internal row, from its slack reduced cost."""
    # rc[slack] = -sign * y, so y = -sign * rc[slack].
    return [
        Fraction(-t.slack_sign[internal] * t.obj[t.slack_of[internal]], t.obj_den)
        for internal in range(t.num_user_rows + len(t.bound_row_var))
    ]


def _split_duals(p: LpProblem, t: _Tableau, duals: list[Fraction]):
    dual_rows = []
    for i in range(t.num_user_rows):
        y = duals[i]
        dual_rows.append(-y if t.flip[i] else y)
    dual_bounds = [ZERO] * t.n
    for k, j in enumerate(t.bound_row_var):
        dual_bounds[j] = duals[t.num_user_rows + k]
    return tuple(dual_rows), tuple(dual_bounds)


def dual_objective(p: LpProblem, s: LpSolution) -> Fraction:
    total = sum(
        (y * row.rhs for y, row in zip(s.dual_rows, p.rows)), ZERO
    )
    for j, u in enumerate(p.var_bounds):
        if u is not None:
            total += s.dual_bounds[j] * u
    return total


@dataclass(frozen=True)
class CertificateViolation:
    kind: str
    index: int
    amount: Fraction

    def __str__(self) -> str:
        return f"{self.kind}[{self.index}]: off by {float(self.amount):.3g}"


def verify_certificate(
    p: LpProblem, s: LpSolution, tol: float | Fraction = 0
) -> list[CertificateViolation]:
    """List every primal/dual feasibility or gap violation exceeding tol.

    An empty report certifies optimality: the primal point is feasible,
    the dual vector is sign- and constraint-feasible, and the two
    objectives agree within ``tol * (1 + |objective|)``.
    """
    if s.status != "OPTIMAL":
        raise LpError("certificates are only defined for OPTIMAL solutions")
    tol = as_fraction(tol, "tol")
    out: list[CertificateViolation] = []
    x = s.primal.values
    for j, v in enumerate(x):
        if v < -tol:
            out.append(CertificateViolation("primal_nonneg", j, -v))
    for i, row in enumerate(p.rows):
        lhs = dot(row.coeffs, x)
        gap = lhs - row.rhs if row.sense == GE else row.rhs - lhs
        if gap < -tol:
            out.append(CertificateViolation("primal_row", i, -gap))
    for j, u in enumerate(p.var_bounds):
        if u is not None and x[j] - u > tol:
            out.append(CertificateViolation("primal_bound", j, x[j] - u))
    for i, row in enumerate(p.rows):
        y = s.dual_rows[i]
        if row.sense == GE and y < -tol:
            out.append(CertificateViolation("dual_sign_row", i, -y))
        if row.sense == LE and y > tol:
            out.append(CertificateViolation("dual_sign_row", i, y))
    for j, u in enumerate(p.var_bounds):
        if u is not None and s.dual_bounds[j] > tol:
            out.append(CertificateViolation("dual_sign_bound", j, s.dual_bounds[j]))
    for j in range(len(p.objective)):
        lhs = sum(
            (s.dual_rows[i] * p.rows[i].coeffs[j] for i in range(len(p.rows))), ZERO
        )
        lhs += s.dual_bounds[j]
        if lhs - p.objective[j] > tol:
            out.append(CertificateViolation("dual_feasibility", j, lhs - p.objective[j]))
    gap = abs(s.objective_value - dual_objective(p, s))
    if gap > tol * (1 + abs(s.objective_value)):
        out.append(CertificateViolation("duality_gap", 0, gap))
    return out
