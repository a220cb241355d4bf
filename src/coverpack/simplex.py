"""Dense exact LP solver with primal/dual certificates.

Two-phase primal simplex over the rationals, exactly.  Inside the tableau each
row is a list of Python integers over one positive row denominator, and
pivots are integer-preserving (Edmonds; Bareiss), so no ``Fraction`` is
built while pivoting.  Every pivot choice compares the rationals the
integers stand for, exactly.  Problems come in and results go out as
``Fraction``: an OPTIMAL result carries a primal point and a dual vector
whose objectives agree with zero gap, and an INFEASIBLE result carries
an exact Farkas ray; ``verify_certificate`` checks either certificate,
the ray included, in ``Fraction`` values.  Dense tableaus are fine at
the scales this package targets (a few hundred rows including cut rows).

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
    """Pivot budget exhausted."""


class InfeasibleError(CoverpackError):
    """Raised by callers that require a feasible LP."""


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
        obj = tuple(as_fraction(v, f"objective[{j}]") for j, v in enumerate(objective))
        n = len(obj)
        out_rows = []
        for i, row in enumerate(rows):
            coeffs, sense, rhs = (
                (row.coeffs, row.sense, row.rhs) if isinstance(row, LpRow) else row
            )
            if sense not in (GE, LE):
                raise InstanceError(f"row {i}: sense must be '>=' or '<='")
            cf = tuple(as_fraction(v, f"row {i} coeff {j}") for j, v in enumerate(coeffs))
            if len(cf) != n:
                raise InstanceError(f"row {i} has {len(cf)} coeffs, expected {n}")
            out_rows.append(LpRow(cf, sense, as_fraction(rhs, f"row {i} rhs")))
        ub = tuple(
            None if v is None else as_fraction(v, f"bound[{j}]") for j, v in enumerate(var_bounds)
        )
        for j, u in enumerate(ub):
            if u is not None and u < 0:
                raise InstanceError(f"bound[{j}] = {u} is negative")
        if len(ub) != n:
            raise InstanceError(f"var_bounds has {len(ub)} entries, expected {n}")
        return cls(objective=obj, rows=tuple(out_rows), var_bounds=ub)


@dataclass(frozen=True)
class LpSolution:
    status: str  # OPTIMAL | INFEASIBLE | UNBOUNDED
    iterations: int
    primal: FractionalVector | None = None
    objective_value: Fraction | None = None
    dual_rows: tuple[Fraction, ...] | None = None
    dual_bounds: tuple[Fraction, ...] | None = None
    ray_rows: tuple[Fraction, ...] | None = None
    ray_bounds: tuple[Fraction, ...] | None = None


def lp_from_instance(
    inst: CpipInstance, cut_rows: Sequence[tuple[Sequence[Fraction], Fraction]] = ()
) -> LpProblem:
    """Standard relaxation of an instance plus optional >= cut rows.

    Row order: covering rows, packing rows, then cut rows in insertion
    order.  The variable bounds are the instance multiplicity vector.
    """
    rows: list[tuple] = []
    for i in range(inst.m):
        rows.append((inst.A[i], GE, inst.a[i]))
    for i in range(inst.r):
        rows.append((inst.B[i], LE, inst.b[i]))
    for coeffs, rhs in cut_rows:
        rows.append((tuple(coeffs), GE, rhs))
    return LpProblem.from_data(inst.c, rows, inst.d)


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

    Columns are the ``n`` variables, then the slack of internal row ``i`` at
    ``n + i``, then one artificial per row that is ``>=`` once its rhs is
    made nonnegative, in row order.
    """

    def __init__(self, p: LpProblem):
        n = self.n = len(p.objective)
        self.bounded = [j for j, u in enumerate(p.var_bounds) if u is not None]
        R = len(p.rows) + len(self.bounded)
        # a row with negative rhs is multiplied by -1, which flips its sense
        ge = [(row.sense == GE) != (row.rhs < 0) for row in p.rows]
        ncols = self.ncols = n + R + sum(ge)
        self.artificial = frozenset(range(n + R, ncols))
        self.T: list[list[int]] = []
        self.den: list[int] = []
        self.basis: list[int] = []
        art = n + R
        for i, row in enumerate(p.rows):
            # row i scaled by the lcm D of its denominators, as integers
            sign = -1 if row.rhs < 0 else 1
            D = lcm(row.rhs.denominator, *(v.denominator for v in row.coeffs))
            trow = [0] * (ncols + 1)
            for j, v in enumerate(row.coeffs):
                if v:
                    trow[j] = sign * v.numerator * (D // v.denominator)
            trow[ncols] = sign * row.rhs.numerator * (D // row.rhs.denominator)
            if ge[i]:
                trow[n + i], trow[art] = -D, D
                self.basis.append(art)
                art += 1
            else:
                trow[n + i] = D
                self.basis.append(n + i)
            self.T.append(trow)
            self.den.append(D)
        for i, j in enumerate(self.bounded, len(p.rows)):
            u = p.var_bounds[j]  # x_j + slack = u, over the denominator of u
            trow = [0] * (ncols + 1)
            trow[j] = trow[n + i] = u.denominator
            trow[ncols] = u.numerator
            self.T.append(trow)
            self.den.append(u.denominator)
            self.basis.append(n + i)
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
            # most negative reduced cost, ties to the lowest column; under
            # Bland's rule the first negative one
            use_bland = degenerate_streak >= bland_after
            enter, best = -1, 0
            for j in range(self.ncols):
                if obj[j] < best and j not in forbid:
                    enter, best = j, obj[j]
                    if use_bland:
                        break
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
                raise IterationLimitError(f"simplex exceeded {max_iters} pivots")
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
    phase1_cost = [ONE if col in t.artificial else ZERO for col in range(t.ncols)]
    if not t.run(
        phase1_cost, forbid=frozenset(), bland_after=bland_after, max_iters=max_iters
    ):  # cannot happen: phase-1 objective is bounded below by 0
        raise LpError("phase 1 reported unbounded")
    if t.objective() > 0:
        ray_rows, ray_bounds = _duals(p, t)
        return LpSolution(
            "INFEASIBLE", t.iterations, ray_rows=ray_rows, ray_bounds=ray_bounds
        )

    _drive_out_artificials(t)

    phase2_cost = list(p.objective) + [ZERO] * (t.ncols - t.n)
    if not t.run(
        phase2_cost, forbid=t.artificial, bland_after=bland_after, max_iters=max_iters
    ):
        return LpSolution("UNBOUNDED", t.iterations)
    x = [ZERO] * t.n
    for i, bi in enumerate(t.basis):
        if bi < t.n:
            x[bi] = Fraction(t.T[i][t.ncols], t.den[i])
    dual_rows, dual_bounds = _duals(p, t)
    return LpSolution(
        "OPTIMAL",
        t.iterations,
        primal=FractionalVector(tuple(x)),
        objective_value=t.objective(),
        dual_rows=dual_rows,
        dual_bounds=dual_bounds,
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


def _duals(p: LpProblem, t: _Tableau):
    """Row and bound duals (a Farkas ray after phase 1) from the slack reduced costs.

    The reduced cost of row i's slack, column ``n + i``, is ``y_i`` for a
    ``>=`` row and ``-y_i`` for a ``<=`` row; flipping a row's sign flips
    both its sense and its slack, so the map is the same for flipped rows.
    """
    rc, n, m = t.obj, t.n, len(p.rows)
    dual_rows = tuple(
        Fraction(rc[n + i] if row.sense == GE else -rc[n + i], t.obj_den)
        for i, row in enumerate(p.rows)
    )
    dual_bounds = [ZERO] * n
    for i, j in enumerate(t.bounded, m):
        dual_bounds[j] = Fraction(-rc[n + i], t.obj_den)
    return dual_rows, tuple(dual_bounds)


def dual_objective(p: LpProblem, rows, bounds) -> Fraction:
    """``sum_i rows_i rhs_i + sum_j bounds_j u_j`` over the finite bounds ``u``."""
    total = sum((y * row.rhs for y, row in zip(rows, p.rows)), ZERO)
    for j, u in enumerate(p.var_bounds):
        if u is not None:
            total += bounds[j] * u
    return total


@dataclass(frozen=True)
class CertificateViolation:
    kind: str
    index: int
    amount: Fraction

    def __str__(self) -> str:
        return f"{self.kind}[{self.index}]: off by {float(self.amount):.3g}"


def verify_certificate(p: LpProblem, s: LpSolution) -> list[CertificateViolation]:
    """List every violation of an OPTIMAL or INFEASIBLE certificate, exactly.

    An empty report certifies the status.  OPTIMAL: the primal point is
    feasible, the dual vector is sign- and constraint-feasible, and the
    reported value, the point's cost and the dual value are equal.
    INFEASIBLE: the Farkas ray (y, z) has the dual signs, y^T A + z <= 0
    and y^T rhs + z^T u > 0, so no x >= 0 meets the rows and bounds.
    Any other status raises ``LpError``.
    """
    out: list[CertificateViolation] = []
    if s.status == "OPTIMAL":
        rows, bounds, cost = s.dual_rows, s.dual_bounds, p.objective
        x = s.primal.values
        for j, v in enumerate(x):
            if v < 0:
                out.append(CertificateViolation("primal_nonneg", j, -v))
        for i, row in enumerate(p.rows):
            lhs = dot(row.coeffs, x)
            gap = lhs - row.rhs if row.sense == GE else row.rhs - lhs
            if gap < 0:
                out.append(CertificateViolation("primal_row", i, -gap))
        for j, u in enumerate(p.var_bounds):
            if u is not None and x[j] > u:
                out.append(CertificateViolation("primal_bound", j, x[j] - u))
    elif s.status == "INFEASIBLE":
        rows, bounds, cost = s.ray_rows, s.ray_bounds, (ZERO,) * len(p.objective)
    else:
        raise LpError(f"an {s.status} result carries no certificate")
    for i, row in enumerate(p.rows):
        y = rows[i]
        if (y < 0) if row.sense == GE else (y > 0):
            out.append(CertificateViolation("dual_sign_row", i, abs(y)))
    for j, u in enumerate(p.var_bounds):
        # a bound dual is <= 0, and 0 where there is no bound to price it
        if bounds[j] > 0 or (u is None and bounds[j]):
            out.append(CertificateViolation("dual_sign_bound", j, abs(bounds[j])))
    for j, cj in enumerate(cost):
        lhs = bounds[j] + sum((y * row.coeffs[j] for y, row in zip(rows, p.rows)), ZERO)
        if lhs > cj:
            out.append(CertificateViolation("dual_feasibility", j, lhs - cj))
    value = dual_objective(p, rows, bounds)
    if s.status == "OPTIMAL":
        for primal_value in (s.objective_value, dot(p.objective, x)):
            if primal_value != value:
                out.append(CertificateViolation("duality_gap", 0, abs(primal_value - value)))
    elif value <= 0:
        out.append(CertificateViolation("farkas_value", 0, -value))
    return out
