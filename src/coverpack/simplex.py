"""Dense exact LP solver with primal/dual certificates.

Dual simplex over the rationals, exactly, from the all-slack basis
(Lemke 1954).  Every LP this package builds is min c.x with c >= 0, so
that basis is dual feasible from the start and the objective is bounded
below by 0: one pass of pivots ends at an optimum or at a row that proves
infeasibility.  Inside the tableau each row is a list of Python integers
over one positive row denominator, and pivots are integer-preserving
(Edmonds; Bareiss), so no ``Fraction`` is built while pivoting.  Every
pivot choice compares the rationals the integers stand for, exactly.
Problems come in and results go out as ``Fraction``: an OPTIMAL result
carries a primal point and a dual vector whose objectives agree with zero
gap, and an INFEASIBLE result carries an exact Farkas ray;
``verify_certificate`` checks either certificate, the ray included, in
``Fraction`` values.  Dense tableaus are fine at the scales this package
targets (a few hundred rows including cut rows).

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
from math import gcd
from typing import Sequence

from coverpack.model import (
    ZERO,
    CpipInstance,
    FractionalVector,
    InstanceError,
    LimitError,
    as_fraction,
    dot,
    integers,
)

GE = ">="
LE = "<="


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
    status: str  # OPTIMAL | INFEASIBLE
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
    """Mutable dual simplex state: internal rows are user rows then bound rows.

    Row ``i`` is held as integers ``T[i]`` over one positive denominator
    ``den[i]``, so its tableau entries are the rationals ``T[i][j] / den[i]``
    and its last entry is the right-hand side.  Pivots are integer-preserving
    (Edmonds 1967, Bareiss 1968) and every rewritten row is reduced by the
    gcd of its entries and denominator.  The objective row ``obj`` over
    ``obj_den`` holds the reduced costs, with ``-z`` last.

    Every row is stored in ``<=`` form (a ``>=`` row is negated) with its
    own slack at column ``n + i``, and the basis starts as all slacks.  The
    reduced costs start as the cost vector, so with no negative cost that
    basis is dual feasible: a row with a negative rhs is only primal
    infeasible.
    """

    def __init__(self, p: LpProblem):
        n = self.n = len(p.objective)
        self.bounded = [j for j, u in enumerate(p.var_bounds) if u is not None]
        R = len(p.rows) + len(self.bounded)
        ncols = self.ncols = n + R
        self.T: list[list[int]] = []
        self.den: list[int] = []
        self.basis = list(range(n, ncols))
        for i, row in enumerate(p.rows):
            # row i over the least common denominator D of its entries
            sign = -1 if row.sense == GE else 1
            scaled, D = integers((*row.coeffs, row.rhs))
            trow = [sign * v for v in scaled[:n]] + [0] * R + [sign * scaled[n]]
            trow[n + i] = D
            self.T.append(trow)
            self.den.append(D)
        for i, j in enumerate(self.bounded, len(p.rows)):
            u = p.var_bounds[j]  # x_j + slack = u, over the denominator of u
            trow = [0] * (ncols + 1)
            trow[j] = trow[n + i] = u.denominator
            trow[ncols] = u.numerator
            self.T.append(trow)
            self.den.append(u.denominator)
        self.obj, self.obj_den = integers(p.objective)
        self.obj += [0] * (R + 1)
        self.iterations = 0

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

    def run(self, *, bland_after: int, max_iters: int) -> int:
        """Pivot until every basic value is >= 0; -1, or the row proving infeasibility.

        Basic values ``T[i][-1] / den[i]`` compare by cross-multiplication.
        The ratios ``obj[j] / -T[r][j]`` of the leaving row share the
        denominators ``obj_den`` and ``den[r]``, so they compare by
        cross-multiplying numerators.
        """
        T, den, rhs = self.T, self.den, self.ncols
        degenerate_streak = 0
        while True:
            # most negative basic value, ties to the lowest row; under
            # Bland's rule the negative row with the lowest basis index
            use_bland = degenerate_streak >= bland_after
            leave = -1
            for i, trow in enumerate(T):
                if trow[rhs] >= 0:
                    continue
                if leave >= 0 and (
                    self.basis[i] > self.basis[leave]
                    if use_bland
                    else trow[rhs] * den[leave] >= T[leave][rhs] * den[i]
                ):
                    continue
                leave = i
            if leave < 0:
                return -1
            # least obj[j] / -a_j over the negative entries a_j, ties to the lowest column
            lrow, obj, enter = T[leave], self.obj, -1
            for j in range(rhs):
                a = lrow[j]
                if a < 0 and (enter < 0 or obj[j] * -lrow[enter] < obj[enter] * -a):
                    enter = j
            if enter < 0:
                return leave  # every entry is >= 0 and the rhs is < 0
            if self.iterations >= max_iters:
                raise LimitError(f"simplex exceeded {max_iters} pivots")
            self.iterations += 1
            degenerate_streak = degenerate_streak + 1 if obj[enter] == 0 else 0
            self.pivot(leave, enter)


def solve_lp(
    p: LpProblem,
    *,
    bland_after: int = 40,
    max_iters: int = 50_000,
) -> LpSolution:
    """Dual simplex from the all-slack basis with exact certificates.

    Every cost must be nonnegative (``InstanceError`` otherwise), so the
    objective is bounded below by 0 and the result is OPTIMAL or
    INFEASIBLE.  The leaving row has the most negative basic value and the
    entering column the least ratio, deterministic ties by lowest index;
    after ``bland_after`` consecutive degenerate pivots Bland's rule picks
    the leaving row, so termination is guaranteed.  Same problem and
    configuration always yield the same solution.
    """
    for j, cj in enumerate(p.objective):
        if cj < 0:
            raise InstanceError(f"objective[{j}] = {cj} is negative")
    t = _Tableau(p)
    r = t.run(bland_after=bland_after, max_iters=max_iters)
    if r >= 0:
        ray_rows, ray_bounds = _duals(p, t, t.T[r], t.den[r])
        return LpSolution(
            "INFEASIBLE", t.iterations, ray_rows=ray_rows, ray_bounds=ray_bounds
        )
    x = [ZERO] * t.n
    for i, bi in enumerate(t.basis):
        if bi < t.n:
            x[bi] = Fraction(t.T[i][t.ncols], t.den[i])
    dual_rows, dual_bounds = _duals(p, t, t.obj, t.obj_den)
    return LpSolution(
        "OPTIMAL",
        t.iterations,
        primal=FractionalVector(tuple(x)),
        objective_value=Fraction(-t.obj[t.ncols], t.obj_den),
        dual_rows=dual_rows,
        dual_bounds=dual_bounds,
    )


def _duals(p: LpProblem, t: _Tableau, vec: list[int], den: int):
    """Row and bound duals, or a Farkas ray, from the slack entries of ``vec / den``.

    With the objective row, the slack reduced costs give the duals; with
    a row whose entries are all >= 0 and whose rhs is < 0, its slack
    entries ``w`` combine the ``<=``-form rows into an infeasible one, and
    negating that combination gives the ray.  Either way a ``>=`` row,
    stored negated, gets ``w_i`` and a ``<=`` row or a bound gets ``-w_i``.
    """
    n, m = t.n, len(p.rows)
    dual_rows = tuple(
        Fraction(vec[n + i] if row.sense == GE else -vec[n + i], den)
        for i, row in enumerate(p.rows)
    )
    dual_bounds = [ZERO] * n
    for i, j in enumerate(t.bounded, m):
        dual_bounds[j] = Fraction(-vec[n + i], den)
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
    Any other status carries no certificate: only a hand-built
    ``LpSolution`` can have one, and it raises ``InstanceError``.
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
        raise InstanceError(f"an {s.status} result carries no certificate")
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
