"""Dense exact LP solver with primal/dual certificates.

A bounded dual simplex from the all-slack basis (Lemke 1954).  Every LP
this package builds is min c.x with c >= 0, so that basis is dual
feasible from the start and the objective is bounded below by 0: one pass
of pivots ends at an optimum or at a row that proves infeasibility.  Each
user row is stored once, and every bound stays implicit (Dantzig's
upper-bounding technique): a nonbasic structural sits at 0 or at its
bound, a basic value below 0 or above its bound leaves, and the long-step
ratio test passes each bounded breakpoint it can, flipping that variable
to its other bound without a pivot (Fourer, "Notes on the dual simplex
method", 1994; Kostina, Math. Methods Oper. Res. 55, 2002).  The tableau
is condensed (Tucker's Jordan exchange): a basic column is a unit vector,
so each row stores only the ``n`` nonbasic columns and the rhs, and a
pivot exchanges the labels of the entering and leaving variables.

The rules are written once and run in two arithmetics.  The exact run
holds a row as ``n + 1`` Python integers over one positive row
denominator, every value scaled by the lcm of the bounds' denominators so
that each bound is an integer.  Its pivots are integer-preserving
(Edmonds; Bareiss), so no ``Fraction`` is built while pivoting, and every
choice compares the rationals the integers stand for by
cross-multiplication.  A row is reduced by its gcd only once its
denominator passes ``2**REDUCE_BITS``.  Results go out as ``Fraction``:
an OPTIMAL result carries a primal point and a dual vector whose
objectives agree with zero gap, and an INFEASIBLE result carries an exact
Farkas ray; ``verify_certificate`` checks either certificate exactly, in
integers.

An LP of at least ``GUIDED_MIN_CELLS`` cells (rows times variables) is
first solved the way exact LP solvers certify a float basis (Dhiflaoui et
al., SODA 2003; Applegate, Cook, Dash & Espinoza, Oper. Res. Lett. 35,
2007): the same rules run in floats, with ties within ``FLOAT_TIE``, and
the final basis is solved exactly, by fraction-free (Bareiss) elimination
on the tight rows and basic structural columns for the point and on their
transpose for the row duals.  The result is kept only if
``verify_certificate`` passes; otherwise, and on an infeasible row, the
pivot cap, a float out of range or a singular basis, the exact run takes
over.  Unless two floats tie within ``FLOAT_TIE`` where their rationals
differ, both runs make the same pivots and flips to the same basis, so the
guided answer is the exact run's.  The size rule comes from a break-even
ladder of ``solve_lp`` alone, guided against exact, median of six to ten
seeds a size (CPython 3.11, 2 vCPUs): random CPIPs ran 0.5-0.7x up to 180
cells, 0.9-1.0x from 221 to 374, 1.13x at 432, 1.3-1.5x from 540 to 660
and 2.1x at 2,520; multiset multicovers 0.6-0.9x up to 864 cells (1.0x at
600) and 1.4x at 2,400; set covers, whose exact pivots stay few, 0.5x at
600, 0.9x at 1,350 and 1.3x at 2,400.  The rule sees only the size.
``LpSolution.iterations`` counts the pivots of the run that found the
basis; a flip is not a pivot.

Row order inside an ``LpProblem`` built from an instance is fixed and
documented: covering rows, then packing rows, then any cut rows in
insertion order.

Dual sign convention (minimization): duals of >= rows are >= 0, duals of
<= rows and of upper bounds are <= 0, and the dual objective is
``sum_i y_i rhs_i + sum_j ybound_j u_j``.

Solver state is confined to a single ``solve_lp`` call; concurrent
solves on distinct problems are safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isfinite, lcm
from operator import mul
from typing import Sequence

from coverpack.model import (
    ZERO,
    CpipInstance,
    FractionalVector,
    InstanceError,
    LimitError,
    as_bounds,
    as_fraction,
    as_sequence,
    as_vector,
    integers,
    nonnegative,
    scale_rows,
)

GE = ">="
LE = "<="
#: consecutive degenerate pivots after which Bland's rule picks the leaving row
BLAND_AFTER = 40
#: pivots one ``solve_lp`` may make before it raises ``LimitError``
MAX_PIVOTS = 50_000
#: a tableau row is reduced by its gcd once its denominator has more bits than this
REDUCE_BITS = 128
#: an LP with at least this many cells (rows x variables) is solved by ``_guided`` first;
#: read at call time, and set from the break-even ladder in the module docstring
GUIDED_MIN_CELLS = 400
#: floats of the guided run within this of each other tie, and within this of 0 are 0
FLOAT_TIE = 1e-9


@dataclass(frozen=True)
class LpRow:
    sense: str
    rhs: Fraction


@dataclass(frozen=True)
class LpProblem:
    """min objective . x  s.t.  rows, 0 <= x_j <= var_bounds[j] (None = free above).

    Each row is stored once, as integers: ``int_rows[i]`` holds row ``i``'s
    coefficients then rhs over a common denominator (``from_data`` takes
    the least), and ``rows[i]`` holds only its sense and rhs.
    """

    objective: tuple[Fraction, ...]
    rows: tuple[LpRow, ...]
    var_bounds: tuple[Fraction | None, ...]
    int_rows: tuple[tuple[tuple[int, ...], int], ...]

    @classmethod
    def from_data(cls, objective, rows, var_bounds) -> "LpProblem":
        """Read rationals, each row as ``(coeffs, sense, rhs)``; ``InstanceError`` if malformed."""
        obj = as_vector(objective, "objective")
        n = len(obj)
        out_rows, coeffs_in = [], []
        for i, row in enumerate(as_sequence(rows, "rows")):
            coeffs, sense, rhs = as_sequence(row, f"row {i}", 3)
            if sense not in (GE, LE):
                raise InstanceError(f"row {i}: sense must be '>=' or '<='")
            coeffs_in.append(as_vector(coeffs, f"row {i} coeffs", n))
            out_rows.append(LpRow(sense, as_fraction(rhs, f"row {i} rhs")))
        ub = as_bounds(var_bounds, "var_bounds", n)
        return cls(obj, tuple(out_rows), ub, scale_rows(zip(coeffs_in, (r.rhs for r in out_rows))))


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
    #: the float-guided run found this optimum, and ``solve_lp`` has checked
    #: its certificate; how it was found is no part of the answer
    guided: bool = field(default=False, compare=False)


def lp_from_instance(
    inst: CpipInstance, cut_rows: Sequence[tuple[Sequence[int], int]] = ()
) -> LpProblem:
    """Standard relaxation of an instance plus optional >= cut rows.

    Row order: covering rows, packing rows, then cut rows in insertion
    order.  The variable bounds are the instance multiplicity vector.  The
    instance's rows, already validated, are taken as they are, with their
    integers from ``inst.int_rows``.  Each cut row comes in that form,
    ``(S, D)``: n coefficients then the rhs, all ints (not bools), over an
    int D >= 1 (``InstanceError`` otherwise, a cut that is not such a pair
    included); it is appended to ``int_rows`` as given.
    """
    n, cut_rows = inst.n, tuple(as_sequence(cut_rows, "cut_rows"))
    cuts = []
    for k, cut in enumerate(cut_rows):
        try:
            S, D = cut
            ok = len(S) == n + 1 and all(type(v) is int for v in (*S, D)) and D >= 1
        except (TypeError, ValueError):  # not a pair, or an S with no length
            ok = False
        if not ok:
            raise InstanceError(f"cut row {k} is not {n + 1} ints over an int D >= 1")
        cuts.append(LpRow(GE, Fraction(S[n], D)))
    rows = (*(LpRow(GE, rhs) for rhs in inst.a), *(LpRow(LE, rhs) for rhs in inst.b), *cuts)
    return LpProblem(inst.c, rows, inst.d, inst.int_rows + cut_rows)


def _eliminate(row: list[int], den: int, prow: list[int], p: int, e: int):
    """One row's exchange step, ``row/den - (row[e]/den) * prow/p`` with ``row[e]`` as 0.

    ``prow / p`` is the pivot row after the exchange: ``p > 0`` and column
    ``e`` holds the leaving variable's entry, so the result there is
    ``-row[e] * prow[e]``; that is the full tableau's update, which zeroes
    the entering column.  ``p`` and ``f = row[e]`` are first divided by
    their gcd, and where ``p`` becomes 1 the row is not multiplied.  The
    result, as (integers, positive denominator), is divided by the gcd of
    its entries and denominator only once the denominator passes
    ``2**REDUCE_BITS``.
    """
    f = row[e]
    g = gcd(p, f)
    p, f = p // g, f // g
    if p == 1:
        new = [v - f * w for v, w in zip(row, prow)]
    else:
        new = [v * p - f * w for v, w in zip(row, prow)]
        den *= p
    new[e] = -f * prow[e]
    if den.bit_length() > REDUCE_BITS:
        g = gcd(den, *new)
        if g > 1:
            new = [v // g for v in new]
            den //= g
    return new, den


class _Tableau:
    """Mutable bounded dual simplex state, exactly: one stored row per user row.

    The tableau is condensed: only the ``n`` nonbasic columns are stored,
    and ``nonbasic[q]`` is the label of stored column ``q``: ``j`` for a
    structural, ``n + i`` for row ``i``'s slack.  Row ``i`` is held as
    integers ``T[i]`` over one positive denominator ``den[i]``, so its
    entries are the rationals ``T[i][q] / den[i]``, and its basic column
    ``basis[i]`` holds the dropped unit entry ``den[i] / den[i]``.  Pivots
    are integer-preserving (Edmonds 1967, Bareiss 1968); a rewritten row is
    reduced by the gcd of its entries and denominator once that denominator
    passes ``2**REDUCE_BITS``.  The objective row ``obj`` over ``obj_den``
    holds the nonbasic reduced costs.

    Every user row is stored once, in ``<=`` form (a ``>=`` row is negated),
    with its slack basic: the basis starts as all slacks.  Bounds stay
    implicit (Dantzig's upper-bounding technique): a nonbasic structural
    sits at 0 or, where ``up[q]``, at its bound, and the last entry of a
    row is the value of its basic variable with every nonbasic at its own
    value, ``-z`` in ``obj``.  Every value is scaled by ``scale``, the lcm
    of the bounds' denominators, so each bound ``upper[label]`` is an
    integer (None for no bound and for a slack).  The reduced costs start
    as the costs, so with no negative cost the first basis is dual
    feasible.

    The rules are written once, for both arithmetics: values compare by
    cross-multiplying numerators and tie, and count as 0, within ``tie``,
    exactly here.  ``_FloatTableau`` overrides only ``__init__`` and
    ``exchange``.  A pivot counts toward ``MAX_PIVOTS`` and Bland's switch,
    a flip toward neither; ``flips`` counts them apart.
    """

    tie = 0

    def __init__(self, p: LpProblem):
        n = self.n = len(p.objective)
        m = self.m = len(p.rows)
        self.nonbasic = list(range(n))
        self.basis = list(range(n, n + m))
        ub = p.var_bounds
        scale = self.scale = lcm(*{u.denominator for u in ub if u is not None})
        self.upper = [None if u is None else u.numerator * (scale // u.denominator) for u in ub]
        self.upper += [None] * m
        self.up = [False] * n
        self.T: list[list[int]] = []
        self.den: list[int] = []
        for row, (S, D) in zip(p.rows, p.int_rows):
            new = list(S) if row.sense == LE else [-v for v in S]
            new[-1] *= scale
            self.T.append(new)
            self.den.append(D)
        self.obj, self.obj_den = integers(p.objective)
        self.obj.append(0)
        self.iterations = self.flips = 0

    def run(self) -> int:
        """Pivot until every basic value is in its bounds; -1, or the row proving infeasibility.

        ``BLAND_AFTER`` and ``MAX_PIVOTS`` are read as the run starts.  A
        pivot is degenerate when the entering reduced cost is 0 (within
        ``tie``).
        """
        degenerate_streak, bland_after, max_pivots = 0, BLAND_AFTER, MAX_PIVOTS
        while True:
            found = self.leaving(degenerate_streak >= bland_after)
            if found is None:
                return -1
            leave, high = found
            enter, flips = self.entering(self.facing(leave))
            if enter < 0:
                return leave  # not even every flip makes the row feasible
            if self.iterations >= max_pivots:
                raise LimitError(f"simplex exceeded {max_pivots} pivots")
            self.iterations += 1
            degenerate = abs(self.obj[enter]) <= self.tie
            degenerate_streak = degenerate_streak + 1 if degenerate else 0
            self.flip(flips)
            self.pivot(leave, enter, high)

    def leaving(self, bland: bool) -> tuple[int, bool] | None:
        """The row to leave and whether it leaves at its bound; None if all are in bounds.

        A basic value below 0, or a basic structural's above its bound, is
        infeasible.  The most infeasible row leaves, ties to the lowest row
        and a row above its bound after every row below 0; under Bland's
        rule the one with the lowest label, a bound's after every variable's.
        """
        n, m, upper, basis, den, tie = self.n, self.m, self.upper, self.basis, self.den, self.tie
        best = None  # (infeasibility over d, d, tie key, Bland key, row, above its bound)
        for i, row in enumerate(self.T):
            v, d, b = row[-1], den[i], basis[i]
            if v < -tie:
                cand = (-v, d, i, b, i, False)
            else:
                u = upper[b]
                if u is None or v - u * d <= tie:
                    continue
                cand = (v - u * d, d, m + b, n + m + b, i, True)
            if best is not None:
                if bland:
                    if cand[3] > best[3]:
                        continue
                else:
                    lhs, rhs = cand[0] * best[1], best[0] * cand[1]
                    if lhs < rhs - tie or (lhs <= rhs + tie and cand[2] > best[2]):
                        continue
            best = cand
        return None if best is None else best[4:]

    def facing(self, r: int) -> list:
        """Row r read toward feasibility: as stored if its value is below 0.

        A row above its bound is read as the bound's slack ``u - x`` would
        be: negated, with the bound added to its value.
        """
        row = self.T[r]
        if row[-1] < 0:
            return row
        out = [-v for v in row]
        out[-1] += self.upper[self.basis[r]] * self.den[r]
        return out

    def entering(self, lrow: list) -> tuple[int, list[int]]:
        """The entering column by the long-step rule, and the columns to flip first.

        ``lrow``'s value is negative.  A column is a breakpoint if its
        variable is at 0 and its entry negative, or at its bound and its
        entry positive; its ratio is its reduced cost over its entry, both
        read toward its other bound.  The breakpoints are taken least ratio
        first, ties to the lowest label; the ratios share the denominators
        ``obj_den`` and the row's, so they compare by cross-multiplying
        numerators.  One whose variable has a bound is passed, and flipped,
        while the row's value stays below ``-tie`` after its flip; the first
        that is not passed enters (Fourer, 1994; Kostina, 2002).  (-1,
        flips) if every breakpoint is passed: then no point meets the row.
        """
        obj, nonbasic, upper, up, tie = self.obj, self.nonbasic, self.upper, self.up, self.tie
        breaks = []  # (|entry|, reduced cost toward the other bound, label, column)
        for q, (a, high) in enumerate(zip(lrow, up)):
            if high:
                if a > tie:
                    breaks.append((a, -obj[q], nonbasic[q], q))
            elif a < -tie:
                breaks.append((-a, obj[q], nonbasic[q], q))
        slope, flips = -lrow[-1], []
        while breaks:
            k, (a, d, label, q) = 0, breaks[0]
            for i in range(1, len(breaks)):
                b = breaks[i]
                lhs, rhs = b[1] * a, d * b[0]
                if lhs < rhs - tie or (lhs <= rhs + tie and b[2] < label):
                    k, (a, d, label, q) = i, b
            u = upper[label]
            if u is None or slope - a * u <= tie:
                return q, flips
            slope -= a * u
            flips.append(q)
            del breaks[k]
        return -1, flips

    def flip(self, cols: list[int]) -> None:
        """Move each nonbasic column of ``cols`` to its other bound, with every value it moves."""
        steps = []
        for q in cols:
            u = self.upper[self.nonbasic[q]]
            if self.up[q]:
                u = -u
            self.up[q] = not self.up[q]
            if u:
                steps.append((q, u))
        self.flips += len(cols)
        for row in (*self.T, self.obj) if steps else ():
            for q, u in steps:
                row[-1] -= row[q] * u

    def pivot(self, r: int, e: int, high: bool) -> None:
        """Exchange row r's basic variable with column e's; it leaves at its bound if ``high``."""
        leave, enter = self.basis[r], self.nonbasic[e]
        if high:
            self.T[r][-1] -= self.upper[leave] * self.den[r]
        p = self.exchange(r, e)
        if self.up[e]:  # it enters from its bound, not from 0
            self.T[r][-1] += self.upper[enter] * p
        self.up[e] = high
        self.basis[r], self.nonbasic[e] = enter, leave

    def exchange(self, r: int, e: int) -> int:
        """A pivot's arithmetic on every row and the objective; the pivot row's new denominator."""
        prow = self.T[r]
        p = prow[e]
        prow[e] = self.den[r]  # the leaving variable's unit entry
        if p < 0:
            prow = [-v for v in prow]
            p = -p
        if p.bit_length() > REDUCE_BITS:
            g = gcd(p, *prow)
            if g > 1:
                prow = [v // g for v in prow]
                p //= g
        self.T[r] = prow
        self.den[r] = p
        T, dens = self.T, self.den
        for i, row in enumerate(T):
            if i != r and row[e]:
                T[i], dens[i] = _eliminate(row, dens[i], prow, p, e)
        if self.obj[e]:
            self.obj, self.obj_den = _eliminate(self.obj, self.obj_den, prow, p, e)
        return p


class _FloatTableau(_Tableau):
    """``_Tableau``'s bounded dual simplex in floats, to find a basis for ``_guided``.

    It runs the inherited rules, with ``tie`` set to ``FLOAT_TIE``.  Each
    entry is the float of its rational, and each denominator is 1, so the
    inherited cross-multiplications work on the values as they are.  A
    rational beyond the float range raises ``OverflowError``.  A pivot
    skips a row whose entry in the entering column is 0 within ``tie``.
    """

    tie = FLOAT_TIE

    def __init__(self, p: LpProblem):
        super().__init__(p)
        self.T = [[v / d for v in row] for row, d in zip(self.T, self.den)]
        self.den = [1] * self.m
        self.obj = [v / self.obj_den for v in self.obj]
        self.obj_den = 1
        self.upper = [None if u is None else float(u) for u in self.upper]

    def exchange(self, r: int, e: int) -> int:
        prow = self.T[r]
        p = prow[e]
        prow[e] = 1.0
        prow = self.T[r] = [v / p for v in prow]
        T, inv = self.T, prow[e]
        for i, row in enumerate(T):
            f = row[e]
            if i != r and abs(f) > FLOAT_TIE:
                T[i] = new = [v - f * w for v, w in zip(row, prow)]
                new[e] = -f * inv
        f = self.obj[e]
        if abs(f) > FLOAT_TIE:
            self.obj = new = [v - f * w for v, w in zip(self.obj, prow)]
            new[e] = -f * inv
        return 1


def solve_lp(p: LpProblem) -> LpSolution:
    """Bounded dual simplex from the all-slack basis with exact certificates.

    Every cost must be nonnegative (``InstanceError`` otherwise), so the
    objective is bounded below by 0 and the result is OPTIMAL or
    INFEASIBLE.  The leaving row is the most infeasible one, and the
    entering column comes from the long-step ratio test, which flips each
    bounded variable it passes to its other bound; ties go to the lowest
    index.  After ``BLAND_AFTER`` consecutive degenerate pivots Bland's
    rule picks the leaving row, and more than ``MAX_PIVOTS`` pivots raise
    ``LimitError``.  The same problem always yields the same solution.

    An LP of at least ``GUIDED_MIN_CELLS`` cells (rows times variables,
    read at call time) is first solved by ``_guided``: the same rules in
    floats, then the final basis solved exactly and certified by
    ``verify_certificate``.  Every other LP, and every one ``_guided`` gives
    up on (an infeasible row, the pivot cap, a float out of range, a
    singular basis or a failed certificate), runs the exact tableau, the
    only source of a Farkas ray.  ``iterations`` counts the pivots of the
    run that found the basis: the float run's on the guided path.  Only a
    guided result (``guided``) has had its certificate checked here.
    """
    nonnegative(p.objective, "objective")
    if len(p.rows) * len(p.objective) >= GUIDED_MIN_CELLS:
        guided = _guided(p)
        if guided is not None:
            return guided
    t = _Tableau(p)
    r = t.run()
    if r >= 0:
        d = t.den[r]  # the basic entry: negated with the row if it is above its bound
        basic = ((t.basis[r], d if t.T[r][-1] < 0 else -d),)
        ray_rows, ray_bounds = _duals(p, t, t.facing(r), d, basic)
        return LpSolution(
            "INFEASIBLE", t.iterations, ray_rows=ray_rows, ray_bounds=ray_bounds
        )
    x = [ZERO] * t.n
    for i, b in enumerate(t.basis):
        if b < t.n:
            x[b] = Fraction(t.T[i][-1], t.den[i] * t.scale)
    for j, up in zip(t.nonbasic, t.up):
        if up:
            x[j] = p.var_bounds[j]
    dual_rows, dual_bounds = _duals(p, t, t.obj, t.obj_den)
    return LpSolution(
        "OPTIMAL",
        t.iterations,
        primal=FractionalVector(x),
        objective_value=Fraction(-t.obj[-1], t.obj_den * t.scale),
        dual_rows=dual_rows,
        dual_bounds=dual_bounds,
    )


def _guided(p: LpProblem) -> LpSolution | None:
    """The float run's optimal basis, solved exactly and certified; None to run exactly.

    The final basis is read off the float tableau: the user rows whose
    slack is nonbasic, as tight, the variables at their bound, and every
    other nonbasic structural at 0.  The basic structurals (``cols``) then
    solve the tight rows' k x k integer system, and the row duals of the
    tight rows its transpose against the costs of ``cols``: every other row
    dual is 0, and a bound dual is the reduced cost left at its bound.
    None on an infeasible row, the pivot cap, a float out of range, a
    singular basis, a negative point or a failed certificate.
    """
    try:
        t = _FloatTableau(p)
        if t.run() >= 0:
            return None  # the exact tableau finds the Farkas ray
    except (LimitError, OverflowError):
        return None
    if not all(map(isfinite, (*t.obj, *(row[-1] for row in t.T)))):
        return None
    n, m = t.n, t.m
    tight = [v - n for v in t.nonbasic if v >= n]
    at_bound = [j for j, up in zip(t.nonbasic, t.up) if up]
    cols = sorted(b for b in t.basis if b < n)  # one label a row: as many as the tight rows
    rows = [p.int_rows[i][0] for i in tight]
    U, Du = integers([p.var_bounds[j] for j in at_bound])
    # sum over cols of S[j] x_j = S[n] - sum over at_bound of S[j] u_j, times Du
    rhs = [S[n] * Du - sum(S[j] * u for j, u in zip(at_bound, U)) for S in rows]
    primal = _fraction_free_solve([[S[j] for j in cols] + [b] for S, b in zip(rows, rhs)])
    C, Dc = integers(p.objective)
    # sum over tight rows of w_i S_i[j] = c_j for j in cols, with y_i = w_i D_i
    weights = _fraction_free_solve([[S[j] for S in rows] + [C[j]] for j in cols])
    if primal is None or weights is None:
        return None
    (X, dx), (Y, dy) = primal, weights
    x = [ZERO] * n
    for j, v in zip(cols, X):
        x[j] = Fraction(v, dx * Du)
    for j in at_bound:
        x[j] = p.var_bounds[j]
    if min(x, default=ZERO) < 0:
        return None  # not primal feasible, and no FractionalVector
    y = [ZERO] * m
    for i, v in zip(tight, Y):
        y[i] = Fraction(v * p.int_rows[i][1], dy * Dc)
    z = [ZERO] * n
    for j in at_bound:  # the reduced cost, over dy * Dc
        z[j] = Fraction(C[j] * dy - sum(v * S[j] for v, S in zip(Y, rows)), dy * Dc)
    value = sum(C[j] * v for j, v in zip(cols, X)) + dx * sum(
        C[j] * u for j, u in zip(at_bound, U)
    )
    s = LpSolution(
        "OPTIMAL",
        t.iterations,
        primal=FractionalVector(x),
        objective_value=Fraction(value, Dc * dx * Du),
        dual_rows=tuple(y),
        dual_bounds=tuple(z),
        guided=True,
    )
    return None if verify_certificate(p, s) else s


def _fraction_free_solve(M: list[list[int]]) -> tuple[list[int], int] | None:
    """Solve the k x k integer system whose rows ``M`` hold k coefficients, then the rhs.

    Gauss-Jordan elimination in Bareiss's integer-preserving form: after
    column ``c`` is eliminated every entry is a minor of ``M`` of order
    ``c + 1``, so each division by the previous pivot is exact, and each
    row's diagonal entry is the last pivot ``det``.  The columns already
    eliminated are not rewritten.  Returns ``(X, det)`` with ``x_i = X[i] /
    det``, or None if ``M`` is singular.  ``M`` is consumed.
    """
    k, prev = len(M), 1
    for c in range(k):
        r = next((i for i in range(c, k) if M[i][c]), -1)
        if r < 0:
            return None
        M[c], M[r] = M[r], M[c]
        p, tail = M[c][c], M[c][c + 1 :]
        for i, row in enumerate(M):
            if i != c:
                f = row[c]
                row[c + 1 :] = [(p * v - f * w) // prev for v, w in zip(row[c + 1 :], tail)]
        prev = p
    return [row[k] for row in M], prev


def _duals(p: LpProblem, t: _Tableau, vec: list[int], den: int, basic: tuple = ()):
    """Row and bound duals, or a Farkas ray, from the entries of ``vec / den``.

    With the objective row, the nonbasic slack reduced costs give the row
    duals, a basic slack's is 0, and each bound dual is the reduced cost of
    a variable at its bound, at most 0.  With an infeasible row as
    ``facing`` reads it, and ``basic`` its basic column's (label, entry):
    ``den``, or ``-den`` where the row was negated.  Its slack entries ``w``
    combine the ``<=``-form rows into one that no point in the bounds
    meets, and negating that combination gives the ray; its bound part is
    each negative structural entry, the variables the ratio test passed to
    their bound and those it found there.  Either way a ``>=`` row, stored
    negated, gets ``w_i`` and a ``<=`` row ``-w_i``.
    """
    n = t.n
    w = [0] * (n + t.m)  # by label
    for label, v in (*zip(t.nonbasic, vec), *basic):
        w[label] = v
    dual_rows = tuple(
        Fraction(v if row.sense == GE else -v, den) if v else ZERO
        for v, row in zip(w[n:], p.rows)
    )
    return dual_rows, tuple(Fraction(v, den) if v < 0 else ZERO for v in w[:n])


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
    ``LpSolution`` can have one, and it raises ``InstanceError``, as does
    a primal, dual or ray vector without one entry per variable or row,
    and an entry or a reported value that ``as_fraction`` cannot read.

    Every check runs in integers: each row over its ``D_i`` (``int_rows``),
    and ``x``, the bound duals, the costs and the weights ``y_i / D_i`` each
    over one denominator.  Only the amount of each violation, the exact
    rational, and the values the gap check compares are ``Fraction``.
    """
    n, m = len(p.objective), len(p.rows)
    out: list[CertificateViolation] = []
    if s.status == "OPTIMAL":
        x = as_vector(s.primal, "primal", n)
        rows = as_vector(s.dual_rows, "dual_rows", m)
        bounds, cost = as_vector(s.dual_bounds, "dual_bounds", n), p.objective
        X, Dx = integers(x)
        for j, v in enumerate(X):
            if v < 0:
                out.append(CertificateViolation("primal_nonneg", j, -x[j]))
        for i, (row, (A, D)) in enumerate(zip(p.rows, p.int_rows)):
            lhs = sum(map(mul, A, X))  # X has no entry for A's last, the rhs
            gap = lhs - A[n] * Dx if row.sense == GE else A[n] * Dx - lhs
            if gap < 0:
                out.append(CertificateViolation("primal_row", i, Fraction(-gap, D * Dx)))
        for j, u in enumerate(p.var_bounds):
            if u is not None and X[j] * u.denominator > u.numerator * Dx:
                out.append(CertificateViolation("primal_bound", j, x[j] - u))
    elif s.status == "INFEASIBLE":
        rows = as_vector(s.ray_rows, "ray_rows", m)
        bounds, cost = as_vector(s.ray_bounds, "ray_bounds", n), (ZERO,) * n
    else:
        raise InstanceError(f"an {s.status} result carries no certificate")
    for i, row in enumerate(p.rows):
        y = rows[i].numerator
        if (y < 0) if row.sense == GE else (y > 0):
            out.append(CertificateViolation("dual_sign_row", i, abs(rows[i])))
    for j, u in enumerate(p.var_bounds):
        # a bound dual is <= 0, and 0 where there is no bound to price it
        z = bounds[j].numerator
        if z > 0 or (u is None and z):
            out.append(CertificateViolation("dual_sign_bound", j, abs(bounds[j])))
    # y^T A over Dw, rhs column last: the rows with a nonzero weight, column by column;
    # y_i / D_i is (yn / g) / (yd D_i / g) in lowest terms, g = gcd(yn, D_i)
    W, dens = [], []
    for y, (_, D) in zip(rows, p.int_rows):
        g = gcd(y.numerator, D)
        W.append(y.numerator // g)
        dens.append(y.denominator * D // g)
    Dw = lcm(*dens)
    W = [w * (Dw // d) for w, d in zip(W, dens)]
    live = [(w, A) for w, (A, _) in zip(W, p.int_rows) if w]
    weights = [w for w, _ in live]
    yA = [sum(map(mul, weights, col)) for col in zip(*(A for _, A in live))] or [0] * (n + 1)
    # z_j + (y^T A)_j - c_j over Dz * Dw * Dc
    (Z, Dz), (C, Dc) = integers(bounds), integers(cost)
    DwDc, DzDc, DzDw = Dw * Dc, Dz * Dc, Dz * Dw
    for j in range(n):
        over = Z[j] * DwDc + yA[j] * DzDc - C[j] * DzDw
        if over > 0:
            out.append(CertificateViolation("dual_feasibility", j, Fraction(over, DzDw * Dc)))
    # the dual objective, y^T rhs + z^T u, over Dw * Dz * Du
    U, Du = integers([u for u in p.var_bounds if u is not None])
    zu = sum(map(mul, (z for z, u in zip(Z, p.var_bounds) if u is not None), U))
    value = Fraction(yA[n] * Dz * Du + Dw * zu, DzDw * Du)
    if s.status == "OPTIMAL":
        cx = Fraction(sum(map(mul, C, X)), Dc * Dx)
        for primal_value in (as_fraction(s.objective_value, "objective_value"), cx):
            if primal_value != value:
                out.append(CertificateViolation("duality_gap", 0, abs(primal_value - value)))
    elif value <= 0:
        out.append(CertificateViolation("farkas_value", 0, -value))
    return out
