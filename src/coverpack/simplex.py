"""Dense exact LP solver with primal/dual certificates.

Dual simplex over the rationals, exactly, from the all-slack basis
(Lemke 1954).  Every LP this package builds is min c.x with c >= 0, so
that basis is dual feasible from the start and the objective is bounded
below by 0: one pass of pivots ends at an optimum or at a row that proves
infeasibility.  The tableau is condensed (Tucker's Jordan exchange): a
basic column is a unit vector, so each row stores only the ``n``
nonbasic columns and the rhs, and a pivot exchanges the labels of the
entering and leaving variables.  A row is ``n + 1`` Python integers over
one positive row denominator, and pivots are integer-preserving
(Edmonds; Bareiss), so no ``Fraction`` is built while pivoting.  A row is
reduced by its gcd only once its denominator passes ``2**REDUCE_BITS``;
every pivot choice compares the rationals the integers stand for, exactly.
Problems come in as rationals, and each row is stored once, as integers
over its denominator.  Results go out as ``Fraction``: an OPTIMAL result
carries a primal point and a dual vector whose objectives agree with zero
gap, and an INFEASIBLE result carries an exact Farkas ray;
``verify_certificate`` checks either certificate, the ray included,
exactly, in integers.

An LP of at least ``GUIDED_MIN_CELLS`` cells (rows times variables) is
first solved the way exact LP solvers certify a float basis (Dhiflaoui et
al., SODA 2003; Applegate, Cook, Dash & Espinoza, Oper. Res. Lett. 35,
2007): a dual simplex runs in floats, with ties within ``FLOAT_TIE``, and
its final basis is solved exactly, by fraction-free (Bareiss) elimination
on the tight rows and basic structural columns for the point and on their
transpose for the row duals.  The result is kept only if
``verify_certificate`` passes; otherwise, and on an infeasible row, the
pivot cap, a float out of range or a singular basis, the exact tableau
runs as for every smaller LP.  Two float runs can give the basis.  The
bounded run keeps every bound implicit: a nonbasic variable sits at 0 or
at its bound, and the long-step ratio test of the bounded dual simplex
moves it from one to the other without a pivot (Fourer, "Notes on the
dual simplex method", 1994; Kostina, Math. Methods Oper. Res. 55, 2002),
so it stores no bound row.  It takes another path than the exact run, so
its optimum is kept only where it is the LP's only optimal point and dual
vector, which every path ends at.  Elsewhere the mirror run, the exact
run's own pivots in floats, gives the exact run's basis.  The bounded run
goes first only where a bound can bind a row by itself (some variable at
its bound falls short of a ``>=`` row it is in); elsewhere, as in a set
cover, the mirror run goes alone.  The size rule comes from a break-even
ladder of ``solve_lp`` alone on random CPIPs, six seeds a size (CPython
3.11, 2 vCPUs), measured with the mirror run alone: the guided path ran
0.5-0.8x as fast, in the median, up to 8x12 (120 cells); at 10x15 and
11x16 (180-208 cells) 1.1-1.3x in the median but down to 0.81x on single
LPs; from 12x17 (238 cells) on never below 1.0x, and 2.4x at 20x30 (690
cells) and 3.5x at 40x60 (2,580).  The rule sees only the size: 0/1
set-cover LPs, whose exact pivots stay small, ran 0.5-0.7x guided at
200-800 cells.  ``LpSolution.iterations`` counts the pivots of the run
that found the basis: a float run's on the guided path, where a flip is
not a pivot.

Row order inside an ``LpProblem`` built from an instance is fixed and
documented: covering rows, then packing rows, then any cut rows in
insertion order.  In the exact tableau a variable upper bound is a bound
row, never a big-M term, and it enters the tableau only once it is
violated: until then its slack is basic at ``u_j - x_j`` and the row is
implied by ``x_j``'s row.  The exact run breaks ties on the indices of the
full tableau, every column and every bound row present, so its pivots are
that tableau's.

Dual sign convention (minimization): duals of >= rows are >= 0, duals of
<= rows and of upper bounds are <= 0, and the dual objective is
``sum_i y_i rhs_i + sum_j ybound_j u_j``.

Solver state is confined to a single ``solve_lp`` call; concurrent
solves on distinct problems are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isfinite, lcm
from operator import itemgetter, mul
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
GUIDED_MIN_CELLS = 250
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
    """Mutable dual simplex state: the user rows, then each bound row once violated.

    The tableau is condensed: only the ``n`` nonbasic columns are stored,
    and ``nonbasic[q]`` is the full-tableau column of stored column ``q``.
    Row ``i`` is held as integers ``T[i]`` over one positive denominator
    ``den[i]``, so its entries are the rationals ``T[i][q] / den[i]``, its
    last entry is the right-hand side, and its basic column ``basis[i]``
    holds the dropped unit entry ``den[i] / den[i]``.  Pivots are
    integer-preserving (Edmonds 1967, Bareiss 1968), so every row equals the
    full tableau's as rationals; a rewritten row is reduced by the gcd of
    its entries and denominator once that denominator passes
    ``2**REDUCE_BITS``.  The objective row ``obj`` over ``obj_den`` holds
    the nonbasic reduced costs, with ``-z`` last.

    Every user row is stored in ``<=`` form (a ``>=`` row is negated) with
    its own slack, full column ``n + i``, basic: the basis starts as all
    slacks.  The reduced costs start as the cost vector, so with no
    negative cost that basis is dual feasible: a row with a negative rhs is
    only primal infeasible.

    The bound ``x_j + s = u_j`` of the ``k``-th bounded variable is row
    ``M + k`` of the full tableau (``M`` user rows), with its slack at
    column ``n + M + k``.  That slack stays basic until the row leaves, and
    until then the row is ``e_j + s`` minus the row where ``x_j`` is basic,
    with value ``u_j - x_j``; so it is not stored until that value is chosen
    to leave, and then it is appended.  ``rows`` and ``basis`` give each
    stored row's full-tableau row and basic column.  Every tie is broken on
    these and on ``nonbasic``, so the pivots are exactly those of the full
    tableau.  Values tie, and count as 0, within ``tie``: exactly, here.
    """

    tie = 0

    def __init__(self, p: LpProblem):
        n = self.n = len(p.objective)
        m = self.m = len(p.rows)
        self.bounded = [j for j, u in enumerate(p.var_bounds) if u is not None]
        # (k, numerator, denominator) of x_j's bound while its row is not stored
        self.pending: list[tuple[int, int, int] | None] = [None] * n
        for k, j in enumerate(self.bounded):
            u = p.var_bounds[j]
            self.pending[j] = (k, u.numerator, u.denominator)
        self.rows = list(range(m))
        self.nonbasic = list(range(n))
        self.basis = list(range(n, n + m))
        self.T: list[list[int]] = []
        self.den: list[int] = []
        for row, (scaled, D) in zip(p.rows, p.int_rows):
            # row i over its denominator D, as given in int_rows
            self.T.append(list(scaled) if row.sense == LE else [-v for v in scaled])
            self.den.append(D)
        self.obj, self.obj_den = integers(p.objective)
        self.obj.append(0)
        self.iterations = 0

    def add_bound_row(self, i: int, k: int) -> int:
        """Store bound row ``k``, whose variable is basic in row ``i``; its index.

        The row is ``e_j + s - T[i] / den[i]`` over ``lcm(den[i], u.denominator)``,
        with rhs ``u_j - x_j``.  ``x_j`` and ``s`` are basic, so its stored
        entries are ``-T[i]``'s, with the rhs shifted by ``u_j``.
        """
        j = self.bounded[k]
        _, U, Du = self.pending[j]
        self.pending[j] = None
        d = self.den[i]
        L = lcm(d, Du)
        f = L // d
        new = [-v * f for v in self.T[i]]
        new[-1] += U * (L // Du)
        self.T.append(new)
        self.den.append(L)
        self.rows.append(self.m + k)
        self.basis.append(self.n + self.m + k)
        return len(self.T) - 1

    def pivot(self, r: int, e: int) -> None:
        """Exchange basis row r's variable with column e's, updating the objective row too."""
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
        self.basis[r], self.nonbasic[e] = self.nonbasic[e], self.basis[r]

    def leaving(self, bland: bool) -> tuple | None:
        """The row to leave as (stored row, bound k or -1), or None if all values are >= 0.

        The most negative basic value leaves, ties to the lowest full-tableau
        row; under Bland's rule the negative row with the lowest basic
        column.  A stored row whose basic ``x_j`` has an unstored bound row
        also stands for that row, at value ``u_j - x_j``.  Values compare
        by cross-multiplication, equal within ``tie``.
        """
        n, m, pending, tie = self.n, self.m, self.pending, self.tie
        best = None  # (numerator, denominator, full row, basic column, stored row, k)
        for i, trow in enumerate(self.T):
            v, d, b = trow[-1], self.den[i], self.basis[i]
            if v < -tie:
                cand = (v, d, self.rows[i], b, i, -1)
            elif b < n and pending[b] is not None:
                k, U, Du = pending[b]
                w = U * d - v * Du  # (u_j - x_j) * d * Du
                if w >= -tie:
                    continue
                cand = (w, d * Du, m + k, n + m + k, i, k)
            else:
                continue
            if best is not None:
                if bland:
                    if cand[3] > best[3]:
                        continue
                else:
                    lhs, rhs = cand[0] * best[1], best[0] * cand[1]
                    if lhs > rhs + tie or (lhs >= rhs - tie and cand[2] > best[2]):
                        continue
            best = cand
        return None if best is None else best[4:]

    def run(self) -> int:
        """Pivot until every basic value is >= 0; -1, or the row proving infeasibility.

        ``BLAND_AFTER`` and ``MAX_PIVOTS`` are read as the run starts.  A
        pivot is degenerate when the entering reduced cost is 0 (within
        ``tie``).
        """
        degenerate_streak, bland_after, max_pivots = 0, BLAND_AFTER, MAX_PIVOTS
        while True:
            found = self.leaving(degenerate_streak >= bland_after)
            if found is None:
                return -1
            leave, k = found
            if k >= 0:
                leave = self.add_bound_row(leave, k)
            enter = self.entering(self.T[leave])
            if enter < 0:
                return leave  # every entry is >= 0 and the rhs is < 0
            if self.iterations >= max_pivots:
                raise LimitError(f"simplex exceeded {max_pivots} pivots")
            self.iterations += 1
            degenerate = abs(self.obj[enter]) <= self.tie
            degenerate_streak = degenerate_streak + 1 if degenerate else 0
            self.pivot(leave, enter)

    def entering(self, lrow: list) -> int:
        """The least ``obj[q] / -a_q`` over the negative entries ``a_q``, ties to the lowest label.

        -1 if no entry is negative.  The ratios of one row share the
        denominators ``obj_den`` and the row's, so they compare by
        cross-multiplying numerators, equal within ``tie``.
        """
        obj, nonbasic, tie, enter = self.obj, self.nonbasic, self.tie, -1
        for q in range(self.n):
            a = lrow[q]
            if a < -tie:
                if enter >= 0:
                    lhs, rhs = obj[q] * -lrow[enter], obj[enter] * -a
                    if lhs > rhs + tie or (lhs >= rhs - tie and nonbasic[q] > nonbasic[enter]):
                        continue
                enter = q
        return enter


class _FloatTableau:
    """A bounded dual simplex in floats, to find a basis for ``_guided``.

    The condensed tableau of ``_Tableau`` in floats, one row per user row
    and no bound row: a bound is kept implicit (Dantzig's upper-bounding
    technique).  A nonbasic structural sits at 0 or, once its label is in
    ``at_upper``, at its bound; the last entry of a row is the value of its
    basic variable with every nonbasic at its own value, and ``obj[-1]`` is
    ``-z``.  A basic value below 0, or a basic structural's above its bound,
    is infeasible, and the most infeasible row leaves (ties within
    ``FLOAT_TIE`` to the lowest row, a bound after every user row), under
    Bland's rule the one with the lowest label.  ``entering`` is the
    long-step ratio test of the bounded dual simplex (Fourer 1994; Kostina
    2002): it passes each breakpoint whose variable has a bound, flipping
    that variable to its other bound, while the leaving row stays
    infeasible.  A pivot counts toward ``MAX_PIVOTS`` and Bland's switch, a
    flip toward neither; ``flips`` counts them apart.  Each entry is the
    float of its rational; one beyond the float range raises
    ``OverflowError``.  A pivot skips a row whose entry in the entering
    column is 0 within ``FLOAT_TIE``.
    """

    def __init__(self, p: LpProblem):
        n = self.n = len(p.objective)
        m = self.m = len(p.rows)
        self.nonbasic = list(range(n))
        self.basis = list(range(n, n + m))
        # by label: a structural's bound, and None for no bound and for a slack
        self.upper = [None if u is None else u.numerator / u.denominator for u in p.var_bounds]
        self.upper += [None] * m
        self.at_upper: set[int] = set()
        self.T = [
            [v / D for v in S] if row.sense == LE else [-v / D for v in S]
            for row, (S, D) in zip(p.rows, p.int_rows)
        ]
        obj, obj_den = integers(p.objective)
        self.obj = [v / obj_den for v in obj] + [0.0]
        self.iterations = self.flips = 0

    def leaving(self, bland: bool) -> tuple[int, bool] | None:
        """The row to leave and whether it leaves at its bound; None if all are in bounds."""
        n, m, upper, basis = self.n, self.m, self.upper, self.basis
        best = None  # (infeasibility, tie key, label, row, above its bound)
        for i, row in enumerate(self.T):
            v, b = row[-1], basis[i]
            if v < -FLOAT_TIE:
                cand = (-v, i, b, i, False)
            else:
                u = upper[b]
                if u is None or v - u <= FLOAT_TIE:
                    continue
                cand = (v - u, m + b, n + m + b, i, True)
            if best is not None:
                if bland:
                    if cand[2] > best[2]:
                        continue
                elif cand[0] < best[0] - FLOAT_TIE or (
                    cand[0] <= best[0] + FLOAT_TIE and cand[1] > best[1]
                ):
                    continue
            best = cand
        return None if best is None else best[3:]

    def run(self) -> int:
        """Pivot until every basic value is in its bounds; -1, or the row proving infeasibility.

        A row above its bound is read as the bound row ``u_j - x_j`` would
        be: negated, with the bound added to its value.  ``BLAND_AFTER``
        and ``MAX_PIVOTS`` are read as the run starts.  A pivot is
        degenerate when the entering reduced cost is 0 within ``FLOAT_TIE``.
        """
        degenerate_streak, bland_after, max_pivots = 0, BLAND_AFTER, MAX_PIVOTS
        while True:
            found = self.leaving(degenerate_streak >= bland_after)
            if found is None:
                return -1
            leave, high = found
            lrow = self.T[leave]
            if high:
                lrow = [-v for v in lrow]
                lrow[-1] += self.upper[self.basis[leave]]
            enter, flips = self.entering(lrow)
            if enter < 0:
                return leave  # not even every flip makes the row feasible
            if self.iterations >= max_pivots:
                raise LimitError(f"simplex exceeded {max_pivots} pivots")
            self.iterations += 1
            degenerate = abs(self.obj[enter]) <= FLOAT_TIE
            degenerate_streak = degenerate_streak + 1 if degenerate else 0
            self.flip(flips)
            self.pivot(leave, enter, high)

    def entering(self, lrow: list) -> tuple[int, list[int]]:
        """The entering column by the long-step rule, and the columns to flip first.

        ``lrow``'s value is negative.  A column is a breakpoint if its
        variable is at 0 and its entry negative, or at its bound and its
        entry positive; its ratio is its reduced cost over its entry, both
        read toward its other bound.  The breakpoints are taken by ratio;
        those within ``FLOAT_TIE`` of the least one left tie, and go lowest
        label first.  One whose variable has a bound is passed, and flipped,
        while the row's value stays below ``-FLOAT_TIE`` after its flip; the
        first that is not passed enters.  (-1, flips) if every breakpoint is
        passed: then no point meets the row.
        """
        obj, nonbasic, upper, at_upper = self.obj, self.nonbasic, self.upper, self.at_upper
        breaks = []  # (ratio, label, column, |entry|)
        for q, (a, d, label) in enumerate(zip(lrow, obj, nonbasic)):
            if label in at_upper:
                a, d = -a, -d
            if a < -FLOAT_TIE:
                breaks.append((d / -a, label, q, -a))
        breaks.sort()
        slope, flips, k = -lrow[-1], [], 0
        while k < len(breaks):
            j, top = k + 1, breaks[k][0] + FLOAT_TIE
            while j < len(breaks) and breaks[j][0] <= top:
                j += 1
            for _, label, q, a in sorted(breaks[k:j], key=itemgetter(1)):
                u = upper[label]
                if u is None or slope - a * u <= FLOAT_TIE:
                    return q, flips
                slope -= a * u
                flips.append(q)
            k = j
        return -1, flips

    def flip(self, cols: list[int]) -> None:
        """Move each nonbasic column of ``cols`` to its other bound, with every value it moves."""
        steps = []
        for q in cols:
            label = self.nonbasic[q]
            u = self.upper[label]
            if label in self.at_upper:
                self.at_upper.remove(label)
                u = -u
            else:
                self.at_upper.add(label)
            if u:
                steps.append((q, u))
        self.flips += len(cols)
        if steps:
            for row in (*self.T, self.obj):
                row[-1] -= sum(row[q] * u for q, u in steps)

    def pivot(self, r: int, e: int, high: bool) -> None:
        """Exchange row r's basic variable with column e's; it leaves at its bound if ``high``."""
        prow = self.T[r]
        p = prow[e]
        prow[e] = 1.0
        leave, enter = self.basis[r], self.nonbasic[e]
        if high:
            prow[-1] -= self.upper[leave]
            self.at_upper.add(leave)
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
        if enter in self.at_upper:  # it enters from its bound, not from 0
            self.at_upper.remove(enter)
            prow[-1] += self.upper[enter]
        self.basis[r], self.nonbasic[e] = enter, leave

    def fixed(self) -> tuple[list[int], list[int], set[int]]:
        """The tight rows, the variables at their bound, and every nonbasic structural."""
        n, nonbasic = self.n, self.nonbasic
        at_bound = [v for v in nonbasic if v in self.at_upper]
        return [v - n for v in nonbasic if v >= n], at_bound, {v for v in nonbasic if v < n}


class _FloatMirror(_Tableau):
    """``_Tableau``'s dual simplex in floats: the exact run's basis, for ``_guided``.

    It runs the inherited rules: the same leaving and entering choices,
    bound rows stored once violated, and ties to the same indices, with
    ``tie`` set to ``FLOAT_TIE`` as it is built.  Each entry is the float
    of its rational, and each denominator (``den`` and the bounds') is 1,
    so the inherited cross-multiplications and ``add_bound_row`` work on
    the values as they are.  A rational beyond the float range raises
    ``OverflowError``.  A pivot skips a row whose entry in the entering
    column is 0 within ``tie``.
    """

    def __init__(self, p: LpProblem):
        super().__init__(p)
        self.tie = FLOAT_TIE
        self.T = [[v / d for v in row] for row, d in zip(self.T, self.den)]
        self.den = [1] * len(self.T)
        self.obj = [v / self.obj_den for v in self.obj]
        self.pending = [None if b is None else (b[0], b[1] / b[2], 1) for b in self.pending]

    def pivot(self, r: int, e: int) -> None:
        prow = self.T[r]
        p = prow[e]
        prow[e] = 1.0
        prow = self.T[r] = [v / p for v in prow]
        T, inv, tie = self.T, prow[e], self.tie
        for i, row in enumerate(T):
            f = row[e]
            if i != r and abs(f) > tie:
                T[i] = new = [v - f * w for v, w in zip(row, prow)]
                new[e] = -f * inv
        f = self.obj[e]
        if abs(f) > tie:
            self.obj = new = [v - f * w for v, w in zip(self.obj, prow)]
            new[e] = -f * inv
        self.basis[r], self.nonbasic[e] = self.nonbasic[e], self.basis[r]

    def fixed(self) -> tuple[list[int], list[int], set[int]]:
        """The tight rows, the variables at their bound, and every structural these fix.

        A variable is at its bound where its bound row's slack is nonbasic,
        whether the variable itself is basic or not.
        """
        n, m, nonbasic = self.n, self.m, self.nonbasic
        at_bound = [self.bounded[v - n - m] for v in nonbasic if v >= n + m]
        tight = [v - n for v in nonbasic if n <= v < n + m]
        return tight, at_bound, {*at_bound, *(v for v in nonbasic if v < n)}


def solve_lp(p: LpProblem) -> LpSolution:
    """Dual simplex from the all-slack basis with exact certificates.

    Every cost must be nonnegative (``InstanceError`` otherwise), so the
    objective is bounded below by 0 and the result is OPTIMAL or
    INFEASIBLE.  The leaving row has the most negative basic value and the
    entering column the least ratio, deterministic ties by lowest index;
    after ``BLAND_AFTER`` consecutive degenerate pivots Bland's rule picks
    the leaving row, so termination is guaranteed, and more than
    ``MAX_PIVOTS`` pivots raise ``LimitError``.  The same problem always
    yields the same solution.

    Two paths give it.  An LP of at least ``GUIDED_MIN_CELLS`` cells (rows
    times variables, read at call time) is first solved by ``_guided``: a
    float run, then its final basis solved exactly and certified by
    ``verify_certificate``.  The float run is the bounded one, with the
    bounds kept implicit and flipped by the long-step ratio test, where its
    optimum is the only one; otherwise these rules in floats.  Every other
    LP, and every one ``_guided`` gives up on (an infeasible row, the pivot
    cap, a float out of range, a singular basis or a failed certificate),
    runs the exact tableau, the only source of a Farkas ray.  Either way
    the answer is the exact run's.  ``iterations`` counts the pivots of the
    run that found the basis: the float run's on the guided path.
    """
    nonnegative(p.objective, "objective")
    if len(p.rows) * len(p.objective) >= GUIDED_MIN_CELLS:
        guided = _guided(p)
        if guided is not None:
            return guided
    t = _Tableau(p)
    r = t.run()
    if r >= 0:
        ray_rows, ray_bounds = _duals(p, t, t.T[r], t.den[r], t.basis[r])
        return LpSolution(
            "INFEASIBLE", t.iterations, ray_rows=ray_rows, ray_bounds=ray_bounds
        )
    x = [ZERO] * t.n
    for i, bi in enumerate(t.basis):
        if bi < t.n:
            x[bi] = Fraction(t.T[i][-1], t.den[i])
    dual_rows, dual_bounds = _duals(p, t, t.obj, t.obj_den)
    return LpSolution(
        "OPTIMAL",
        t.iterations,
        primal=FractionalVector(tuple(x)),
        objective_value=Fraction(-t.obj[-1], t.obj_den),
        dual_rows=dual_rows,
        dual_bounds=dual_bounds,
    )


def _guided(p: LpProblem) -> LpSolution | None:
    """An optimal basis found in floats, solved exactly and certified; None to run exactly.

    The bounded float run (``_FloatTableau``) goes first where a bound can
    bind (``_bound_falls_short``).  Its answer is kept when it is the LP's
    only optimal point and dual vector (``_unique``), so that the exact run,
    or any other, could end at no other.  Elsewhere, and where there are
    several, the exact run's own pivots in floats (``_FloatMirror``) give
    the exact run's basis.  Either run gives up, and the exact run takes
    over, as ``_certified`` says.
    """
    if _bound_falls_short(p):
        s = _certified(p, _FloatTableau, only=True)
        if s is not _SEVERAL:
            return s
    return _certified(p, _FloatMirror, only=False)


def _bound_falls_short(p: LpProblem) -> bool:
    """Whether some variable at its bound falls short of a ``>=`` row it is in.

    Only then can the bounded float run's first ratio test on a row pass a
    breakpoint.  Where every bounded variable alone meets each row it is
    in, as in a set cover, the bounds seldom bind: on set covers at 60x90
    (density 0.1, seeds 0-3) the bounded run made 1-29 flips an LP and 230
    pivots against the exact run's 220, and each optimum was one of
    several, so the mirror run had to follow it.
    """
    bounded = [(j, u.numerator, u.denominator) for j, u in enumerate(p.var_bounds) if u]
    for row, (S, _) in zip(p.rows, p.int_rows):
        if row.sense == GE and any(0 < S[j] and S[j] * un < S[-1] * ud for j, un, ud in bounded):
            return True
    return False


#: what ``_certified`` returns, with ``only``, for an optimum that is one of several
_SEVERAL = object()


def _certified(p: LpProblem, tableau, only: bool):
    """The float run's optimal basis, solved exactly and certified; None to run exactly.

    ``tableau`` is the float run's class, and its ``fixed()`` reads the final
    basis: the user rows whose slack is nonbasic, as tight, the variables
    at their bound, and every nonbasic structural, at 0 unless at its bound.
    The basic structurals (``cols``) then solve the tight rows' k x k
    integer system, and the row duals of the tight rows its transpose
    against the costs of ``cols``: every other row dual is 0, and a bound
    dual is the reduced cost left at its bound.  None on an infeasible row,
    the pivot cap, a float out of range, a singular basis or a failed
    certificate; with ``only``, ``_SEVERAL`` for a certified optimum that
    ``_unique`` does not find to be the only one.
    """
    try:
        t = tableau(p)
        if t.run() >= 0:
            return None  # the exact tableau finds the Farkas ray
    except (LimitError, OverflowError):
        return None
    if not all(map(isfinite, (*t.obj, *(row[-1] for row in t.T)))):
        return None
    n, m = t.n, t.m
    tight, at_bound, out = t.fixed()
    cols = [j for j in range(n) if j not in out]
    if len(cols) != len(tight):
        return None
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
    # reduced costs over dy * Dc: at every nonbasic structural if ``_unique`` reads them
    priced = out if only else at_bound
    reduced = {j: C[j] * dy - sum(v * S[j] for v, S in zip(Y, rows)) for j in priced}
    y = [ZERO] * m
    for i, v in zip(tight, Y):
        y[i] = Fraction(v * p.int_rows[i][1], dy * Dc)
    z = [ZERO] * n
    for j in at_bound:
        z[j] = Fraction(reduced[j], dy * Dc)
    value = sum(C[j] * v for j, v in zip(cols, X)) + dx * sum(
        C[j] * u for j, u in zip(at_bound, U)
    )
    s = LpSolution(
        "OPTIMAL",
        t.iterations,
        primal=FractionalVector(tuple(x)),
        objective_value=Fraction(value, Dc * dx * Du),
        dual_rows=tuple(y),
        dual_bounds=tuple(z),
    )
    if verify_certificate(p, s):
        return None
    if only and not _unique(p, x, cols, X, dx, at_bound, U, Du, tight, Y, reduced):
        return _SEVERAL
    return s


def _unique(p, x, cols, X, dx, at_bound, U, Du, tight, Y, reduced) -> bool:
    """Whether the basis's optimum is the LP's only optimal point and dual vector.

    The basic structurals ``cols`` take ``x``, that is ``X / (dx * Du)``,
    those ``at_bound`` their bounds ``U / Du``, and the tight rows the
    weights ``Y``; ``reduced`` holds each nonbasic structural's reduced
    cost, scaled by a positive factor.  A nonzero reduced cost at every
    nonbasic structural and a nonzero dual at every tight row leave one
    optimal point; a value strictly inside its bounds at every basic
    variable, a row's slack included, leaves one dual vector, unless a
    bound of 0 leaves its own dual free below (Chvatal, *Linear
    Programming*, 1983).  Every other optimal basis then gives the same
    answer, the exact run's among them.
    """
    if 0 in Y or 0 in reduced.values() or ZERO in p.var_bounds:
        return False
    for j in cols:
        u = p.var_bounds[j]
        if x[j] <= 0 or (u is not None and x[j] >= u):
            return False
    n, tight = len(p.objective), set(tight)
    for i, (S, _) in enumerate(p.int_rows):
        if i not in tight:
            lhs = sum(S[j] * v for j, v in zip(cols, X))
            if lhs + dx * sum(S[j] * u for j, u in zip(at_bound, U)) == S[n] * dx * Du:
                return False
    return True


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


def _duals(p: LpProblem, t: _Tableau, vec: list[int], den: int, basic: int = -1):
    """Row and bound duals, or a Farkas ray, from the slack entries of ``vec / den``.

    With the objective row, the nonbasic slack reduced costs give the
    duals, and a basic slack's is 0; with a row whose entries are all >= 0
    and whose rhs is < 0, its slack entries ``w`` combine the ``<=``-form
    rows into an infeasible one, and negating that combination gives the
    ray.  Such a row's own basic column ``basic`` has the dropped unit
    entry ``den / den``.  Either way a ``>=`` row, stored negated, gets
    ``w_i`` and a ``<=`` row or a bound gets ``-w_i``.
    """
    n = t.n
    w = [0] * (t.m + len(t.bounded))  # by full-tableau column - n
    for label, v in zip(t.nonbasic, vec):
        if label >= n:
            w[label - n] = v
    if basic >= n:
        w[basic - n] = den
    dual_rows = tuple(
        Fraction(w[i] if row.sense == GE else -w[i], den) for i, row in enumerate(p.rows)
    )
    dual_bounds = [ZERO] * n
    for k, j in enumerate(t.bounded, start=t.m):
        dual_bounds[j] = Fraction(-w[k], den)
    return dual_rows, tuple(dual_bounds)


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
