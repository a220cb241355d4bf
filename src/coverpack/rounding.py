"""Rounding schemes that turn fractional covers into integer ones.

The chain, from primitive to end-to-end:

* ``randomized_round`` -- scale a fractional solution by L and round each
  coordinate up with probability equal to its fractional part.  With
  L = 1 + max(4 ln(2m)/W, sqrt(4 ln(2m)/W)) this covers every row and
  costs at most 2L times the fractional cost with positive probability.
* ``derandomized_round`` -- the same scheme made deterministic by the
  method of conditional probabilities.  A pessimistic estimator (one
  Markov term for cost plus one exponential-moment term per row) starts
  below 1 and never increases as coordinates are fixed, so the final
  solution always satisfies both guarantees.  A cleanup pass then returns
  surplus units that rounding over-bought.
* ``granular_round`` -- run the deterministic rounding on the demand
  vector scaled by K and divide by K, producing a solution whose
  coordinates are integer multiples of 1/K at scale factor
  L' = scale(m, K W), which shrinks toward 1 as K grows.
* ``bicriteria_round`` -- pick K = ceil(4 ln(2m)/(W eps^2)) so that
  L' <= 1 + eps, take the ceiling of the granular solution, and obtain an
  integer cover within ceil((1+eps) xbar) of the fractional solution at
  cost at most 4K times its cost.
* ``solve_cpip_bicriteria`` -- solve the standard LP relaxation, round
  with the above, and check/record every guarantee, including the packing
  slack B xhat <= (1+eps) b + beta.

All guarantees are re-verified exactly before an answer is returned;
floats appear only inside the estimator, whose role is to pick between
floor and ceiling.  Each public rounding call reads its arguments once
(``_read``, by the readers of ``model``): it takes xbar as ints X over one
denominator D, checks each shape and sign, and scans the dense A once, into
``CoverRows``: its demanded rows scaled to Python ints and kept over their
nonzeros on the support of xbar (the j with X_j > 0), by row and by column
(both solvers hand ``bicriteria_round`` integer rows, whose lcm is 1, and
the scan takes such a row's numerators as they are; a row of ``Fraction``s
is read through their slots by two list displays, and an int row through
the properties, by ``model``'s one reader).  A zero coordinate
rounds to 0, moves no estimator term and has nothing to trim, so the
coverage check of xbar, the estimator, the decisions, every slack and the
trim cost O(nonzeros on the support), not O(nnz(A)); the LP vertices the
solvers round are mostly zeros.  The same pass reads every entry, so a bad
or negative one in any column is ``InstanceError``, and takes each demanded
row's largest entry over every column: an entry in a zero column can set
the width, and with it K and L.  The scaled point L xbar is L.numerator X
over L.denominator D, and an integral coordinate of it takes no decision.
The estimator computes a column's log-moment once per run of equal weights
down that column (a 0/1 set cover: one ``log1p`` per column), and adds phi's
row terms left to right in a plain loop.  Every run keeps each row's term of
the estimator, and a decision refreshes the rows it touches from the exps it
computed to decide, so a traced run (``trace_out``) calls no more exp than an
untraced one.  The public calls then run private cores on what was read:
``derandomized_round`` runs ``_derandomize``, ``granular_round`` runs
``_granular`` (``_derandomize`` on the K-scaled rows), and
``bicriteria_round`` runs ``_granular`` and takes the ceiling, or, where the
float L' rounds to 1.0, takes the ceiling of xbar itself.
"""

from __future__ import annotations

import copy
import itertools
import math
import operator
import random
from fractions import Fraction
from time import perf_counter

from coverpack.model import (
    CpipInstance,
    FractionalVector,
    GuaranteeError,
    InfeasibleError,
    InstanceError,
    IntegerVector,
    LimitError,
    SolveReport,
    _parts,
    as_bounds,
    as_epsilon,
    as_fraction,
    as_int,
    as_sequence,
    as_shape,
    as_vector,
    dot,
    integers,
    is_width_normalized,
    nonnegative,
)
from coverpack.oracle import check_solution
from coverpack.simplex import LpSolution, lp_from_instance, solve_lp, verify_certificate

#: Generator identity recorded in reports whenever randomized rounding runs.
RNG_NAME = "python-random-mt19937"


def compute_scale_factor(m: int, W) -> Fraction:
    """L = 1 + max(4 ln(2m)/W, sqrt(4 ln(2m)/W)) for m rows at width W.

    L is a float: ``LimitError`` when W overflows a float or L rounds to 1.0.
    """
    m = as_int(m, "m", 1)
    W = as_fraction(W, "W")
    if W < 1:
        raise InstanceError(f"normalize width first: width {W} < 1")
    try:
        g = 4.0 * math.log(2 * m) / float(W)
    except OverflowError:  # W beyond the float range: L would be 1.0 as well
        g = 0.0
    L = 1.0 + max(g, math.sqrt(g))
    if L == 1.0:
        log2_W = math.log2(W.numerator) - math.log2(W.denominator)
        raise LimitError(f"width W = 2^{log2_W:.1f}: its float scale factor rounds to 1.0")
    return Fraction(L)


def randomized_round(xbar, L, seed: int) -> IntegerVector:
    """Scale by L, then round coordinate j up with probability frac(L xbar_j).

    The per-coordinate distribution is exactly the stated Bernoulli; the
    output is deterministic given the seed (generator: ``RNG_NAME``).
    """
    L = _read_scale(L)
    rng = random.Random(as_int(seed, "seed"))
    X, D = _read_ints(xbar, "xbar")
    den = L.denominator * D
    out = []
    for p in X:
        fl, rest = divmod(L.numerator * p, den)  # L xbar_j = fl + rest / den
        # rest / den rounds as float(Fraction(rest, den)) does
        out.append(fl + 1 if rest and rng.random() < rest / den else fl)
    return IntegerVector(out)


def _read_scale(L) -> Fraction:
    """A scale factor L by ``as_fraction``, at least 1; ``InstanceError`` otherwise."""
    L = as_fraction(L, "L")
    if L < 1:
        raise InstanceError(f"scale factor L = {L} must be >= 1")
    return L


def _cost(costs: list[int], x) -> int:
    """c . x for integer costs and integer coordinates."""
    return sum(map(operator.mul, costs, x))


class CoverRows:
    """The demanded rows of a covering system (A, a) as integer sparse rows.

    One scan of A builds them, and reads every entry of every row.  Slot k
    holds row ``active[k]``, the k-th row with a_i > 0 (the others are
    vacuous), multiplied by the lcm of the denominators of its demand and
    its entries: ``demands[k]`` is a'_k and ``scales[k]`` the multiplier,
    all Python ints.  With a point ``x``, only the columns of its nonzero
    coordinates are kept, and ``support`` lists them (every column without
    ``x``): ``rows[k]`` is the pair of lists (columns j, entries A'_kj) over
    the kept nonzero entries, and ``columns[j]`` lists (k, A'_kj) in slot
    order, empty for a column not kept.  So for a point that is 0 off
    ``support``, every coverage and slack test on these rows is exact:
    scaling a row changes no ratio a_i / A_ij.  ``width`` is the width W of
    all of (A, a), every column included, read off each demanded row's
    largest entry in the same scan, or None where none is positive.
    Each row's numerators, and its nonzeros' denominators, are read by
    ``model._parts``: through the slots that ``Fraction`` declares, by a
    list display each, where the row starts with a ``Fraction``, and
    otherwise (an int row, a bool read as an int, a row that mixes ints into
    ``Fraction``s) through the public properties.  An entry with no
    ``numerator`` (a float, a string, None) sends the scan to
    ``as_fraction`` copies of A and a, and an entry that it cannot read, or a
    negative one, is ``InstanceError``.
    """

    def __init__(self, A, a, x=None):
        try:
            self._scan(A, a, x)
        except (TypeError, AttributeError):  # an entry with no numerator or order
            rows = [as_vector(row, f"A[{i}]") for i, row in enumerate(A)]
            self._scan(rows, as_vector(a, "a"), x)

    def _scan(self, A, a, x) -> None:
        self.active: list[int] = []
        self.rows: list[tuple[list[int], list[int]]] = []
        self.demands: list[int] = []
        self.scales: list[int] = []
        indices = range(len(A[0]) if A else 0)
        self.columns: list[list[tuple[int, int]]] = [[] for _ in indices]
        keep = None if x is None or all(x) else x  # a point with no zero keeps every column
        self.support = list(indices if keep is None else itertools.compress(indices, keep))
        narrowest = None  # (a'_k, largest A'_kj) of the narrowest demanded row
        for i, (row, ai) in enumerate(zip(A, a)):
            # every row is read, a vacuous one too, so no entry goes unchecked; None
            # or "" has no numerator, so it is not read as 0
            support = list(itertools.compress(indices, _parts(row)))
            # the demand last: the first nonzero entry decides how _parts reads them
            entries, scale = integers([*map(row.__getitem__, support), ai])
            demand = entries.pop()
            if demand < 0:  # a scaled demand keeps its sign
                nonnegative(a, "a")  # raises: no earlier demand was negative
            if entries and min(entries) < 0:  # a scaled entry keeps its sign
                nonnegative(row, f"A[{i}]")  # raises, naming the entry
            if not demand:
                continue  # a vacuous row
            k = len(self.active)
            self.active.append(i)
            # over every column: an entry off the kept ones can set the width
            peak = max(entries or (0,))  # faster than default=0
            if keep is not None:
                kept = list(map(keep.__getitem__, support))
                support = list(itertools.compress(support, kept))
                entries = list(itertools.compress(entries, kept))
            if peak > 0 and (narrowest is None or demand * narrowest[1] < narrowest[0] * peak):
                narrowest = demand, peak
            self.rows.append((support, entries))
            self.demands.append(demand)
            self.scales.append(scale)
            for j, v in zip(support, entries):
                self.columns[j].append((k, v))
        self.width = None if narrowest is None else Fraction(*narrowest)

    def scaled(self, K: int) -> "CoverRows":
        """These rows with K times the demands, so K times the width."""
        out = copy.copy(self)
        out.demands = [K * d for d in self.demands]
        out.width = K * self.width
        return out

    def slack(self, x, den: int = 1) -> list[int]:
        """den (A x - a), slot by slot, for x = (integers x_j) / den, 0 off ``support``."""
        return [
            sum(map(operator.mul, entries, map(x.__getitem__, support))) - demand * den
            for (support, entries), demand in zip(self.rows, self.demands)
        ]


def width(A, a) -> Fraction:
    """The width W = min a_i / A_ij over the positive entries of rows with a_i > 0.

    (A, a) is read as the roundings read it (``_read``, ``CoverRows``);
    ``InstanceError`` where no demanded row has a positive entry.
    """
    columns = len(as_sequence(A[0], "A[0]")) if as_sequence(A, "A") else 0
    as_sequence(a, "a", len(as_shape(A, "A", columns)))
    W = CoverRows(A, a).width
    if W is None:
        raise InstanceError("no covering structure: A is all zeros on demanded rows")
    return W


def _read_ints(values, name: str, n: int | None = None) -> tuple[list[int], int]:
    """A nonnegative vector by ``as_vector``, over its least common denominator (``integers``)."""
    read = as_vector(values, name, n)
    ints, D = integers(read)
    if min(ints, default=0) < 0:  # the ints give the sign at C speed
        nonnegative(read, name)  # raises, naming the entry
    return ints, D


def _read(xbar, A, a, c, d=None):
    """A public rounding call's arguments, checked once: ``((X, D), costs, c_den, rows)``.

    xbar is X / D and c is ``costs / c_den`` (``_read_ints``); c, d (bounds, if
    given) and each row of A have an entry per coordinate, a one per row of A,
    no coordinate exceeds its bound, and xbar covers (A, a), or
    ``InstanceError``.  ``rows`` is the ``CoverRows`` of (A, a) on the support
    of xbar, which reads the entries of A and a.
    """
    X, D = _read_ints(xbar, "xbar")
    n = len(X)
    as_sequence(a, "a", len(as_shape(A, "A", n)))
    costs, c_den = _read_ints(c, "c", n)
    if d is not None:
        for j, u in enumerate(as_bounds(d, "d", n)):
            if u is not None and X[j] * u.denominator > u.numerator * D:
                raise InstanceError(
                    f"xbar[{j}] = {Fraction(X[j], D)} exceeds its multiplicity bound {u}"
                )
    rows = CoverRows(A, a, X)
    for k, s in enumerate(rows.slack(X, D)):
        if s < 0:  # s is D scales[k] (A_i xbar - a_i)
            i, short = rows.active[k], Fraction(-s, D * rows.scales[k])
            raise InstanceError(f"xbar is not a fractional cover: row {i} short by {short}")
    return (X, D), costs, c_den, rows


class EstimatorState:
    """Incremental pessimistic estimator for one derandomization run.

    phi() = cost term + sum_i exp(E_i).  The cost term is the conditional
    expectation of cost / (2 L cost(xbar)).  E_i is the log of exp(t W)
    times the conditional exponential moment E[exp(-t S_i)] for
    S_i = sum_j w_ij xhat_j, with weights w_ij = A_ij W / a_i in [0,1] and
    t = ln L, the choice that makes the scaled threshold coincide with the
    demands.  Working with E_i in log space keeps large t W from
    overflowing; each exp() is clamped at 60, which only bites when the
    width precondition is violated and makes the phi >= 1 check fire.

    The state is one log-exponent E_i per demanded row, one running
    expected cost, and for each column j a list of (row slot, t w_ij,
    log E[exp(-t w_ij B_j)]) over the rows with A_ij > 0, read off the
    columns of ``rows`` (a ``CoverRows``, whose columns off its support are
    empty: xprime is 0 there); the costs are ``costs / c_den``.
    Each weight is the float of the exact rational A'_kj W / a'_k, by one
    correctly rounded int division.  Equal floats t w give equal log-moments,
    so each is computed once per run of equal t w down a column and reused
    for the rest of the run: the same float, with one ``log1p`` and one
    ``expm1`` per column where a column's weights are all equal.
    ``xprime`` is the scaled point L xbar as a pair (P, den) of ints.
    The state keeps each row's term exp(min(E_i, 60)) in ``terms``.
    ``decide(j)`` fixes coordinate j and touches only the rows in its list,
    so a full run is O(nnz) float work: it refreshes their exponents and
    terms from the exps it computed to decide.  phi() adds the m terms left
    to right in a plain ``for`` loop, the same order on every interpreter
    (the builtin ``sum`` compensates from CPython 3.12 on), and calls no exp.
    """

    def __init__(self, xprime, rows: CoverRows, costs: list[int], c_den: int, L):
        t = math.log(float(L))
        W = rows.width
        # xprime_j = P_j / den, a common denominator though not always the
        # least; an int division rounds as float(Fraction) does
        P, den = xprime
        self.floors = [p // den for p in P]
        self.fracs = [p % den / den for p in P]
        # Costs enter phi only as ratios to cost_denom, so all of them are
        # divided by 2^shift, which keeps every float below 2^1021 (the
        # largest, 2 c.(xprime + 1), is under 2^(bits(top) - bits(bottom) + 1));
        # the shift is 0 unless some cost float would overflow.
        cost_P = _cost(costs, P)
        top, bottom = 2 * (cost_P + den * sum(costs)), c_den * den
        c_den <<= max(0, top.bit_length() - bottom.bit_length() - 1020)
        self.costs = [cj / c_den for cj in costs]
        # 2 L c.xbar = 2 c.xprime since xprime = L xbar; zero iff c.xbar == 0.
        self.cost_denom = 2.0 * (cost_P / (c_den * den))
        self.expected_cost = 0.0
        self.exponents = exponents = [t * float(W)] * len(rows.demands)
        w_num, weight_den = W.numerator, [demand * W.denominator for demand in rows.demands]
        log1p, expm1 = math.log1p, math.expm1
        # a coordinate off rows.support is 0: it adds no cost and has no column
        self.columns: list[list[tuple[int, float, float]]] = [[] for _ in P]
        for j in rows.support:
            fl, frac = self.floors[j], self.fracs[j]
            self.expected_cost += self.costs[j] * (fl + frac)
            column = self.columns[j]
            last_tw = None
            for k, v in rows.columns[j]:
                tw = t * ((v * w_num) / weight_den[k])
                if tw != last_tw:  # a run of equal tw shares one log_bern
                    last_tw, log_bern = tw, log1p(frac * expm1(-tw))
                exponents[k] = exponents[k] - tw * fl + log_bern
                column.append((k, tw, log_bern))
        self.terms = [math.exp(60.0 if e > 60.0 else e) for e in exponents]

    def phi(self) -> float:
        cost_term = self.expected_cost / self.cost_denom if self.cost_denom else 0.0
        total = 0.0  # left to right, not by sum, which compensates from CPython 3.12 on
        for term in self.terms:
            total += term
        return cost_term + total

    def decide(self, j: int) -> int:
        """Fix x_j to the branch of the smaller phi, a tie to the floor, and return it.

        One pass over column j computes both branches' exponents and terms and
        writes the floor's; the ceiling's overwrite them if it wins.
        """
        diff = -self.costs[j] / self.cost_denom if self.cost_denom else 0.0
        exponents, terms = self.exponents, self.terms
        ceilings = []
        for k, tw, log_bern in self.columns[j]:
            e_floor = exponents[k] - log_bern
            e_ceil = e_floor - tw
            # 60.0 if x > 60.0 else x is min(x, 60.0), a nan included, with no call
            floor_term = math.exp(60.0 if e_floor > 60.0 else e_floor)
            ceil_term = math.exp(60.0 if e_ceil > 60.0 else e_ceil)
            diff += floor_term - ceil_term
            exponents[k], terms[k] = e_floor, floor_term
            ceilings.append((k, e_ceil, ceil_term))
        up = diff > 0.0
        self.expected_cost += self.costs[j] * (up - self.fracs[j])
        if up:
            for k, e_ceil, ceil_term in ceilings:
                exponents[k], terms[k] = e_ceil, ceil_term
        return self.floors[j] + up


def derandomized_round(xbar, A, a, c, L, *, trace_out: list | None = None) -> IntegerVector:
    """Deterministic rounding by the method of conditional probabilities.

    Walks coordinates in index order, fixing each to floor or ceiling of
    the scaled value, whichever does not increase the estimator (ties go
    to the floor, the cheaper side).  Because the estimator starts below 1
    and each coordinate's two branches average back to the current value,
    the final solution provably covers every row and costs at most
    2 L cost(xbar); both facts are re-checked exactly before returning.
    L is read as ``randomized_round`` reads it; ``LimitError`` when the
    estimator's floats cannot hold ln L, the width or the scaled point.
    """
    xbar, costs, c_den, rows = _read(xbar, A, a, c)
    xhat = _derandomize(xbar, costs, c_den, rows, _read_scale(L), trace_out)
    return IntegerVector(xhat)


def _derandomize(xbar, costs, c_den, rows: CoverRows, L: Fraction, trace_out) -> list[int]:
    """``derandomized_round`` on arguments ``_read`` has checked: the integer x.

    ``xbar`` is the pair (X, D) of ints with xbar = X / D.
    """
    X, D = xbar
    n = len(X)
    if not rows.demands:
        return [0] * n

    xprime = [L.numerator * p for p in X], L.denominator * D
    try:
        state = EstimatorState(xprime, rows, costs, c_den, L)
    except OverflowError as exc:  # ln L, the width or a scaled coordinate
        raise LimitError(f"L, xbar or width beyond the estimator's float range: {exc}") from exc
    phi = state.phi()
    if phi >= 1.0:
        raise InstanceError(
            f"width precondition violated: initial estimator {phi:.6f} >= 1"
        )
    if trace_out is not None:
        trace_out.append(phi)
    # an integral coordinate (every zero one) keeps its value, and fixing it
    # would change no term of phi by even one bit: it takes no decision
    xhat = state.floors[:]
    for j, frac in enumerate(state.fracs):
        if frac:
            xhat[j] = state.decide(j)
            if trace_out is not None:
                phi = state.phi()
        if trace_out is not None:
            trace_out.append(phi)

    # c.xhat > 2 L c.xbar, multiplied through by the denominators of c, xbar and L
    over_cost = _cost(costs, xhat) * D * L.denominator > 2 * L.numerator * _cost(costs, X)
    slack = rows.slack(xhat)
    if over_cost or min(slack) < 0:
        raise GuaranteeError("conditional-probabilities rounding missed a guarantee")

    _trim_surplus(xhat, rows, costs, slack, floors=state.floors)
    return xhat


def _trim_surplus(xhat: list[int], rows: CoverRows, costs, slack: list[int], floors=None) -> None:
    """Return units the rounding over-bought, keeping every row covered.

    First pass hands back ceiling bumps (units above the scaled floor),
    in index order; second pass removes any still-removable units,
    costliest variables first.  Each removal is feasibility-checked, so
    all upper-bound and coverage guarantees survive.  Slacks are ints on
    the integer rows; a zero entry would only test slack >= 0, which
    every step keeps.  ``slack`` is ``rows.slack(xhat)``, updated in place.
    Only the coordinates on ``rows.support`` are visited: xhat is 0 off it.
    """
    columns, support = rows.columns, rows.support

    def remove(j: int, units: int) -> None:
        xhat[j] -= units
        for k, aij in columns[j]:
            slack[k] -= aij * units

    if floors is not None:
        for j in support:
            while xhat[j] > floors[j]:
                for k, aij in columns[j]:
                    if slack[k] < aij:
                        break
                else:
                    remove(j, 1)
                    continue
                break  # row k cannot spare a unit of x_j
    # costliest first; the sort is stable, so ties stay in index order
    for j in sorted(support, key=costs.__getitem__, reverse=True):
        if xhat[j] == 0:
            continue
        removable = xhat[j]
        for k, aij in columns[j]:
            spare = slack[k] // aij
            if spare < removable:
                removable = spare
                if spare <= 0:
                    break  # nothing of x_j can go
        if removable > 0:
            remove(j, removable)


def granular_round(xbar, A, a, c, K: int) -> FractionalVector:
    """Deterministic cover whose coordinates are integer multiples of 1/K.

    Rounds K xbar against demands K a (width K W, so the scale factor
    L' = scale(m, K W) shrinks as K grows), then divides by K.  The result
    covers a, stays below ceil(L' xbar), and costs at most 2 L' cost(xbar).
    K = 1 is exactly ``derandomized_round``.
    """
    K = as_int(K, "granularity K", 1)
    xbar, costs, c_den, rows = _read(xbar, A, a, c)
    kx = [0] * len(xbar[0])
    if rows.demands:
        L = compute_scale_factor(len(rows.demands), K * rows.width)
        kx = _granular(xbar, costs, c_den, rows, K, L)
    return FractionalVector([Fraction(v, K) for v in kx])


def _granular(xbar, costs, c_den, rows: CoverRows, K: int, L: Fraction) -> list[int]:
    """``granular_round`` on checked arguments at L' = scale(m, K W): K x as ints."""
    X, D = xbar
    return _derandomize(([K * p for p in X], D), costs, c_den, rows.scaled(K), L, None)


def granularity_K(m: int, W, epsilon) -> int:
    """K = ceil(4 ln(2m) / (W eps^2)) for rational W and eps; makes scale(m, K W) <= 1 + eps.

    Only 4 ln(2m) is a float, the exact rational p / q; the quotient is
    taken in ints, so no epsilon underflows.
    """
    p, q = (4.0 * math.log(2 * m)).as_integer_ratio()
    top = p * W.denominator * epsilon.denominator**2
    return max(1, -(-top // (q * W.numerator * epsilon.numerator**2)))


def bicriteria_round(
    xbar,
    A,
    a,
    c,
    d,
    epsilon,
    *,
    info_out: dict | None = None,
) -> IntegerVector:
    """Integer cover within ceil((1+eps) xbar) at cost <= 4K cost(xbar).

    Takes the ceiling of a (1/K)-granular cover for K = ceil(4 ln(2m) /
    (W eps^2)).  Ceiling a positive (1/K)-granular coordinate multiplies
    it by at most K, and the granular scale factor is at most 1 + eps,
    which yields both bounds; a final cleanup pass drops whole surplus
    units.  All three guarantees are re-checked exactly.  A row's scale
    changes no choice here: (A, a) may be integer rows over any positive
    row denominators, as the solvers pass them.  Where the float L' rounds
    to 1.0 (``compute_scale_factor``'s ``LimitError``, from about eps =
    2^-53) and the lcm D of xbar's denominators is at most K, xbar
    itself is the granular cover at K' = D and L' = 1, so the answer is the
    trimmed ceil(xbar) and ``info_out`` gets K' and L'; with D > K the
    ``LimitError`` stands.
    """
    eps = as_epsilon(epsilon)
    xbar, costs, c_den, rows = _read(xbar, A, a, c, d)
    X, D = xbar
    if not rows.demands:
        if info_out is not None:
            info_out.update({"K": 0, "L": Fraction(1)})
        return IntegerVector([0] * len(X))
    K = granularity_K(len(rows.demands), rows.width, eps)
    try:
        L = compute_scale_factor(len(rows.demands), K * rows.width)
    except LimitError:
        if D > K:
            raise
        # xbar is its own granular cover at K' = D, and ceil(xbar_j) <= D xbar_j
        # <= K xbar_j where xbar_j > 0: both bounds hold
        K, L, kx = D, Fraction(1), X
    else:
        kx = _granular(xbar, costs, c_den, rows, K, L)
    if info_out is not None:
        info_out.update({"K": K, "L": L})
    xhat = [-(-v // K) for v in kx]  # the ceiling of the granular x = kx / K
    _trim_surplus(xhat, rows, costs, rows.slack(xhat))

    # (1+eps) xbar_j = top X_j / bottom, and -(-p // q) = ceil(p / q)
    top, bottom = eps.denominator + eps.numerator, eps.denominator * D
    if any(xhat[j] > -(-top * X[j] // bottom) for j in range(len(xhat))):
        raise GuaranteeError("rounded solution exceeded ceil((1+eps) xbar)")
    if _cost(costs, xhat) * D > 4 * K * _cost(costs, X):
        raise GuaranteeError("rounded solution exceeded the 4K cost bound")
    if min(rows.slack(xhat)) < 0:
        raise GuaranteeError("rounded solution lost coverage")
    return IntegerVector(xhat)


def solve_relaxation(inst: CpipInstance, cut_rows=()) -> LpSolution:
    """Optimum of the standard LP relaxation plus ``cut_rows``, its certificate checked.

    ``cut_rows`` are extra >= rows as ``lp_from_instance`` takes them (the
    cut loop's cuts).  Raises ``InfeasibleError`` on a checked Farkas ray
    and ``GuaranteeError`` when the certificate of either status fails.
    Each certificate is checked once: a guided optimum by ``solve_lp``,
    every other result here.
    """
    problem = lp_from_instance(inst, cut_rows)
    sol = solve_lp(problem)
    failed = [] if sol.guided else verify_certificate(problem, sol)
    if failed:
        raise GuaranteeError("LP certificate failed: " + ", ".join(map(str, failed)))
    if sol.status == "INFEASIBLE":
        raise InfeasibleError("no fractional solution")
    return sol


def solve_cpip_bicriteria(inst: CpipInstance, epsilon) -> tuple[IntegerVector, SolveReport]:
    """End-to-end bicriteria solver for the full covering/packing program.

    Solves the standard LP relaxation (covering, packing, and multiplicity
    constraints all included), then rounds the fractional optimum against
    the covering system alone.  Guarantees, all checked exactly and
    recorded in the report: A xhat >= a, xhat <= ceil((1+eps) d),
    B xhat <= (1+eps) b + beta, and cost <= 4K fopt.
    """
    eps = as_epsilon(epsilon)
    if not is_width_normalized(inst):
        raise InstanceError("normalize width first")
    t0 = perf_counter()
    sol = solve_relaxation(inst)
    info: dict = {}
    # the integer rows round exactly as (A, a) does: CoverRows keeps them as they are
    cover = inst.int_rows[: inst.m]
    A, a = [S[:-1] for S, _ in cover], [S[-1] for S, _ in cover]
    # xbar <= d is proved by the certificate solve_relaxation checked: no bound to read
    xhat = bicriteria_round(sol.primal, A, a, inst.c, None, eps, info_out=info)
    violations = check_solution(inst, xhat, eps)
    if not violations.ok_bicriteria:
        raise GuaranteeError(f"bicriteria guarantees violated: {violations}")
    elapsed_s = perf_counter() - t0
    cost = dot(inst.c, xhat)
    fopt = sol.objective_value
    report = SolveReport(
        mode="bicriteria",
        cost=cost,
        fopt=fopt,
        ratio_cost_fopt=float(cost / fopt) if fopt > 0 else None,
        epsilon=eps,
        K=info.get("K"),
        L=info.get("L"),
        x=xhat,
        violations=violations,
        guarantees_ok=violations.ok_bicriteria,
        elapsed_s=elapsed_s,
    )
    return xhat, report
