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

All guarantees are re-verified over exact rationals before an
answer is returned; floats appear only inside the estimator, whose role
is to pick between floor and ceiling.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from coverpack.model import (
    ZERO,
    CoverpackError,
    CpipInstance,
    FractionalVector,
    InstanceError,
    IntegerVector,
    dot,
    is_width_normalized,
    vec_ceil,
    width,
)
from coverpack.oracle import SolveReport, Timer, check_solution
from coverpack.simplex import InfeasibleError, lp_from_instance, solve_lp, verify_certificate

#: Generator identity recorded in reports whenever randomized rounding runs.
RNG_NAME = "python-random-mt19937"


class RoundingError(CoverpackError):
    """A rounding postcondition failed (indicates a precondition violation)."""


class EstimatorError(RoundingError):
    """Pessimistic estimator started at or above 1."""


def compute_scale_factor(m: int, W) -> Fraction:
    """L = 1 + max(4 ln(2m)/W, sqrt(4 ln(2m)/W)) for m rows at width W."""
    if m < 1:
        raise InstanceError(f"need at least one covering row, got m = {m}")
    W = Fraction(W)
    if W < 1:
        raise InstanceError(f"normalize width first: width {W} < 1")
    g = 4.0 * math.log(2 * m) / float(W)
    return Fraction(1.0 + max(g, math.sqrt(g)))


def randomized_round(xbar, L, seed: int) -> IntegerVector:
    """Scale by L, then round coordinate j up with probability frac(L xbar_j).

    The per-coordinate distribution is exactly the stated Bernoulli; the
    output is deterministic given the seed (generator: ``RNG_NAME``).
    """
    L = Fraction(L)
    if L < 1:
        raise InstanceError(f"scale factor L = {L} must be >= 1")
    rng = random.Random(seed)
    out = []
    for v in xbar:
        scaled = L * Fraction(v)
        fl = math.floor(scaled)
        frac = scaled - fl
        if frac == 0:
            out.append(fl)
        else:
            out.append(fl + 1 if rng.random() < float(frac) else fl)
    return IntegerVector(tuple(out))


def _active_cover(A, a):
    """Indices of rows with positive demand; zero-demand rows are vacuous."""
    return [i for i in range(len(a)) if a[i] > 0]


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

    The state is one log-exponent E_i per active row, one running
    expected cost, and for each column j a list of (row slot, t w_ij,
    log E[exp(-t w_ij B_j)]) over the rows with A_ij > 0.  Deciding and
    fixing coordinate j touch only the rows in its list, so after one scan
    of A a full run is O(nnz) float work; phi() itself is O(m).
    """

    def __init__(self, xprime, A, a, c, L, active, W):
        t = math.log(float(L))
        self.floors = [math.floor(v) for v in xprime]
        self.fracs = [float(v - math.floor(v)) for v in xprime]
        self.costs = [float(v) for v in c]
        # 2 L c.xbar = 2 c.xprime since xprime = L xbar; zero iff c.xbar == 0.
        self.cost_denom = 2.0 * float(dot(c, xprime))
        self.expected_cost = 0.0
        for j, cj in enumerate(self.costs):
            self.expected_cost += cj * (self.floors[j] + self.fracs[j])
        self.exponents = [t * float(W)] * len(active)
        self.columns: list[list[tuple[int, float, float]]] = []
        for j, (fl, frac) in enumerate(zip(self.floors, self.fracs)):
            column = []
            for k, i in enumerate(active):
                if A[i][j]:
                    tw = t * float(Fraction(A[i][j]) * W / a[i])
                    log_bern = math.log1p(frac * math.expm1(-tw))
                    # a zero entry would add only -0.0, so skipping it
                    # leaves the starting exponent bit-identical
                    self.exponents[k] = self.exponents[k] - tw * fl + log_bern
                    column.append((k, tw, log_bern))
            self.columns.append(column)

    def phi(self) -> float:
        cost_term = self.expected_cost / self.cost_denom if self.cost_denom else 0.0
        return cost_term + sum(math.exp(min(e, 60.0)) for e in self.exponents)

    def prefers_ceiling(self, j: int) -> bool:
        """True iff phi(x_j = floor + 1) < phi(x_j = floor); ties go to the floor."""
        diff = -self.costs[j] / self.cost_denom if self.cost_denom else 0.0
        for k, tw, log_bern in self.columns[j]:
            e_floor = self.exponents[k] - log_bern
            diff += math.exp(min(e_floor, 60.0)) - math.exp(min(e_floor - tw, 60.0))
        return diff > 0.0

    def fix(self, j: int, value: int) -> None:
        up = value - self.floors[j]
        self.expected_cost += self.costs[j] * (up - self.fracs[j])
        for k, tw, log_bern in self.columns[j]:
            self.exponents[k] = self.exponents[k] - log_bern - tw * up


def derandomized_round(
    xbar, A, a, c, L, *, trace_out: list | None = None
) -> IntegerVector:
    """Deterministic rounding by the method of conditional probabilities.

    Walks coordinates in index order, fixing each to floor or ceiling of
    the scaled value, whichever does not increase the estimator (ties go
    to the floor, the cheaper side).  Because the estimator starts below 1
    and each coordinate's two branches average back to the current value,
    the final solution provably covers every row and costs at most
    2 L cost(xbar); both facts are re-checked exactly before returning.
    """
    xv = tuple(Fraction(v) for v in xbar)
    L = Fraction(L)
    n = len(xv)
    m = len(a)
    active = _active_cover(A, a)
    for i in active:
        if dot(A[i], xv) < a[i]:
            raise RoundingError(
                f"xbar is not a fractional cover: row {i} short by {a[i] - dot(A[i], xv)}"
            )
    if not active:
        return IntegerVector(tuple(0 for _ in range(n)))

    xprime = tuple(L * v for v in xv)
    W = width(A, a)
    state = EstimatorState(xprime, A, a, c, L, active, W)
    phi = state.phi()
    if phi >= 1.0:
        raise EstimatorError(
            f"width precondition violated: initial estimator {phi:.6f} >= 1"
        )
    if trace_out is not None:
        trace_out.append(phi)
    xhat = [0] * n
    for j in range(n):
        fl = state.floors[j]
        choice = fl + 1 if state.fracs[j] and state.prefers_ceiling(j) else fl
        state.fix(j, choice)
        xhat[j] = choice
        if trace_out is not None:
            trace_out.append(state.phi())

    cost_cap = 2 * L * dot(c, xv)
    if any(dot(A[i], xhat) < a[i] for i in active) or dot(c, xhat) > cost_cap:
        raise RoundingError("conditional-probabilities rounding missed a guarantee")

    _trim_surplus(xhat, A, a, c, active, floors=state.floors)
    return IntegerVector(tuple(xhat))


def _trim_surplus(xhat: list[int], A, a, c, active, floors=None) -> None:
    """Return units the rounding over-bought, keeping every row covered.

    First pass hands back ceiling bumps (units above the scaled floor),
    in index order; second pass removes any still-removable units,
    costliest variables first.  Each removal is feasibility-checked, so
    all upper-bound and coverage guarantees survive.
    """
    slack = [dot(A[i], xhat) - a[i] for i in active]
    # nonzero (slot, A_ij) pairs of each column; a zero entry would only
    # test slack >= 0, which every step keeps
    columns = [
        [(k, A[i][j]) for k, i in enumerate(active) if A[i][j]]
        for j in range(len(xhat))
    ]

    def remove(j: int, units: int) -> None:
        xhat[j] -= units
        for k, aij in columns[j]:
            slack[k] -= aij * units

    if floors is not None:
        for j in range(len(xhat)):
            while xhat[j] > floors[j] and all(slack[k] >= aij for k, aij in columns[j]):
                remove(j, 1)
    order = sorted(range(len(xhat)), key=lambda j: (-c[j], j))
    for j in order:
        if xhat[j] == 0:
            continue
        removable = xhat[j]
        for k, aij in columns[j]:
            removable = min(removable, math.floor(slack[k] / aij))
        if removable > 0:
            remove(j, removable)


def granular_round(
    xbar, A, a, c, K: int, *, trace_out: list | None = None, info_out: dict | None = None
) -> FractionalVector:
    """Deterministic cover whose coordinates are integer multiples of 1/K.

    Rounds K xbar against demands K a (width K W, so the scale factor
    L' = scale(m, K W) shrinks as K grows), then divides by K.  The result
    covers a, stays below ceil(L' xbar), and costs at most 2 L' cost(xbar).
    K = 1 is exactly ``derandomized_round``.
    """
    if K < 1:
        raise InstanceError(f"granularity K = {K} must be >= 1")
    xv = tuple(Fraction(v) for v in xbar)
    active = _active_cover(A, a)
    if not active:
        if info_out is not None:
            info_out.update({"K": K, "L": Fraction(1)})
        return FractionalVector(tuple(ZERO for _ in xv))
    W = width(A, a)
    L = compute_scale_factor(len(active), K * W)
    scaled_a = tuple(K * v for v in a)
    scaled_xbar = tuple(K * v for v in xv)
    xhat = derandomized_round(scaled_xbar, A, scaled_a, c, L, trace_out=trace_out)
    if info_out is not None:
        info_out.update({"K": K, "L": L, "W": W})
    return FractionalVector(tuple(Fraction(v, K) for v in xhat))


def granularity_K(m: int, W, epsilon) -> int:
    """K = ceil(4 ln(2m) / (W eps^2)); makes scale(m, K W) <= 1 + eps."""
    eps = Fraction(epsilon)
    if not (0 < eps <= 1):
        raise InstanceError(f"epsilon {eps} outside (0, 1]")
    q = 4.0 * math.log(2 * m) / (float(W) * float(eps) ** 2)
    return max(1, math.ceil(q))


def bicriteria_round(
    xbar,
    A,
    a,
    c,
    d,
    epsilon,
    *,
    trace_out: list | None = None,
    info_out: dict | None = None,
) -> IntegerVector:
    """Integer cover within ceil((1+eps) xbar) at cost <= 4K cost(xbar).

    Takes the ceiling of a (1/K)-granular cover for K = ceil(4 ln(2m) /
    (W eps^2)).  Ceiling a positive (1/K)-granular coordinate multiplies
    it by at most K, and the granular scale factor is at most 1 + eps,
    which yields both bounds; a final cleanup pass drops whole surplus
    units.  All three guarantees are asserted exactly.
    """
    eps = Fraction(epsilon)
    if not (0 < eps <= 1):
        raise InstanceError(f"epsilon {eps} outside (0, 1]")
    xv = tuple(Fraction(v) for v in xbar)
    for j, bound in enumerate(d):
        if bound is not None and xv[j] > bound:
            raise RoundingError(f"xbar[{j}] = {xv[j]} exceeds its multiplicity bound {bound}")
    active = _active_cover(A, a)
    if not active:
        if info_out is not None:
            info_out.update({"K": 0, "L": Fraction(1)})
        return IntegerVector(tuple(0 for _ in xv))
    W = width(A, a)
    K = granularity_K(len(active), W, eps)
    inner: dict = {}
    xgran = granular_round(xv, A, a, c, K, trace_out=trace_out, info_out=inner)
    xhat = list(vec_ceil(xgran.values))
    _trim_surplus(xhat, A, a, c, active)

    relaxed_cap = vec_ceil(tuple((1 + eps) * v for v in xv))
    if any(xhat[j] > relaxed_cap[j] for j in range(len(xhat))):
        raise RoundingError("rounded solution exceeded ceil((1+eps) xbar)")
    if dot(c, xhat) > 4 * K * dot(c, xv):
        raise RoundingError("rounded solution exceeded the 4K cost bound")
    if any(dot(A[i], xhat) < a[i] for i in active):
        raise RoundingError("rounded solution lost coverage")
    if info_out is not None:
        info_out.update({"K": K, "L": inner["L"], "W": W})
    return IntegerVector(tuple(xhat))


def solve_cpip_bicriteria(inst: CpipInstance, epsilon) -> tuple[IntegerVector, SolveReport]:
    """End-to-end bicriteria solver for the full covering/packing program.

    Solves the standard LP relaxation (covering, packing, and multiplicity
    constraints all included), then rounds the fractional optimum against
    the covering system alone.  Guarantees, all checked exactly and
    recorded in the report: A xhat >= a, xhat <= ceil((1+eps) d),
    B xhat <= (1+eps) b + beta, and cost <= 4K fopt.
    """
    eps = Fraction(epsilon)
    if not (0 < eps <= 1):
        raise InstanceError(f"epsilon {eps} outside (0, 1]")
    if not is_width_normalized(inst):
        raise InstanceError("normalize width first")
    with Timer() as timer:
        problem = lp_from_instance(inst)
        sol = solve_lp(problem)
        if sol.status == "INFEASIBLE":
            raise InfeasibleError("no fractional solution", sol)
        if sol.status != "OPTIMAL":
            raise RoundingError(f"LP relaxation returned {sol.status}")
        certificate_ok = not verify_certificate(problem, sol, 0)
        xbar = sol.primal
        info: dict = {}
        xhat = bicriteria_round(xbar, inst.A, inst.a, inst.c, inst.d, eps, info_out=info)
        violations = check_solution(inst, xhat, eps)
        if not violations.ok_bicriteria:
            raise RoundingError(f"bicriteria guarantees violated: {violations}")
    cost = dot(inst.c, xhat.values)
    fopt = sol.objective_value
    report = SolveReport(
        mode="bicriteria",
        cost=cost,
        fopt=fopt,
        ratio_cost_fopt=float(cost / fopt) if fopt > 0 else None,
        epsilon=eps,
        K=info.get("K"),
        L=info.get("L"),
        x=xhat.values,
        violations=violations,
        guarantees_ok=violations.ok_bicriteria,
        certificate_ok=certificate_ok,
        elapsed_s=timer.elapsed,
    )
    return xhat, report
