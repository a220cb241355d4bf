import dataclasses
import functools
import math
import operator
import random
import re
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverpack.genbench import (
    gen_multiset_multicover,
    gen_random_cpip,
    gen_set_cover,
    knapsack_gap,
)
from coverpack import rounding, simplex
from coverpack.kc import solve_cip_strict
from coverpack.model import (
    GuaranteeError,
    InfeasibleError,
    InstanceError,
    LimitError,
    as_fraction,
    dot,
    integers,
    normalize_width,
)
from coverpack.oracle import brute_force_opt, check_solution
from coverpack.rounding import (
    CoverRows,
    EstimatorState,
    bicriteria_round,
    compute_scale_factor,
    derandomized_round,
    granular_round,
    granularity_K,
    randomized_round,
    solve_cpip_bicriteria,
    width,
)
from coverpack.simplex import lp_from_instance, solve_lp, verify_certificate
from conftest import F, make_inst


def cip_with_lp(m, n, seed, r=0):
    """Normalized random instance plus its relaxation optimum."""
    inst = normalize_width(gen_random_cpip(m, n, r, seed=seed))
    sol = solve_lp(lp_from_instance(inst))
    assert sol.status == "OPTIMAL"
    return inst, sol.primal.values, sol.objective_value


class TestScaleFactor:
    def test_balanced_branches(self):
        # W = 4 ln 2 makes both branches of the max equal 1
        assert float(compute_scale_factor(1, F(4 * math.log(2)))) == pytest.approx(2.0)

    def test_wide_instances_approach_one(self):
        assert float(compute_scale_factor(8, 10**6)) <= 1.01

    def test_narrow_instance(self):
        expected = 1 + 4 * math.log(16)
        assert float(compute_scale_factor(8, 1)) == pytest.approx(expected)

    def test_width_below_one_rejected(self):
        with pytest.raises(InstanceError, match="normalize width"):
            compute_scale_factor(3, F(1, 2))

    # L - 1 is about sqrt(4 ln(2m) / W), below 2^-53 from W near 10^33
    @pytest.mark.parametrize(
        "W, log2_W", [(10**40, "132.9"), (2**1100, "1100.0")], ids=["rounds-to-one", "overflows"]
    )
    def test_width_beyond_float_resolution_is_a_limit(self, W, log2_W):
        with pytest.raises(LimitError, match=rf"width W = 2\^{log2_W}"):
            compute_scale_factor(3, W)


class TestRandomizedRound:
    def test_integral_scaled_values_are_fixed(self):
        for seed in range(25):
            x = randomized_round((F(3), F(0)), 1, seed)
            assert x.values == (3, 0)

    def test_bernoulli_mean(self):
        total = sum(randomized_round((F(1, 4),), 1, seed)[0] for seed in range(100_000))
        assert abs(total / 100_000 - 0.25) < 0.01

    def test_some_seed_fully_succeeds(self):
        # the rounding guarantee holds with positive probability, so a
        # modest pool of seeds should always contain a full success
        rng = random.Random(31)
        rates = []
        for trial in range(50):
            inst, xbar, _ = cip_with_lp(rng.randint(1, 5), rng.randint(2, 6), seed=trial)
            L = compute_scale_factor(inst.m, width(inst.A, inst.a))
            cap = 2 * L * dot(inst.c, xbar)
            good = 0
            for seed in range(64):
                xhat = randomized_round(xbar, L, seed)
                covers = all(
                    dot(inst.A[i], xhat.values) >= inst.a[i] for i in range(inst.m)
                )
                cheap = dot(inst.c, xhat.values) <= cap
                good += covers and cheap
            rates.append(good / 64)
            assert good >= 1
        print(f"\nrandomized-round full-success rate: mean {sum(rates)/len(rates):.3f}, "
              f"min {min(rates):.3f}")


class TestDerandomizedRound:
    def test_single_tight_row_covers(self):
        A, a, c = ((F(1),),), (F(2),), (F(1),)
        L = compute_scale_factor(1, 2)
        xhat = derandomized_round((F(2),), A, a, c, L)
        assert dot(A[0], xhat.values) >= a[0]

    def test_never_fails_on_random_instances(self):
        for seed in range(60):
            inst, xbar, _ = cip_with_lp(
                1 + seed % 6, 2 + seed % 7, seed=seed, r=0
            )
            L = compute_scale_factor(inst.m, width(inst.A, inst.a))
            trace = []
            xhat = derandomized_round(
                xbar, inst.A, inst.a, inst.c, L, trace_out=trace
            )
            assert all(dot(inst.A[i], xhat.values) >= inst.a[i] for i in range(inst.m))
            assert dot(inst.c, xhat.values) <= 2 * L * dot(inst.c, xbar)
            assert all(xhat[j] <= math.ceil(L * v) for j, v in enumerate(xbar))
            assert trace[0] < 1
            for before, after in zip(trace, trace[1:]):
                assert after <= before + 1e-9 * (1 + before)

    def test_unbounded_gap_instance(self):
        # two-variable knapsack row without multiplicity: free rider drives
        # the relaxation (and hence the rounded cost) to zero
        inst = make_inst(A=[["1/2", 1]], a=[1], c=[0, 1], d=[None, None])
        sol = solve_lp(lp_from_instance(inst))
        assert sol.objective_value == 0
        L = compute_scale_factor(1, width(inst.A, inst.a))
        xhat = derandomized_round(sol.primal.values, inst.A, inst.a, inst.c, L)
        assert dot(inst.A[0], xhat.values) >= inst.a[0]
        assert dot(inst.c, xhat.values) <= 2 * L * sol.objective_value
        opt = brute_force_opt(inst)
        assert opt.cost == 0
        assert dot(inst.c, xhat.values) >= opt.cost

    def test_infeasible_xbar_rejected(self):
        with pytest.raises(InstanceError, match="fractional cover"):
            derandomized_round((F(1),), ((F(1),),), (F(2),), (F(1),), F(2))

    def test_estimator_at_least_one_rejected(self):
        # L = 1 means t = 0 and the row term alone is 1: must refuse
        with pytest.raises(InstanceError, match="width precondition"):
            derandomized_round((F(4),), ((F(1),),), (F(4),), (F(1),), F(1))


def dense_phi(xprime, A, a, c, L, active, W, fixed):
    """The estimator as first written: every term recomputed over every column.

    Test-only reference for ``EstimatorState``; ``fixed[j]`` is None for a
    coordinate still random, else its chosen value.
    """
    t = math.log(float(L))
    floors = [math.floor(v) for v in xprime]
    fracs = [float(v - math.floor(v)) for v in xprime]
    cost_denom = 2.0 * float(dot(c, xprime))
    cost_term = 0.0
    if cost_denom != 0.0:
        expected = 0.0
        for j in range(len(xprime)):
            value = floors[j] + fracs[j] if fixed[j] is None else fixed[j]
            expected += float(c[j]) * value
        cost_term = expected / cost_denom
    row_terms = []
    for i in active:
        exponent = t * float(W)
        for j in range(len(xprime)):
            w = float(F(A[i][j]) * W / a[i])
            if fixed[j] is not None:
                exponent -= t * w * fixed[j]
            else:
                exponent -= t * w * floors[j]
                exponent += math.log1p(fracs[j] * math.expm1(-t * w))
        row_terms.append(math.exp(min(exponent, 60.0)))
    return cost_term + _left_to_right(row_terms)


def _left_to_right(terms) -> float:
    """The float sum in index order (the builtin sum compensates from CPython 3.12)."""
    return functools.reduce(operator.add, terms, 0.0)


@st.composite
def estimator_cases(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    entries = st.sampled_from([F(0), F(0), F(1), F(2), F(1, 2), F(5, 3)])
    A = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    a = draw(st.lists(st.sampled_from([F(0), F(1), F(2), F(7, 2)]), min_size=m, max_size=m))
    a[0] = max(a[0], F(1))
    for i in range(m):
        if a[i] > 0 and not any(A[i]):
            A[i][draw(st.integers(0, n - 1))] = F(1)
    c = draw(st.lists(st.sampled_from([F(0), F(1), F(7, 3)]), min_size=n, max_size=n))
    quarters = st.integers(0, 16).map(lambda k: F(k, 4))
    xprime = draw(st.lists(quarters, min_size=n, max_size=n))
    return A, a, c, xprime


class TestEstimatorState:
    @settings(max_examples=150, deadline=None)
    @given(estimator_cases())
    # zero-cost columns with c.xbar = 0, single-nonzero rows, an empty column
    @example((
        [[F(1), F(0), F(0)], [F(0), F(2), F(0)]],
        [F(1), F(1)],
        [F(0), F(0), F(0)],
        [F(3, 4), F(1, 2), F(1, 4)],
    ))
    # already-integral coordinates between fractional ones
    @example(([[F(1), F(1), F(1)]], [F(2)], [F(1), F(0), F(3)], [F(1), F(1, 2), F(2)]))
    def test_matches_dense_reference(self, case):
        A, a, c, xprime = case
        active = [i for i in range(len(a)) if a[i] > 0]
        W = min(a[i] / v for i in active for v in A[i] if v > 0)
        # the formulas hold for any width; L only needs a width of at least 1
        L = compute_scale_factor(len(active), max(W, 1))
        state = EstimatorState(integers(xprime), CoverRows(A, a), *integers(c), L)
        fixed = [None] * len(xprime)
        # the starting value is the same float, not merely a close one
        assert state.phi() == dense_phi(xprime, A, a, c, L, active, W, fixed)
        for j, v in enumerate(xprime):
            fl = math.floor(v)
            choice = fl  # an integral coordinate takes no decision
            if v != fl:
                branch = {}
                for value in (fl, fl + 1):
                    fixed[j] = value
                    branch[value] = dense_phi(xprime, A, a, c, L, active, W, fixed)
                margin = abs(branch[fl] - branch[fl + 1])
                before = state.phi()
                choice = state.decide(j)
                assert choice in (fl, fl + 1)
                ceiling = choice == fl + 1
                if margin >= 1e-12 * before:
                    assert ceiling == (branch[fl + 1] < branch[fl])
                if not c[j] and not any(A[i][j] for i in active):
                    assert not ceiling  # an exact tie goes to the floor
            fixed[j] = choice
            reference = dense_phi(xprime, A, a, c, L, active, W, fixed)
            assert state.phi() == pytest.approx(reference, rel=1e-12, abs=0)

    @pytest.mark.parametrize("seed", range(3))
    def test_phi_adds_row_terms_left_to_right(self, seed):
        # phi, and so trace_out and the phi >= 1 start check, must be the
        # same float on every interpreter; with zero costs phi is the sum of
        # the row terms alone, so a last-bit change in that sum shows
        inst = gen_set_cover(50, 100, 0.1, seed)
        support = min(sum(1 for v in row if v > 0) for row in inst.A)
        L = compute_scale_factor(inst.m, width(inst.A, inst.a))
        xprime = tuple(L * F(1, support) for _ in inst.c)
        state = EstimatorState(integers(xprime), CoverRows(inst.A, inst.a), [0] * inst.n, 1, L)
        for j in range(inst.n):
            terms = [math.exp(min(e, 60.0)) for e in state.exponents]
            assert state.phi() == _left_to_right(terms)
            if state.fracs[j]:
                state.decide(j)


@pytest.mark.parametrize("seed", range(3))
def test_log_moment_computed_once_per_column_of_a_set_cover(seed, monkeypatch):
    # a 0/1 set cover weighs every entry of a column alike, so a column's
    # log-moment is one log1p, however many rows the column covers
    inst = gen_set_cover(50, 100, 0.1, seed)
    support = min(sum(1 for v in row if v > 0) for row in inst.A)
    rows = CoverRows(inst.A, inst.a)
    L = compute_scale_factor(inst.m, rows.width)
    xprime = tuple(L * F(1, support) for _ in inst.c)
    calls = []
    log1p = math.log1p
    monkeypatch.setattr(math, "log1p", lambda v: calls.append(v) or log1p(v))
    EstimatorState(integers(xprime), rows, *integers(inst.c), L)
    assert sum(map(len, rows.columns)) > inst.n  # the columns repeat their weights
    assert len(calls) <= len(rows.support)


def estimator_column_cases():
    """(name, xbar, rows, L): a set cover, its rows scaled by K, and a random-CPIP LP vertex.

    The set cover's weights are equal down each column; the random CPIP's differ.
    """
    inst = gen_set_cover(50, 100, 0.1, 0)
    support = min(sum(1 for v in row if v > 0) for row in inst.A)
    xbar = [F(1, support)] * inst.n
    rows = CoverRows(inst.A, inst.a)
    yield "set-cover", xbar, rows, compute_scale_factor(inst.m, rows.width)
    K = 4
    L = compute_scale_factor(inst.m, K * rows.width)
    yield "set-cover-scaled", [K * v for v in xbar], rows.scaled(K), L
    inst, xbar, _ = cip_with_lp(10, 15, 4, 2)
    rows = CoverRows(inst.A, inst.a, integers(xbar)[0])
    yield "random-cpip", xbar, rows, compute_scale_factor(len(rows.demands), rows.width)


ESTIMATOR_COLUMN_CASES = {case[0]: case[1:] for case in estimator_column_cases()}


@pytest.mark.parametrize(
    "case", ESTIMATOR_COLUMN_CASES.values(), ids=ESTIMATOR_COLUMN_CASES.keys()
)
def test_estimator_columns_equal_a_per_entry_recomputation(case):
    # the log-moment computed once per run of equal weights is, bit for bit,
    # the one each entry would compute for itself
    xbar, rows, L = case
    P, den = integers([L * v for v in xbar])
    state = EstimatorState((P, den), rows, [1] * len(xbar), 1, L)
    t, W = math.log(float(L)), rows.width
    for j, column in enumerate(state.columns):
        frac = P[j] % den / den
        expected = []
        for k, v in rows.columns[j]:
            tw = t * ((v * W.numerator) / (rows.demands[k] * W.denominator))
            expected.append((k, tw.hex(), math.log1p(frac * math.expm1(-tw)).hex()))
        assert [(k, tw.hex(), log_bern.hex()) for k, tw, log_bern in column] == expected


def derandomized_cases():
    """(name, xbar, A, a, c, L) on one row, set covers and random CPIPs at their LP optimum.

    A set cover's xbar_j is 1 / (smallest row support), so every row is covered.
    On these every decision takes the floor; the one row x_0 + ... + x_7 >= 1
    at xbar_j = 1/8 has L xbar_j = 0.47..., so some decisions take the ceiling.
    """
    yield "one-row 1x8", (F(1, 8),) * 8, [[1] * 8], [1], [1] * 8, compute_scale_factor(1, 1)
    for m, n, density, seed in ((30, 60, 0.1, 0), (50, 100, 0.1, 2), (20, 40, 0.3, 1)):
        inst = gen_set_cover(m, n, density, seed)
        support = min(sum(1 for v in row if v > 0) for row in inst.A)
        xbar = tuple(F(1, support) for _ in inst.c)
        L = compute_scale_factor(m, width(inst.A, inst.a))
        yield f"set-cover {m}x{n} {seed}", xbar, inst.A, inst.a, inst.c, L
    for m, n, r, seed in ((4, 6, 1, 0), (6, 8, 2, 11), (10, 15, 2, 4)):
        inst, xbar, _ = cip_with_lp(m, n, seed, r)
        L = compute_scale_factor(m, width(inst.A, inst.a))
        yield f"random-cpip {m}x{n} {seed}", xbar, inst.A, inst.a, inst.c, L


DERANDOMIZED_CASES = {case[0]: case[1:] for case in derandomized_cases()}


@pytest.mark.parametrize("case", DERANDOMIZED_CASES.values(), ids=DERANDOMIZED_CASES.keys())
def test_traced_and_untraced_round_alike(case):
    xbar, A, a, c, L = case
    trace = []
    assert derandomized_round(xbar, A, a, c, L, trace_out=trace) == derandomized_round(
        xbar, A, a, c, L
    )
    assert len(trace) == len(xbar) + 1


@pytest.mark.parametrize("case", DERANDOMIZED_CASES.values(), ids=DERANDOMIZED_CASES.keys())
def test_trace_out_is_phi_recomputed_from_scratch(case, monkeypatch):
    # a state keeps its row terms between decisions; each trace_out
    # value must still be the left-to-right sum of exp(min(e, 60)) over the
    # exponents as they stand, plus the cost term; an integral coordinate
    # takes no decision, so the state and phi after it are those before it
    recomputed = {}  # coordinate fixed (-1 for the start) -> phi from scratch

    def phi_from_scratch(state):
        cost_term = state.expected_cost / state.cost_denom if state.cost_denom else 0.0
        return cost_term + _left_to_right([math.exp(min(e, 60.0)) for e in state.exponents])

    init, decide = EstimatorState.__init__, EstimatorState.decide

    def init_then_recompute(self, *args, **kwargs):
        init(self, *args, **kwargs)
        recomputed[-1] = phi_from_scratch(self)

    def decide_then_recompute(self, j):
        value = decide(self, j)
        recomputed[j] = phi_from_scratch(self)
        return value

    monkeypatch.setattr(EstimatorState, "__init__", init_then_recompute)
    monkeypatch.setattr(EstimatorState, "decide", decide_then_recompute)
    xbar, A, a, c, L = case
    trace = []
    derandomized_round(xbar, A, a, c, L, trace_out=trace)
    want = [recomputed[-1]]
    for j, v in enumerate(xbar):
        assert (j in recomputed) == ((L * v).denominator > 1)
        want.append(recomputed.get(j, want[-1]))
    assert trace == want and len(set(trace)) > 1


@pytest.mark.parametrize("case", DERANDOMIZED_CASES.values(), ids=DERANDOMIZED_CASES.keys())
def test_every_state_keeps_its_row_terms(case):
    # with no trace too, each row's term is exp(min(e, 60)) of its exponent,
    # bit for bit, from construction on and after every decision
    xbar, A, a, c, L = case
    X, D = integers(xbar)
    xprime = [L.numerator * p for p in X], L.denominator * D
    state = EstimatorState(xprime, CoverRows(A, a, X), *integers(c), L)

    def exact_terms():
        return [t.hex() for t in state.terms] == [
            math.exp(min(e, 60.0)).hex() for e in state.exponents
        ]

    assert exact_terms()
    for j, frac in enumerate(state.fracs):
        if frac:
            state.decide(j)
            assert exact_terms()


# nonzero coordinates (all equal to 1) that the dense estimator gave, at
# xbar_j = 1 / (smallest row support) on gen_set_cover(m, n, 0.1, seed)
SET_COVER_OUTPUTS = {
    (50, 100, 0): (
        (22, 23, 37, 54, 55, 57, 59, 66, 70, 74, 82, 87, 93, 97, 98, 99),
        (6, 22, 23, 54, 57, 59, 70, 82, 87, 93, 97, 98, 99),
    ),
    (50, 100, 1): (
        (5, 16, 19, 31, 41, 48, 50, 51, 53, 57, 68, 79, 83, 87, 93),
        (5, 16, 19, 31, 41, 48, 50, 51, 53, 57, 68, 79, 83, 87, 93),
    ),
    (50, 100, 2): (
        (3, 7, 9, 10, 17, 23, 31, 37, 45, 51, 69, 73, 88, 96, 98),
        (3, 7, 9, 17, 23, 36, 37, 45, 51, 64, 69, 73, 96, 98),
    ),
    (100, 200, 0): (
        (1, 3, 11, 28, 30, 33, 54, 62, 93, 98, 106, 113, 139, 151, 167, 169, 170, 180,
         185, 190),
    ) * 2,
}


@pytest.mark.parametrize("shape", sorted(SET_COVER_OUTPUTS))
def test_set_cover_outputs_pinned(shape):
    m, n, seed = shape
    inst = gen_set_cover(m, n, 0.1, seed)
    support = min(sum(1 for v in row if v > 0) for row in inst.A)
    xbar = tuple(F(1, support) for _ in inst.c)
    L = compute_scale_factor(m, width(inst.A, inst.a))
    derandomized = derandomized_round(xbar, inst.A, inst.a, inst.c, L)
    bicriteria = bicriteria_round(xbar, inst.A, inst.a, inst.c, inst.d, F(1, 4))
    for out, ones in zip((derandomized, bicriteria), SET_COVER_OUTPUTS[shape]):
        assert out.values == tuple(int(j in ones) for j in range(n))


def rational_row_case(name):
    """(A, a, c, d, xbar) for one of the pinned inputs.

    Their demanded rows need different integer scalings (random CPIPs
    with fractional demands, the knapsack-gap rows), or they hold a
    zero-demand row, an empty column, or no demanded row at all.
    """
    family, _, arg = name.partition(" ")
    if family == "random-cpip":
        m, n, r, seed = (int(v) for v in arg.split(","))
        inst, xbar, _ = cip_with_lp(m, n, seed, r)
        return inst.A, inst.a, inst.c, inst.d, xbar
    if family == "knapsack-gap":
        inst = knapsack_gap(F(arg))
        return inst.A, inst.a, inst.c, inst.d, solve_lp(lp_from_instance(inst)).primal.values
    if family == "zero-demand-row":
        # an unnormalized row with a = 0 and positive entries
        A = ((F(1, 2), F(1, 3), F(1)), (F(3), F(2), F(5)), (F(1, 4), F(3, 4), F(1, 2)))
        a, c, d = (F(1), F(0), F(3, 4)), (F(2), F(1), F(3)), (F(2), F(1), None)
        return A, a, c, d, (F(2, 3), F(1, 2), F(1, 2))
    if family == "empty-column":
        A = ((F(2, 3), F(0), F(1, 2), F(1)), (F(0), F(0), F(5, 7), F(5, 7)))
        a, c, d = (F(1), F(5, 7)), (F(1), F(4), F(2), F(3)), (None,) * 4
        return A, a, c, d, (F(3, 4), F(5, 2), F(1, 2), F(1, 2))
    assert family == "no-demand"
    return ((F(1), F(2)),), (F(0),), (F(1), F(1)), (None, None), (F(1, 2), F(0))


def run_rational_row_case(name):
    """Every pinned output of the three rounding calls on one input."""
    A, a, c, d, xbar = rational_row_case(name)
    active = [i for i in range(len(a)) if a[i] > 0]
    L = compute_scale_factor(len(active), width(A, a)) if active else F(2)
    trace = []
    derandomized = derandomized_round(xbar, A, a, c, L, trace_out=trace)
    granular = granular_round(xbar, A, a, c, 3)
    # the scale factor of K = 3: scale(m, 3 W) over the demanded rows, 1 with none
    L3 = compute_scale_factor(len(active), 3 * width(A, a)) if active else F(1)
    out = {
        "derandomized": (derandomized.values, tuple(trace)),
        "granular": (tuple(str(v) for v in granular.values), float(L3)),
    }
    for eps in ("1/4", "1"):
        info = {}
        x = bicriteria_round(xbar, A, a, c, d, F(eps), info_out=info)
        out[f"bicriteria {eps}"] = (x.values, info["K"], float(info["L"]))
    return out


# outputs the Fraction-row rounding gave: the derandomized x and its
# estimator trace, the granular x at K = 3 with its L, and the bicriteria
# x, K and L (L as the float it was built from)
RATIONAL_ROW_OUTPUTS = {
    "random-cpip 4,6,1,0": {
        "derandomized": (
            (2, 2, 0, 1, 0, 0),
            (
                0.500000033701054, 0.4844918482729862, 0.48036352437657137,
                0.48036352437657137, 0.4792343697705671, 0.4792343697705671,
                0.4792343697705671
            ),
        ),
        "granular": (("4/3", "5/3", "0", "1", "0", "0"), 3.772588722239781),
        "bicriteria 1/4": ((2, 2, 0, 1, 0, 0), 134, 1.249144299234779),
        "bicriteria 1": ((2, 2, 0, 1, 0, 0), 9, 1.9613512577339218),
    },
    "random-cpip 5,7,0,3": {
        "derandomized": (
            (0, 0, 0, 0, 6, 0, 0),
            (
                0.5000000511105664, 0.49077841528416527, 0.4608487081574117,
                0.4608487081574117, 0.4608487081574117, 0.45945327594475055,
                0.4539202941957574, 0.4539202941957574
            ),
        ),
        "granular": (("0", "0", "0", "0", "6", "0", "0"), 3.0198114850824966),
        "bicriteria 1/4": ((1, 0, 0, 0, 4, 2, 0), 97, 1.249936784899403),
        "bicriteria 1": ((0, 0, 0, 0, 6, 0, 0), 7, 1.9303942678277763),
    },
    "random-cpip 6,8,2,11": {
        "derandomized": (
            (0, 7, 0, 1, 0, 0, 0, 3),
            (
                0.5000000001744433, 0.499604491709018, 0.4987296638537072, 0.4987296638537072,
                0.49524149424920255, 0.49524149424920255, 0.49524149424920255,
                0.49524149424920255, 0.49017627728537
            ),
        ),
        "granular": (("0", "22/3", "0", "1", "0", "0", "0", "8/3"), 4.3132088663840005),
        "bicriteria 1/4": ((0, 4, 0, 2, 0, 0, 0, 2), 160, 1.2492441899918632),
        "bicriteria 1": ((0, 7, 0, 1, 0, 0, 0, 3), 10, 1.9969767599674528),
    },
    "knapsack-gap 1/10": {
        "derandomized": (
            (2, 0),
            (
                0.534886762299042, 0.5228939203491197, 0.031676515240758
            ),
        ),
        "granular": (("4/3", "0"), 1.9613512577339218),
        "bicriteria 1/4": ((2, 0), 45, 1.2482198274039356),
        "bicriteria 1": ((2, 0), 3, 1.9613512577339218),
    },
    "knapsack-gap 1/3": {
        "derandomized": (
            (2, 0),
            (
                0.5311144547108082, 0.5235056918468465, 0.4265980708025733
            ),
        ),
        "granular": (("5/3", "0"), 1.9613512577339218),
        "bicriteria 1/4": ((2, 0), 45, 1.2482198274039356),
        "bicriteria 1": ((2, 0), 3, 1.9613512577339218),
    },
    "zero-demand-row": {
        "derandomized": (
            (0, 3, 0),
            (
                0.5000664283420044, 0.4834245620916112, 0.47719387250396966,
                0.4584804953437087
            ),
        ),
        "granular": (("4/3", "1", "0"), 2.848392481493187),
        "bicriteria 1/4": ((0, 1, 1), 89, 1.2496104255529288),
        "bicriteria 1": ((2, 1, 0), 6, 1.9613512577339218),
    },
    "empty-column": {
        "derandomized": (
            (1, 0, 1, 0),
            (
                0.5000513321128633, 0.49481509015387776, 0.4864449669940773,
                0.4833177510651631, 0.47862434066892157
            ),
        ),
        "granular": (("1", "0", "1", "0"), 2.848392481493187),
        "bicriteria 1/4": ((1, 0, 1, 0), 89, 1.2496104255529288),
        "bicriteria 1": ((1, 0, 1, 0), 6, 1.9613512577339218),
    },
    "no-demand": {
        "derandomized": ((0, 0), ()),
        "granular": (("0", "0"), 1.0),
        "bicriteria 1/4": ((0, 0), 0, 1.0),
        "bicriteria 1": ((0, 0), 0, 1.0),
    },
}


@pytest.mark.parametrize("name", list(RATIONAL_ROW_OUTPUTS))
def test_rational_row_outputs_pinned(name):
    assert run_rational_row_case(name) == RATIONAL_ROW_OUTPUTS[name]


def test_each_public_call_reads_each_row_of_A_once():
    reads = []

    class Row(tuple):
        def __iter__(self):
            reads.append(id(self))
            return super().__iter__()

    inst, xbar, _ = cip_with_lp(5, 7, seed=3)
    A = tuple(Row(row) for row in inst.A)
    L = compute_scale_factor(inst.m, width(inst.A, inst.a))
    calls = (
        lambda: derandomized_round(xbar, A, inst.a, inst.c, L, trace_out=[]),
        lambda: granular_round(xbar, A, inst.a, inst.c, 3),
        lambda: bicriteria_round(xbar, A, inst.a, inst.c, inst.d, F(1, 4)),
    )
    for call in calls:
        reads.clear()
        call()
        assert sorted(reads) == sorted(id(row) for row in A)


def three_roundings(xbar, A, a, c, L):
    """The outputs of the three public roundings: x with the trace, granular x, x with K and L."""
    trace, info = [], {}
    derandomized = derandomized_round(xbar, A, a, c, L, trace_out=trace)
    granular = granular_round(xbar, A, a, c, 3)
    bicriteria = bicriteria_round(xbar, A, a, c, None, F(1, 4), info_out=info)
    return (derandomized.values, trace), granular.values, (bicriteria.values, info)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10**6),
    st.data(),
    st.sampled_from([F(0), F(1, 7), F(3), F(10**6)]),
)
def test_a_zero_column_changes_no_rounding(seed, data, cost):
    # a zero coordinate rounds to 0 and, when its column does not exceed any
    # row's largest entry, moves neither the width nor any estimator term:
    # with such a column appended, each rounding is the old one with a 0
    # appended (the trace repeats its last value), at the same K and L
    rng = random.Random(seed)
    inst, xbar, _ = cip_with_lp(rng.randint(1, 6), rng.randint(2, 8), seed, rng.randint(0, 2))
    share = st.sampled_from([F(0), F(1, 3), F(1, 2), F(1)])
    column = [max(row) * data.draw(share) for row in inst.A]
    A = [(*row, v) for row, v in zip(inst.A, column)]
    L = compute_scale_factor(inst.m, width(inst.A, inst.a))
    (x, trace), granular, (xb, info) = three_roundings(xbar, inst.A, inst.a, inst.c, L)
    assert three_roundings((*xbar, F(0)), A, inst.a, (*inst.c, cost), L) == (
        ((*x, 0), trace + trace[-1:]), (*granular, 0), ((*xb, 0), info)
    )


def test_an_entry_of_a_zero_column_sets_the_width():
    # the zero coordinate's column holds the row's largest entry: W = 2/2 = 1,
    # where the other column alone gives 2, so K = ceil(4 ln 2 / W) is 3, not 2
    xbar, A, a, c = (F(2), F(0)), [[1, 2]], [2], [1, 1]
    assert CoverRows(A, a, [2, 0]).width == 1
    info = {}
    assert bicriteria_round(xbar, A, a, c, None, 1, info_out=info) == (2, 0)
    assert info["K"] == 3


@pytest.mark.parametrize("entry, match", [("x", "cannot read 'x'"), (None, "expected a number")])
def test_a_bad_entry_of_a_zero_column_is_refused(entry, match):
    # the scan reads every entry, the ones in columns it does not keep too
    xbar, A, a, c = (F(2), F(0)), [[1, entry]], [2], [1, 1]
    calls = (
        lambda: derandomized_round(xbar, A, a, c, compute_scale_factor(1, 2)),
        lambda: granular_round(xbar, A, a, c, 3),
        lambda: bicriteria_round(xbar, A, a, c, None, 1),
    )
    for call in calls:
        with pytest.raises(InstanceError, match=rf"A\[0\]\[1\]: {match}"):
            call()


class TestGranularRound:
    def test_K1_matches_derandomized(self):
        inst, xbar, _ = cip_with_lp(3, 4, seed=5)
        L = compute_scale_factor(inst.m, width(inst.A, inst.a))
        direct = derandomized_round(xbar, inst.A, inst.a, inst.c, L)
        gran = granular_round(xbar, inst.A, inst.a, inst.c, 1)
        assert tuple(gran.values) == tuple(F(v) for v in direct.values)

    def test_denominators_divide_K(self):
        for seed in range(20):
            inst, xbar, _ = cip_with_lp(2 + seed % 4, 3 + seed % 4, seed=100 + seed)
            for K in (2, 3, 4, 8, 16):
                out = granular_round(xbar, inst.A, inst.a, inst.c, K)
                for v in out.values:
                    assert (K * v).denominator == 1

    def test_scaled_demands_scale_width(self):
        inst, _, _ = cip_with_lp(3, 4, seed=42)
        W = width(inst.A, inst.a)
        for K in (2, 3, 5):
            scaled = make_inst(
                A=inst.A, a=[K * v for v in inst.a], c=inst.c, d=inst.d
            )
            assert width(scaled.A, scaled.a) == K * W

    def test_guarantees(self):
        for seed in range(25):
            inst, xbar, _ = cip_with_lp(2 + seed % 5, 2 + seed % 6, seed=200 + seed)
            K = 3
            out = granular_round(xbar, inst.A, inst.a, inst.c, K)
            L = compute_scale_factor(inst.m, K * width(inst.A, inst.a))
            assert all(dot(inst.A[i], out.values) >= inst.a[i] for i in range(inst.m))
            assert dot(inst.c, out.values) <= 2 * L * dot(inst.c, xbar)
            assert all(out.values[j] <= math.ceil(L * v) for j, v in enumerate(xbar))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 16),
    st.lists(st.integers(0, 40), min_size=1, max_size=6),
    st.lists(st.integers(0, 9), min_size=6, max_size=6),
)
def test_ceiling_multiplies_granular_cost_by_at_most_K(K, numerators, costs):
    # the crux of the bicriteria cost bound: for (1/K)-granular y,
    # ceil(y) costs at most K times y
    y = [F(p, K) for p in numerators]
    c = costs[: len(y)]
    lhs = sum(cj * math.ceil(v) for cj, v in zip(c, y))
    rhs = K * sum((cj * v for cj, v in zip(c, y)), F(0))
    assert lhs <= rhs


class TestBicriteriaRound:
    def test_granularity_formula(self):
        assert granularity_K(1, F(4 * math.log(2)), F(1)) == 1

    def test_granularity_exact_below_float_range(self):
        # eps^2 = 2^-2200 underflows a float; the quotient is taken exactly
        K = granularity_K(3, F(1), F(1, 2**1100))
        assert K == math.ceil(F(4.0 * math.log(6)) * 2**2200)

    def test_multiplicity_cap_over_eps_sweep(self):
        for seed in range(15):
            inst, xbar, _ = cip_with_lp(2 + seed % 5, 3 + seed % 5, seed=300 + seed)
            for eps in (F(1, 4), F(1, 2), F(1)):
                xhat = bicriteria_round(
                    xbar, inst.A, inst.a, inst.c, inst.d, eps
                )
                assert all(xhat[j] <= math.ceil((1 + eps) * v) for j, v in enumerate(xbar))

    def test_tight_integral_solution_is_fixed_point(self):
        # integral xbar covering the scaled demands exactly: the rounding
        # buys nothing it cannot return, so xbar comes back unchanged
        A, a, c = ((F(1),) * 6,), (F(6),), (F(1),) * 6
        xbar = (F(1),) * 6
        xhat = bicriteria_round(xbar, A, a, c, (None,) * 6, 1)
        assert xhat.values == (1,) * 6

    def test_cost_bound(self):
        for seed in range(15):
            inst, xbar, _ = cip_with_lp(2 + seed % 4, 3 + seed % 4, seed=400 + seed)
            info = {}
            xhat = bicriteria_round(
                xbar, inst.A, inst.a, inst.c, inst.d, F(1, 2), info_out=info
            )
            assert dot(inst.c, xhat.values) <= 4 * info["K"] * dot(inst.c, xbar)

    def test_parameter_ranges_rejected(self):
        A, a, c, xbar = ((F(1), F(1)),), (F(1),), (F(1), F(1)), (F(1, 2), F(1, 2))
        for eps in (F(0), F(2)):
            with pytest.raises(InstanceError, match="epsilon"):
                bicriteria_round(xbar, A, a, c, (None, None), eps)
        with pytest.raises(InstanceError, match="granularity"):
            granular_round(xbar, A, a, c, 0)
        with pytest.raises(InstanceError, match=r"xbar\[1\] = 1/2 exceeds"):
            bicriteria_round(xbar, A, a, c, (None, F(1, 4)), 1)


_A, _a, _c, _xbar = ((1, 1), (1, 0)), (1, 1), (1, 1), (F(1), F(1))
# x = (0, 1) covers the first row of _A_LONG and misses the second
_A_LONG, _x_LONG = ((0, 1), (1, 0)), (F(0), F(1))
# one row, half of each column, and a negative cost
_A1, _a1, _c_NEG, _x_HALF = ((1, 1),), (1,), (-1, 0), (F(1, 2), F(1, 2))
_L = compute_scale_factor(2, 1)
_NONE = (None, None)

BAD_ARGUMENTS = {
    "derandomized-short-xbar": (
        lambda: derandomized_round(_xbar[:1], _A, _a, _c, _L), r"A\[0\] has 2 entries, expected 1"
    ),
    "derandomized-long-xbar": (
        lambda: derandomized_round(_xbar + (F(1),), _A, _a, _c, _L),
        r"A\[0\] has 2 entries, expected 3",
    ),
    "derandomized-short-c": (
        lambda: derandomized_round(_xbar, _A, _a, _c[:1], _L), "c has 1 entries"
    ),
    "derandomized-ragged-A": (
        lambda: derandomized_round(_xbar, ((1, 1), (1, 1, 1)), _a, _c, _L),
        r"A\[1\] has 3 entries, expected 2",
    ),
    "derandomized-short-a": (
        lambda: derandomized_round(_x_LONG, _A_LONG, _a[:1], _c, _L), "a has 1 entries, expected 2"
    ),
    "granular-short-a": (
        lambda: granular_round(_x_LONG, _A_LONG, _a[:1], _c, 2), "a has 1 entries, expected 2"
    ),
    "bicriteria-short-a": (
        lambda: bicriteria_round(_x_LONG, _A_LONG, _a[:1], _c, _NONE, 1),
        "a has 1 entries, expected 2",
    ),
    "granular-float-K": (lambda: granular_round(_xbar, _A, _a, _c, 2.5), "K = 2.5"),
    "granular-bool-K": (lambda: granular_round(_xbar, _A, _a, _c, True), "K = True"),
    "bicriteria-short-d": (
        lambda: bicriteria_round(_xbar, _A, _a, _c, (1,), 1), "d has 1 entries"
    ),
    "bicriteria-long-d": (
        lambda: bicriteria_round(_xbar, _A, _a, _c, (1, 1, 1), 1), "d has 3 entries"
    ),
    "bicriteria-short-c": (
        lambda: bicriteria_round(_xbar, _A, _a, _c[:1], _NONE, 1), "c has 1 entries"
    ),
    "derandomized-negative-cost": (
        lambda: derandomized_round(_x_HALF, _A1, _a1, _c_NEG, _L), r"^c\[0\] = -1 is negative$"
    ),
    "granular-negative-cost": (
        lambda: granular_round(_x_HALF, _A1, _a1, _c_NEG, 2), r"^c\[0\] = -1 is negative$"
    ),
    "bicriteria-negative-cost": (
        lambda: bicriteria_round(_x_HALF, _A1, _a1, _c_NEG, _NONE, 1),
        r"^c\[0\] = -1 is negative$",
    ),
    "bicriteria-unreadable-d": (
        lambda: bicriteria_round(_xbar, _A, _a, _c, ("x", None), 1), r"d\[0\]: cannot read 'x'"
    ),
    "bicriteria-unreadable-c": (
        lambda: bicriteria_round(_xbar, _A, _a, (1, "x"), _NONE, 1), r"c\[1\]: cannot read 'x'"
    ),
    "derandomized-unreadable-a": (
        lambda: derandomized_round(_xbar, _A, (None, 1), _c, _L), r"a\[0\]: expected a number"
    ),
    "granular-unreadable-A": (
        lambda: granular_round(_xbar, ((1, "x"), (1, 0)), _a, _c, 2), r"A\[0\]\[1\]: cannot read"
    ),
    # a falsy non-number used to be skipped as a zero entry, returning (1, 1)
    "derandomized-None-in-A": (
        lambda: derandomized_round([1, 1], [[1, None], [0, 1]], [1, 1], [1, 1], _L),
        r"A\[0\]\[1\]: expected a number",
    ),
    "bicriteria-empty-string-in-A": (
        lambda: bicriteria_round([1, 1], [[1, ""], [0, 1]], [1, 1], [1, 1], _NONE, 1),
        r"A\[0\]\[1\]: cannot read ''",
    ),
    # a row with no positive demand used to go unread, returning (0, 1)
    "derandomized-None-in-zero-demand-row": (
        lambda: derandomized_round([1, 1], [[None, "x"], [0, 1]], [0, 1], [1, 1], _L),
        r"A\[0\]\[0\]: expected a number",
    ),
    "derandomized-Decimal-zero-demand": (
        lambda: derandomized_round([1, 1], [[1, 0], [0, 1]], [Decimal(0), 1], [1, 1], _L),
        r"a\[0\]: unsupported number type Decimal",
    ),
    # a negative xbar used to be rounded, or to fail only on the output:
    # bicriteria_round returned (0, 2) and the others named x[0], not xbar[0]
    "derandomized-negative-xbar": (
        lambda: derandomized_round([-1 / 2, 3], [[1, 1]], [2], [1, 1], _L),
        r"^xbar\[0\] = -1/2 is negative$",
    ),
    "granular-negative-xbar": (
        lambda: granular_round([3, F(-1, 3)], [[1, 1]], [2], [1, 1], 2),
        r"^xbar\[1\] = -1/3 is negative$",
    ),
    "bicriteria-negative-xbar": (
        lambda: bicriteria_round([-1 / 2, 3], [[1, 1]], [2], [1, 1], _NONE, 1 / 4),
        r"^xbar\[0\] = -1/2 is negative$",
    ),
    "randomized-negative-xbar": (
        lambda: randomized_round([1, -1 / 2, -2], 2, 0), r"^xbar\[1\] = -1/2 is negative$"
    ),
    # an argument that is not a sequence used to be a TypeError
    "bicriteria-int-xbar": (
        lambda: bicriteria_round(5, _A, _a, _c, _NONE, 1), r"^xbar: expected a sequence, got int$"
    ),
    "bicriteria-int-c": (
        lambda: bicriteria_round(_xbar, _A, _a, 5, _NONE, 1), r"^c: expected a sequence, got int$"
    ),
    "randomized-None-xbar": (
        lambda: randomized_round(None, 2, 0), r"^xbar: expected a sequence, got NoneType$"
    ),
}


@pytest.mark.parametrize("call, match", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_bad_arguments_are_instance_errors(call, match):
    # a wrong length, a non-int K, a negative cost or an entry that is not a
    # number is bad input, not an IndexError, a TypeError, a silently
    # ignored row or a guarantee fault
    with pytest.raises(InstanceError, match=match):
        call()


_A2, _a2, _c2 = [[1, 0], [0, 1]], [1, 1], [1, 1]
#: each public rounding, called on (_A2, _a2)
ROUNDINGS = {
    "derandomized": lambda: derandomized_round([1, 1], _A2, _a2, _c2, _L),
    "granular": lambda: granular_round([1, 1], _A2, _a2, _c2, 2),
    "bicriteria": lambda: bicriteria_round([1, 1], _A2, _a2, _c2, _NONE, 1),
}


@pytest.mark.parametrize("call", ROUNDINGS.values(), ids=ROUNDINGS.keys())
def test_each_rounding_scans_A_once(call, monkeypatch):
    # one CoverRows per public call, however many cores the call runs
    built = []

    class Counted(CoverRows):
        def __init__(self, A, a, x=None):
            built.append(A)
            super().__init__(A, a, x)

    monkeypatch.setattr(rounding, "CoverRows", Counted)
    assert all(call().values)  # each row is covered by its own variable
    assert built == [_A2]


#: (A, a, c) with float, str or bool entries, and the exact values they stand for
READABLE_ENTRIES = {
    "float-cost": ((_A2, _a2, [0.5, 1]), (_A2, _a2, [F(1, 2), 1])),
    "str-demand": ((_A2, ["1", 1], _c2), (_A2, _a2, _c2)),
    "float-entry": (([[0.5, 0], [0, 1]], _a2, _c2), ([[F(1, 2), 0], [0, 1]], _a2, _c2)),
    "pq-strings": (
        ([["1/2", 0], ["1/3", "1"]], ["3/4", 1], _c2),
        ([[F(1, 2), 0], [F(1, 3), 1]], [F(3, 4), 1], _c2),
    ),
    "bool-entry": (([[True, 0], [0, 1]], _a2, _c2), (_A2, _a2, _c2)),
    "float-in-zero-demand-row": (
        ([[0.5, 0], [0, 1]], [0, 1], _c2),
        ([[F(1, 2), 0], [0, 1]], [0, 1], _c2),
    ),
}
_X_COVER = [F(5, 2), F(5, 4)]  # covers each system above


@pytest.mark.parametrize("given, exact", READABLE_ENTRIES.values(), ids=READABLE_ENTRIES.keys())
def test_entries_round_as_the_values_they_stand_for(given, exact):
    # a float entry used to raise AttributeError and a str demand TypeError;
    # a bool is read as the int it is
    calls = (
        lambda A, a, c: derandomized_round(_X_COVER, A, a, c, compute_scale_factor(2, 1)),
        lambda A, a, c: granular_round(_X_COVER, A, a, c, 3),
        lambda A, a, c: bicriteria_round(_X_COVER, A, a, c, _NONE, 1),
    )
    for call in calls:
        assert call(*given) == call(*exact)


def test_scaled_rows_keep_the_scaled_demands():
    rows = CoverRows(_A2, _a2)
    scaled = rows.scaled(3)
    assert scaled.demands == [3, 3] and scaled.width == 3 * rows.width
    assert (scaled.rows, scaled.columns) == (rows.rows, rows.columns)
    assert (rows.demands, rows.width) == ([1, 1], 1)


def reference_cover_rows(A, a):
    """(active, rows, demands, scales) by one ``integers`` call per demanded row."""
    active, rows, demands, scales = [], [], [], []
    for i, (row, ai) in enumerate(zip(A, a)):
        row, ai = [as_fraction(v) for v in row], as_fraction(ai)
        if ai > 0:
            support = [j for j, v in enumerate(row) if v]
            (demand, *entries), scale = integers([ai, *(row[j] for j in support)])
            active.append(i)
            rows.append((support, entries))
            demands.append(demand)
            scales.append(scale)
    return active, rows, demands, scales


# a zero-demand row, an empty column (2), a row of integer entries under a
# fractional demand, and rows of fractional entries under an integer demand
_A_INT, _a_INT = [[1, 0, 0, 2], [3, 1, 0, 0], [0, 2, 0, 1]], [0, 2, 3]
_A_HALF = [[F(1, 2), 0, 0, 2], [3, F(3, 4), 0, 0], [0, F(5, 4), 0, 1], [F(1, 4), 1, 0, 0]]
_a_HALF = [F(3, 2), 1, 0, 2]
#: each form of the two matrices above: (A, a) as given, and the (A, a) it stands for
COVER_ROW_FORMS = {
    "int": ((_A_INT, _a_INT), (_A_INT, _a_INT)),
    "int-as-Fraction": (([[F(v) for v in r] for r in _A_INT], [F(v) for v in _a_INT]),
                        (_A_INT, _a_INT)),
    "int-mixed": (([[1, F(0), 0, 2], [F(3), True, False, 0], [0, 2, 0, F(1)]], [0, F(2), 3]),
                  (_A_INT, _a_INT)),
    "int-as-float": (([[float(v) for v in r] for r in _A_INT], _a_INT), (_A_INT, _a_INT)),
    "int-as-str": (([[str(v) for v in r] for r in _A_INT], [str(v) for v in _a_INT]),
                   (_A_INT, _a_INT)),
    "half": ((_A_HALF, _a_HALF), (_A_HALF, _a_HALF)),
    "half-mixed": (([[F(1, 2), 0, F(0), F(2)], [3, F(3, 4), 0, 0], [F(0), F(5, 4), 0, 1],
                     [F(1, 4), True, 0, 0]], [F(3, 2), F(1), 0, 2]), (_A_HALF, _a_HALF)),
    "half-as-float": (([[float(v) for v in r] for r in _A_HALF], [float(v) for v in _a_HALF]),
                      (_A_HALF, _a_HALF)),
    "half-as-p/q": (([[str(v) for v in r] for r in _A_HALF], [str(v) for v in _a_HALF]),
                    (_A_HALF, _a_HALF)),
}


@pytest.mark.parametrize("given, exact", COVER_ROW_FORMS.values(), ids=COVER_ROW_FORMS.keys())
def test_cover_rows_alike_in_every_form(given, exact):
    # the scan takes a row over lcm 1 as its numerators and sends the rest
    # to integers(); every form must give the rows of one integers() call
    # per row, and the same width
    A, a = exact
    got, want = CoverRows(*given), CoverRows([[F(v) for v in r] for r in A], [F(v) for v in a])
    assert (got.active, got.rows, got.demands, got.scales) == reference_cover_rows(A, a)
    assert (got.active, got.rows, got.demands, got.scales, got.columns, got.width) == (
        want.active, want.rows, want.demands, want.scales, want.columns, want.width
    )
    assert all(type(v) is int for v in got.demands + [v for _, row in got.rows for v in row])
    assert width(*given) == got.width
    # on a point's support: the same rows on its nonzero columns, the same width
    x = [1, 0, 3, 0]
    kept = CoverRows(*given, x)
    assert kept.support == [0, 2] and kept.width == got.width
    assert kept.rows == [
        ([j for j in cols if x[j]], [v for j, v in zip(cols, row) if x[j]])
        for cols, row in got.rows
    ]
    assert kept.columns == [column if x[j] else [] for j, column in enumerate(got.columns)]


def cover_rows_read(rows):
    return (rows.active, rows.rows, rows.demands, rows.scales, rows.columns, rows.support,
            rows.width)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cover_rows_of_fractions_equal_the_rows_as_ints(data):
    # a row of Fractions is read through their slots, an int row through the
    # properties: the same rows, kept columns and width, with and without a point
    m, n = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 5))
    entry = st.one_of(st.integers(0, 3), st.integers(2**64, 2**65))
    A = [[data.draw(entry) for _ in range(n)] for _ in range(m)]
    a = [data.draw(entry) for _ in range(m)]
    x = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    fractions = [[F(v) for v in row] for row in A], [F(v) for v in a]
    for point in (None, x):
        got, want = CoverRows(*fractions, point), CoverRows(A, a, point)
        assert cover_rows_read(got) == cover_rows_read(want)
    # rows of Fractions over other denominators: one integers() call per row
    D = data.draw(st.integers(2, 6))
    scaled = [[F(v, D) for v in row] for row in A], [F(v, D + 1) for v in a]
    got = CoverRows(*scaled)
    assert (got.active, got.rows, got.demands, got.scales) == reference_cover_rows(*scaled)


@pytest.mark.parametrize("kind", [int, F])
def test_cover_rows_of_a_zero_column_matrix(kind):
    A, a = [[], []], [kind(1), kind(0)]
    for point in (None, []):
        assert cover_rows_read(CoverRows(A, a, point)) == ([0], [([], [])], [1], [1], [], [], None)
    with pytest.raises(InstanceError, match="^no covering structure"):
        width(A, a)


def reference_trim(xhat, rows, costs, slack, floors=None):
    """``rounding._trim_surplus`` as first written: ``all`` over a generator, key (-c_j, j)."""
    columns = rows.columns

    def remove(j, units):
        xhat[j] -= units
        for k, aij in columns[j]:
            slack[k] -= aij * units

    if floors is not None:
        for j in rows.support:
            while xhat[j] > floors[j] and all(slack[k] >= aij for k, aij in columns[j]):
                remove(j, 1)
    for j in sorted(rows.support, key=lambda j: (-costs[j], j)):
        removable = xhat[j]
        for k, aij in columns[j]:
            removable = min(removable, slack[k] // aij)
        if removable > 0:
            remove(j, removable)


@st.composite
def trim_cases(draw):
    """(A, a, xhat, costs, floors, point): small int rows that xhat covers, costs often tied."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    A = [draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)) for _ in range(m)]
    xhat = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    a = [draw(st.integers(0, sum(map(operator.mul, row, xhat)))) for row in A]
    costs = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    floors = draw(st.none() | st.tuples(*(st.integers(0, v) for v in xhat)).map(list))
    return A, a, xhat, costs, floors, draw(st.sampled_from([None, xhat]))


@settings(max_examples=300, deadline=None)
@given(trim_cases())
# the first pass hands back x_0's bump; the second alone would drop x_1, the costlier
@example(([[1, 1]], [1], [1, 1], [0, 5], [0, 0], None))
# tied costs: the second pass drops x_0, the lower index, first
@example(([[1, 1]], [1], [1, 1], [1, 1], None, None))
def test_trim_surplus_equals_the_reference_loop(case):
    A, a, xhat, costs, floors, point = case
    rows = CoverRows(A, a, point)
    got, want = xhat[:], xhat[:]
    got_slack, want_slack = rows.slack(got), rows.slack(want)
    rounding._trim_surplus(got, rows, costs, got_slack, floors)
    reference_trim(want, rows, costs, want_slack, floors)
    assert (got, got_slack) == (want, want_slack)
    assert got_slack == rows.slack(got) and min(got_slack, default=0) >= 0


def test_width_reads_a_float_entry_exactly():
    # the width read apart from the roundings compared floats and returned 2.0
    W = width([[0.5]], [1])
    assert W == F(2) and type(W) is F


#: (A, a) that width refuses as the roundings refuse it, and the message
WIDTH_REFUSES = {
    "str-entry": (([["x"]], [1]), "A[0][0]: cannot read 'x' as a rational"),
    "None-entry": (([[None]], [1]), "A[0][0]: expected a number, got None"),
    "ragged-rows": (([[1, 2], [1]], [1, 1]), "A[1] has 1 entries, expected 2"),
}


@pytest.mark.parametrize("given, message", WIDTH_REFUSES.values(), ids=WIDTH_REFUSES.keys())
def test_width_refuses_what_the_roundings_refuse(given, message):
    # a bad entry used to escape as TypeError, and ragged rows gave a width
    with pytest.raises(InstanceError, match=f"^{re.escape(message)}$"):
        width(*given)


#: a negative entry of A, a negative demand and a negative entry of a vacuous
#: row, each in the column where xbar = (0, 1) is 0, and the message
NEGATIVE = {
    "A": (([[-1, 2]], [1]), "A[0][0] = -1 is negative"),
    "a": (([[1, 2]], [-1]), "a[0] = -1 is negative"),
    "vacuous-row": (([[-1, 2]], [0]), "A[0][0] = -1 is negative"),
    "vacuous-rational-row": (([[F(-1, 2), 2]], [0]), "A[0][0] = -1/2 is negative"),
    # a negative demand is named before a negative entry of its row
    "a-before-A": (([[-1, 2]], [-1]), "a[0] = -1 is negative"),
}
#: every public reader of (A, a), called on it
READERS_OF_A = {
    "derandomized_round": lambda A, a: derandomized_round([0, 1], A, a, [1, 1], 2),
    "granular_round": lambda A, a: granular_round([0, 1], A, a, [1, 1], 2),
    "bicriteria_round": lambda A, a: bicriteria_round([0, 1], A, a, [1, 1], None, 1),
    "width": width,
}


@pytest.mark.parametrize("call", READERS_OF_A.values(), ids=READERS_OF_A.keys())
@pytest.mark.parametrize("given, message", NEGATIVE.values(), ids=NEGATIVE.keys())
def test_negative_entries_refused(given, message, call):
    # bicriteria_round rounded past a negative entry, derandomized_round read a
    # negative demand as a vacuous row, and width read past both
    with pytest.raises(InstanceError, match=f"^{re.escape(message)}$"):
        call(*given)


class TestSolveCpipBicriteria:
    @pytest.mark.parametrize(
        "inst",
        [
            knapsack_gap(F(1, 7)),
            gen_random_cpip(6, 7, 2, 0),
            gen_set_cover(8, 12, 0.4, 0),
            gen_multiset_multicover(4, 6, 1, d_max=2, r=1),
            make_inst(
                A=[["1/3", 0, "2/5"], [0, 0, 0], ["7/4", "1/6", 0]], a=["5/6", 0, 3],
                c=[1, 1, 1], d=[1, None, 2], B=[[1, "1/2", 0]], b=[8],
            ),
        ],
        ids=["knapsack-gap", "random-cpip", "set-cover", "multiset-multicover", "rational"],
    )
    def test_rows_from_int_rows_equal_rows_from_A(self, inst, monkeypatch):
        # solve_cpip_bicriteria hands bicriteria_round the instance's integer
        # rows, whose lcm spans each row's zero entries too; a scan of them
        # must give the rows a scan of (A, a) gives
        handed = []

        def spy(xbar, A, a, *args, **kwargs):
            handed.append(CoverRows(A, a))
            return bicriteria_round(xbar, A, a, *args, **kwargs)

        monkeypatch.setattr(rounding, "bicriteria_round", spy)
        inst = normalize_width(inst)
        solve_cpip_bicriteria(inst, F(1, 2))
        (got,) = handed
        want = CoverRows(inst.A, inst.a)
        assert (got.active, got.rows, got.demands) == (want.active, want.rows, want.demands)
        assert got.columns == want.columns and got.width == want.width

    def test_zero_demand_instance_returns_zero(self):
        inst = normalize_width(
            make_inst(A=[[1, 1]], a=[0], c=[1, 1], d=[2, 2])
        )
        assert inst.m == 0
        xhat, report = solve_cpip_bicriteria(inst, 1)
        assert xhat.values == (0, 0)
        assert report.cost == 0

    def test_additive_one_multiplicity(self):
        # eps = 1/(2 max d) with max d = 2 keeps every coordinate within d+1
        for seed in range(12):
            inst = gen_multiset_multicover(3, 5, seed=seed, d_max=2)
            xhat, _ = solve_cpip_bicriteria(inst, F(1, 4))
            for j in range(inst.n):
                assert xhat[j] <= inst.d[j] + 1

    def test_packing_slack_guarantee(self):
        for seed in range(30):
            inst = normalize_width(gen_random_cpip(3, 5, 2, seed=500 + seed))
            eps = (F(1, 4), F(1, 2), F(1))[seed % 3]
            xhat, report = solve_cpip_bicriteria(inst, eps)
            beta = inst.beta()
            for i in range(inst.r):
                assert dot(inst.B[i], xhat.values) <= (1 + eps) * inst.b[i] + beta[i]
            assert report.guarantees_ok

    def test_infeasible_lp_raises(self):
        inst = normalize_width(make_inst(A=[[1]], a=[1], c=[1], d=["1/2"]))
        with pytest.raises(InfeasibleError, match="no fractional solution"):
            solve_cpip_bicriteria(inst, 1)

    def test_failed_final_check_is_a_guarantee_fault(self, monkeypatch):
        def uncovered(inst, x, eps):
            report = check_solution(inst, x, eps)
            return dataclasses.replace(report, covering=((0, F(1)),))

        monkeypatch.setattr(rounding, "check_solution", uncovered)
        inst = normalize_width(gen_random_cpip(3, 4, 1, seed=8))
        with pytest.raises(GuaranteeError, match="bicriteria guarantees violated"):
            solve_cpip_bicriteria(inst, F(1, 2))

    def test_report_fields(self):
        inst = normalize_width(gen_random_cpip(3, 4, 1, seed=8))
        xhat, report = solve_cpip_bicriteria(inst, F(1, 2))
        assert report.mode == "bicriteria"
        assert report.K >= 1 and report.L >= 1
        assert report.cost == dot(inst.c, xhat.values)
        assert report.certificate_ok
        assert report.violations.ok_bicriteria


RELAXATIONS = {
    "exact": (lambda: gen_random_cpip(4, 6, 3, 1), False),
    "guided": (lambda: gen_random_cpip(20, 30, 3, 1), True),
    "infeasible": (lambda: make_inst(A=[[1]], a=[1], c=[1], d=["1/2"]), False),
}


@pytest.mark.parametrize("make, guided", RELAXATIONS.values(), ids=RELAXATIONS.keys())
def test_each_relaxation_certificate_checked_once(monkeypatch, make, guided):
    # solve_lp checks a guided optimum's certificate (it falls back to the
    # exact run on a failed one), and solve_relaxation checks every other
    # result, a Farkas ray included: one check on every path
    checked = []

    def counted(p, s):
        checked.append(s)
        return verify_certificate(p, s)

    monkeypatch.setattr(simplex, "verify_certificate", counted)
    monkeypatch.setattr(rounding, "verify_certificate", counted)
    inst = normalize_width(make())
    try:
        sol = rounding.solve_relaxation(inst)
    except InfeasibleError:
        sol = solve_lp(lp_from_instance(inst))
    assert sol.guided is guided
    assert checked == [sol]


SWEEP_INSTANCES = {
    "knapsack-gap": lambda: knapsack_gap(F(1, 10)),
    "random-cpip": lambda: gen_random_cpip(6, 7, 2, 0),
    "set-cover": lambda: gen_set_cover(8, 12, 0.4, 0),
    "multiset-multicover": lambda: gen_multiset_multicover(4, 6, 1, d_max=2, r=1),
}


@pytest.mark.parametrize("name", sorted(SWEEP_INSTANCES))
def test_every_epsilon_solves_or_hits_the_float_limit(name):
    # eps = 2^-k crosses each point where floats give out: from k = 53 the
    # float 1 + eps is 1.0, from about k = 510 K W overflows a float, and
    # from k = 1000 eps^2 underflows; past the first, xbar is rounded at
    # K' = D, so the float limit stands only where D > K, and no k hits it here
    inst = normalize_width(SWEEP_INSTANCES[name]())
    solvers = {solve_cip_strict: "ok_strict", solve_cpip_bicriteria: "ok_bicriteria"}
    ks = [*range(1, 61), *range(100, 1101, 50)]
    solved = set()
    for k in ks:
        eps = F(1, 2**k)
        for solver, ok in solvers.items():
            try:
                xhat, report = solver(inst, eps)
            except LimitError as exc:
                assert "float scale factor" in str(exc)
                continue
            assert getattr(check_solution(inst, xhat, eps), ok) and report.guarantees_ok
            assert k < 53 or report.L == 1  # the float L' is 1.0: xbar is rounded at K' = D
            solved.add((solver, k))
    assert solved == {(solver, k) for solver in solvers for k in ks}


def test_float_limit_rounds_xbar_at_its_own_denominator():
    # at eps = 2^-120, K is about 2^241.5 and L' rounds to 1.0: xbar, over
    # D = 2^200 <= K, is rounded at K' = D; at eps = 2^-60, K is about
    # 2^121.5 < D, and the LimitError stands
    D = 2**200
    xbar, A, a, c = (F(D - 1, D), F(1, D)), [[1, 1]], [1], [1, 1]
    info = {}
    # ceil(xbar) = (1, 1) covers the row twice; the trim drops x_0 first
    assert bicriteria_round(xbar, A, a, c, None, F(1, 2**120), info_out=info) == (0, 1)
    assert info == {"K": D, "L": 1}
    with pytest.raises(LimitError, match="float scale factor rounds to 1.0"):
        bicriteria_round(xbar, A, a, c, None, F(1, 2**60))


#: (xbar, A, a, c, the granular K x that _granular is made to return, message):
#: each K x is just past the check, so a check loosened by a little lets it through
GRANULAR_FAULTS = {
    # ceil(2 * 1) = 2 units of x_0 allowed, 3 returned; the row needs all 3
    "above-ceil": (
        (1, 2), [[1, 1]], [3], [1, 1], lambda K: [3 * K, 0],
        r"^rounded solution exceeded ceil\(\(1\+eps\) xbar\)$",
    ),
    # cost 20 against 4K c.xbar = 12.24 and 8K c.xbar = 24.48 (K = 3)
    "above-4K-cost": (
        (F(1, 1000), 1), [[1, 1]], [1], [20, 1], lambda K: [K, 0],
        r"^rounded solution exceeded the 4K cost bound$",
    ),
    # one unit for a demand of 2: short by exactly one
    "short-by-one": (
        (2,), [[1]], [2], [1], lambda K: [K],
        r"^rounded solution lost coverage$",
    ),
}


@pytest.mark.parametrize(
    "xbar, A, a, c, kx, match", GRANULAR_FAULTS.values(), ids=GRANULAR_FAULTS.keys()
)
def test_bicriteria_checks_catch_a_faulty_granular_core(monkeypatch, xbar, A, a, c, kx, match):
    monkeypatch.setattr(rounding, "_granular", lambda xv, costs, c_den, rows, K, L: kx(K))
    with pytest.raises(GuaranteeError, match=match):
        bicriteria_round(xbar, A, a, c, None, 1)


@pytest.mark.parametrize(
    "ceiling", [True, False], ids=["every-ceiling-over-cost", "every-floor-uncovered"]
)
def test_derandomization_check_catches_a_faulty_estimator(monkeypatch, ceiling):
    # x_0 + ... + x_7 >= 1 at xbar_j = 1/8 and L = 3.77..., so each L xbar_j
    # is 0.47...: eight ceilings cost 8 against 2 L c.xbar = 7.55, and eight
    # floors cover nothing
    monkeypatch.setattr(EstimatorState, "decide", lambda self, j: self.floors[j] + ceiling)
    L = compute_scale_factor(1, 1)
    with pytest.raises(
        GuaranteeError, match=r"^conditional-probabilities rounding missed a guarantee$"
    ):
        derandomized_round([F(1, 8)] * 8, [[1] * 8], [1], [1] * 8, L)
