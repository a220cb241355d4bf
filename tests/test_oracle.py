import dataclasses
import gc
import json
import random
import sys
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverpack.genbench import (
    BenchRow,
    gen_multiset_multicover,
    gen_random_cpip,
    gen_set_cover,
    knapsack_gap,
)
from coverpack import kc
from coverpack.kc import kc_system
from coverpack.model import (
    ZERO,
    InstanceError,
    IntegerVector,
    SolveReport,
    ViolationReport,
    dot,
    normalize_width,
    report_dict,
)
from coverpack.oracle import (
    BruteForceResult,
    brute_force_opt,
    check_solution,
    effective_bounds,
)
from conftest import F, kc_defects, make_inst


class TestBruteForce:
    def test_gap_instance_lex_tiebreak(self):
        res = brute_force_opt(knapsack_gap(F(1, 10)))
        assert res.status == "OPTIMAL"
        assert res.cost == 1
        # (0,1) and (1,1) both cost 1; lexicographic order keeps (0,1)
        assert res.x.values == (0, 1)

    def test_zero_demand_gives_zero_vector(self):
        inst = make_inst(A=[[1, 1]], a=[0], c=[1, 1], d=[3, 3])
        res = brute_force_opt(inst)
        assert res.cost == 0
        assert res.x.values == (0, 0)

    def test_unbounded_variable_capped_by_demand(self):
        inst = make_inst(A=[["1/2", 1]], a=[1], c=[0, 1], d=[None, None])
        bounds = effective_bounds(inst)
        assert bounds == (2, 1)  # ceil(1/(1/2)), ceil(1/1)
        res = brute_force_opt(inst)
        assert res.cost == 0
        assert res.x.values == (2, 0)

    def test_budget_refusal_reports_space(self):
        inst = make_inst(A=[[1] * 4], a=[3], c=[1] * 4, d=[9] * 4)
        res = brute_force_opt(inst, max_points=100)
        assert res.status == "BUDGET_EXCEEDED"
        assert res.space_size == 10**4

    def test_infeasible_detected(self):
        inst = make_inst(
            A=[[1, 1]], a=[5], c=[1, 1], d=[1, 1], B=[[1, 1]], b=[1]
        )
        assert brute_force_opt(inst).status == "INFEASIBLE"

    def test_lower_bounds_every_feasible_solver_output(self):
        # without packing rows the strict output is fully feasible, so the
        # enumerated optimum is a true floor on its cost
        from coverpack.kc import solve_cip_strict

        for seed in range(15):
            inst = normalize_width(gen_random_cpip(2, 4, 0, seed=800 + seed, d_max=3))
            xhat, report = solve_cip_strict(inst, 1)
            oracle = brute_force_opt(inst)
            assert oracle.status == "OPTIMAL"
            assert report.cost >= oracle.cost


    def test_deep_box_with_two_points(self):
        # 1,200 variables, all but one capped at 0: the enumeration's depth
        # follows the variables it can raise, not n
        n = 1200
        inst = make_inst(A=[[1] + [0] * (n - 1)], a=[1], c=[1] * n, d=[1] + [0] * (n - 1))
        res = brute_force_opt(inst)
        assert (res.status, res.cost, res.space_size) == ("OPTIMAL", 1, 2)
        assert res.x.values == (1,) + (0,) * (n - 1)

    def test_box_deeper_than_the_recursion_limit_is_over_budget(self):
        # 1,100 variables that can each be raised: a point budget of 2^1100
        # admits the box, but one recursion level per variable does not fit
        n = 1100
        inst = make_inst(A=[[1] * n], a=[1], c=[1] * n, d=[1] * n)
        res = brute_force_opt(inst, max_points=2**n)
        assert (res.status, res.x, res.cost) == ("BUDGET_EXCEEDED", None, None)
        assert (res.space_size, res.bounds) == (2**n, (1,) * n)

    def test_depth_refusal_never_raises_recursion_error(self):
        # around the deepest box the stack holds, each call enumerates or
        # refuses, and past some limit every call enumerates; the one
        # covering point is all ones, one recursion level per variable
        n = 300
        inst = make_inst(A=[[1] * n], a=[n], c=[1] * n, d=[1] * n)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        old = sys.getrecursionlimit()
        statuses = []
        try:
            for limit in range(depth + n, depth + n + 80):
                sys.setrecursionlimit(limit)
                statuses.append(brute_force_opt(inst, max_points=2**n).status)
        finally:
            sys.setrecursionlimit(old)
        k = statuses.index("OPTIMAL")
        assert statuses == ["BUDGET_EXCEEDED"] * k + ["OPTIMAL"] * (len(statuses) - k)
        assert k > 0

    def test_search_leaves_no_reference_cycle(self):
        # the recursive search holds itself in its closure: unless the call
        # frees it, each call keeps its lists alive until a collection
        insts = [gen_random_cpip(6, 7, 2, seed) for seed in range(10)]
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for inst in insts:
                assert brute_force_opt(inst).status in ("OPTIMAL", "INFEASIBLE")
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()


class TestCheckSolution:
    def test_feasible_strict_solution_clean(self):
        inst = knapsack_gap(F(1, 10))
        report = check_solution(inst, IntegerVector((1, 1)), F(1))
        assert report.ok_strict and report.ok_bicriteria

    def test_wrong_length_rejected(self):
        inst = make_inst(A=[[1, 1]], a=[1], c=[1, 1], d=[None, None])
        for x in ([1], [1, 0, 0]):
            with pytest.raises(InstanceError, match="expected 2"):
                check_solution(inst, x, 1)
        assert check_solution(inst, [1, 0], 1).ok_strict

    def test_negative_coordinate_rejected(self):
        # covered and within d, yet no solution: x >= 0 is part of the program
        inst = make_inst(A=[[1, 1]], a=[1], c=[1, 1], d=[2, 2])
        with pytest.raises(InstanceError, match=r"x\[0\] = -1 is negative"):
            check_solution(inst, [-1, 2], 1)

    def test_relaxed_multiplicity_violation_names_variable(self):
        inst = make_inst(A=[[1, 1]], a=[1], c=[1, 1], d=[1, 1])
        # ceil((1+1) * 1) = 2, so 3 exceeds the relaxed cap by 1
        report = check_solution(inst, IntegerVector((3, 0)), F(1))
        assert report.multiplicity_relaxed == ((0, F(1)),)
        assert report.multiplicity_strict == ((0, F(2)),)

    def test_mutations_always_detected(self):
        # checker completeness: perturb a known-feasible solution in every
        # family direction and demand a named violation
        rng = random.Random(13)
        for seed in range(10):
            inst = normalize_width(gen_random_cpip(2, 3, 1, seed=900 + seed, d_max=3))
            res = brute_force_opt(inst)
            if res.status != "OPTIMAL":
                continue
            base = list(res.x.values)
            eps = F(1, 2)
            clean = check_solution(inst, IntegerVector(tuple(base)), eps)
            assert clean.ok_strict
            # drop coverage below a tight row
            i = rng.randrange(inst.m)
            j = max(range(inst.n), key=lambda k: inst.A[i][k])
            need = dot(inst.A[i], base) - inst.a[i]
            drop = int(need / inst.A[i][j]) + 1
            lowered = base.copy()
            lowered[j] = max(0, lowered[j] - drop)
            if dot(inst.A[i], lowered) < inst.a[i]:
                assert check_solution(inst, IntegerVector(tuple(lowered)), eps).covering
            # exceed a multiplicity bound
            bumped = base.copy()
            j = rng.randrange(inst.n)
            bumped[j] = int((1 + eps) * inst.d[j]) + 2
            report = check_solution(inst, IntegerVector(tuple(bumped)), eps)
            assert any(v[0] == j for v in report.multiplicity_relaxed)


def reference_check(inst, x, eps) -> ViolationReport:
    """check_solution's report computed directly in Fraction arithmetic."""
    xv = [F(v) for v in x]
    beta = inst.beta()
    cover = [(i, inst.a[i] - dot(inst.A[i], xv)) for i in range(inst.m)]
    pack = [(i, dot(inst.B[i], xv) - (1 + eps) * inst.b[i] - beta[i]) for i in range(inst.r)]
    strict = [(j, xv[j] - dj) for j, dj in enumerate(inst.d) if dj is not None]
    relaxed = [(j, xv[j] - ceil((1 + eps) * dj)) for j, dj in enumerate(inst.d) if dj is not None]
    return ViolationReport(
        *(tuple((i, v) for i, v in pairs if v > 0) for pairs in (cover, pack, strict, relaxed))
    )


@st.composite
def checked_candidates(draw):
    """An instance with fractional data, a candidate x and an epsilon."""
    n, m, r = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(0, 3))
    number = st.fractions(min_value=0, max_value=6, max_denominator=7)
    rows = lambda k: [[draw(number) for _ in range(n)] for _ in range(k)]  # noqa: E731
    inst = make_inst(
        A=rows(m),
        a=[draw(st.fractions(min_value=0, max_value=12, max_denominator=5)) for _ in range(m)],
        c=[draw(number) for _ in range(n)],
        d=[draw(st.one_of(st.none(), number)) for _ in range(n)],
        B=rows(r),
        b=[draw(st.fractions(min_value=0, max_value=4, max_denominator=3)) for _ in range(r)],
    )
    integral = st.integers(0, 5)
    fractional = st.fractions(min_value=0, max_value=5, max_denominator=9)
    x = draw(st.lists(st.one_of(integral, fractional), min_size=n, max_size=n))
    eps = draw(st.sampled_from([F(1, 1000), F(1, 4), F(2, 3), F(1)]))
    return inst, x, eps


class TestCheckSolutionParity:
    @settings(max_examples=100, deadline=None)
    @given(checked_candidates())
    def test_equals_fraction_reference(self, case):
        inst, x, eps = case
        want = reference_check(inst, x, eps)
        assert check_solution(inst, x, eps) == want
        if all(type(v) is int for v in x):  # an IntegerVector is read as its ints
            assert check_solution(inst, IntegerVector(x), eps) == want

    def test_violated_rows_of_every_family_reported_exactly(self):
        inst = make_inst(
            A=[["1/3", "1/2"], [1, 0]], a=["7/6", 2], c=[1, 1], d=[1, "3/2"],
            B=[["2/5", 1]], b=["1/2"],
        )
        # x = (1, 1/2): the rows are short by 7/6 - 7/12 and 2 - 1, and that is all
        report = check_solution(inst, [1, F(1, 2)], F(1, 4))
        assert report.covering == ((0, F(7, 12)), (1, F(1)))
        assert report.ok_bicriteria is False and report.packing_relaxed == ()
        assert report == reference_check(inst, [1, F(1, 2)], F(1, 4))
        # x = (5, 1/2): covered; B x = 5/2 exceeds (1 + 1/4)(1/2) + 7/5 = 81/40 by
        # 19/40, and x_0 exceeds d_0 = 1 by 4 and ceil(5/4) = 2 by 3
        report = check_solution(inst, [5, F(1, 2)], F(1, 4))
        assert report.covering == ()
        assert report.packing_relaxed == ((0, F(19, 40)),)
        assert report.multiplicity_strict == ((0, F(4)),)
        assert report.multiplicity_relaxed == ((0, F(3)),)
        assert report == reference_check(inst, [5, F(1, 2)], F(1, 4))
        # x = (2, 2) as an IntegerVector: x_0 is d_0 + 1 = ceil(5/4), so only
        # the strict bound fails; x_1 = 2 is ceil((5/4)(3/2)) and above d_1
        report = check_solution(inst, IntegerVector((2, 2)), F(1, 4))
        assert report.multiplicity_strict == ((0, F(1)), (1, F(1, 2)))
        assert report.multiplicity_relaxed == ()
        assert report == reference_check(inst, [2, 2], F(1, 4))

    def test_shortfall_of_the_least_unit_is_reported(self):
        # the row is (2, 3 | 6) over D = 6: x = (1, 1) falls short by 1/6, one
        # unit of the integer tally, and x = (0, 2) meets the row exactly
        inst = make_inst(A=[["1/3", "1/2"]], a=[1], c=[1, 1], d=[None, None])
        assert check_solution(inst, [1, 1], 1).covering == ((0, F(1, 6)),)
        assert check_solution(inst, [0, 2], 1).covering == ()
        # over Dx = 2 the unit is 1/12: A x = 11/12 at x = (1/2, 3/2)
        assert check_solution(inst, [F(1, 2), F(3, 2)], 1).covering == ((0, F(1, 12)),)


def reference_brute_force(inst, max_points):
    """brute_force_opt as a Fraction enumeration over every variable, with no coverage
    prune, value skip or cost bound."""
    u = effective_bounds(inst)
    space = 1
    for cap in u:
        space *= cap + 1
    if space > max_points:
        return BruteForceResult("BUDGET_EXCEEDED", None, None, space, u)
    n, m, r = inst.n, inst.m, inst.r
    best_cost = best_x = None
    x = [0] * n
    cover = [ZERO] * m
    pack = [ZERO] * r

    def descend(j, cost):
        nonlocal best_cost, best_x
        if best_cost is not None and cost >= best_cost:
            return
        if j == n:
            if all(cover[i] >= inst.a[i] for i in range(m)):
                best_cost, best_x = cost, tuple(x)
            return
        acol = [inst.A[i][j] for i in range(m)]
        bcol = [inst.B[i][j] for i in range(r)]
        for v in range(u[j] + 1):
            if v > 0:
                x[j] = v
                for i in range(m):
                    cover[i] += acol[i]
                for i in range(r):
                    pack[i] += bcol[i]
            if any(pack[i] > inst.b[i] for i in range(r)):
                break
            if best_cost is not None and cost + inst.c[j] * v >= best_cost:
                break
            descend(j + 1, cost + inst.c[j] * v)
        for i in range(m):
            cover[i] -= acol[i] * x[j]
        for i in range(r):
            pack[i] -= bcol[i] * x[j]
        x[j] = 0

    descend(0, ZERO)
    if best_x is None:
        return BruteForceResult("INFEASIBLE", None, None, space, u)
    return BruteForceResult("OPTIMAL", IntegerVector(best_x), best_cost, space, u)


NUMBER = st.fractions(min_value=0, max_value=4, max_denominator=6)


@st.composite
def oracle_instances(draw):
    """Fractional data with packing rows, zero and fractional caps, unbounded variables."""
    n, m, r = draw(st.integers(1, 5)), draw(st.integers(0, 3)), draw(st.integers(0, 2))
    entry = st.one_of(st.just(F(0)), NUMBER)
    return make_inst(
        A=[[draw(entry) for _ in range(n)] for _ in range(m)],
        a=[draw(st.fractions(min_value=0, max_value=6, max_denominator=4)) for _ in range(m)],
        c=[draw(NUMBER) for _ in range(n)],
        d=[draw(st.one_of(st.none(), st.fractions(0, 3, max_denominator=3))) for _ in range(n)],
        B=[[draw(entry) for _ in range(n)] for _ in range(r)],
        b=[draw(st.fractions(min_value=0, max_value=5, max_denominator=3)) for _ in range(r)],
    )


#: the most points a box of ``desk_instances`` holds, so the Fraction reference stays quick
DESK_POINTS = 8_000


@st.composite
def desk_instances(draw):
    """Desk-oracle sizes: up to 8 variables, 7 covering and 2 packing rows, caps up to 4.

    Deep enough that the search often reaches its last variable with an
    incumbent in hand.  The caps are drawn under a box of at most
    ``DESK_POINTS`` points, then shuffled.  Each demand and capacity is a
    share of what its row reaches at the caps, so rows bind, and small
    integer data make ties in cost common.
    """
    n, m, r = draw(st.integers(1, 8)), draw(st.integers(1, 7)), draw(st.integers(0, 2))
    caps, points = [], 1
    for _ in range(n):
        cap = draw(st.integers(0, min(4, DESK_POINTS // points - 1)))
        caps.append(cap)
        points *= cap + 1
    caps = draw(st.permutations(caps))
    number = st.one_of(st.integers(0, 3).map(F), NUMBER)
    share = st.fractions(min_value=0, max_value=1, max_denominator=4)
    A = [[draw(number) for _ in range(n)] for _ in range(m)]
    B = [[draw(number) for _ in range(n)] for _ in range(r)]
    return make_inst(
        A=A,
        a=[draw(share) * sum(v * u for v, u in zip(row, caps)) for row in A],
        c=[draw(number) for _ in range(n)],
        d=caps,
        B=B,
        b=[draw(share) * sum(v * u for v, u in zip(row, caps)) for row in B],
    )


class TestOracleParity:
    """The integer enumeration against the Fraction enumeration it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(oracle_instances(), st.sampled_from([1, 30, 400, 3000]))
    def test_brute_force_equals_fraction_reference(self, inst, max_points):
        assert brute_force_opt(inst, max_points=max_points) == reference_brute_force(
            inst, max_points
        )

    def test_statuses_all_reached(self):
        # the strategy above draws every status; pinned on fixed instances
        cases = {
            "OPTIMAL": (make_inst(A=[["1/3", "1/2"]], a=["5/6"], c=["1/2", "1/3"],
                                  d=[None, 2], B=[["2/5", 1]], b=["7/5"]), 100),
            "INFEASIBLE": (make_inst(A=[[1, 1]], a=[3], c=[1, 1], d=[1, None],
                                     B=[[0, "1/2"]], b=["1/2"]), 100),
            "BUDGET_EXCEEDED": (make_inst(A=[["1/4", 1]], a=[2], c=[1, 1],
                                          d=[None, None]), 10),
        }
        for status, (inst, max_points) in cases.items():
            res = brute_force_opt(inst, max_points=max_points)
            assert res.status == status
            assert res == reference_brute_force(inst, max_points)

    # The first hypothesis draw stays at n <= 5 and m <= 3, where the cost
    # bound and the value skip rarely fire; these are the desk-oracle sizes.
    DESK = {
        "random-cpip 7x8": (lambda s: gen_random_cpip(7, 8, 2, s), range(3)),
        "set-cover 8x12": (lambda s: gen_set_cover(8, 12, 0.4, s), range(12)),
        "multiset-multicover 6x8": (
            lambda s: gen_multiset_multicover(6, 8, s, d_max=2, r=1), range(8)
        ),
    }

    @pytest.mark.parametrize("family", DESK)
    def test_desk_sizes_equal_fraction_reference(self, family):
        gen, seeds = self.DESK[family]
        for seed in seeds:
            raw = gen(seed)
            for inst in (raw, normalize_width(raw)):
                assert brute_force_opt(inst) == reference_brute_force(inst, 2_000_000)

    def test_knapsack_gap_equals_fraction_reference(self):
        for delta in (F(1, 2), F(1, 10), F(1, 100), F(1, 1000)):
            inst = knapsack_gap(delta)
            assert brute_force_opt(inst) == reference_brute_force(inst, 2_000_000)

    EDGES = {
        # (0, 0, 1, 1) at cost 5 comes first; after x0 = 1 the least cost per
        # unit of the row is x2's 0, not x3's 5, so a deficit of 1 must not
        # prune (1, 0, 1, 0)
        "zero-cost column": (
            make_inst(A=[[1, 1, 1, 1]], a=[2], c=[1, 5, 0, 5], d=[1, 2, 1, 2]),
            (1, 0, 1, 0),
            1,
        ),
        # only x0 covers row 0, so the later levels hold (0, 1) for it; with
        # (1, 0, 1) at cost 6 found first, (1, 1, 0) must still be reached
        "row no later variable covers": (
            make_inst(A=[[1, 0, 0], [0, 1, 1]], a=[1, 1], c=[1, 1, 5], d=[1, 1, 1]),
            (1, 1, 0),
            2,
        ),
        # x0 + x1 <= 1 binds: the cheap columns cannot fill the row alone, and
        # the bound, which ignores packing, only underestimates
        "binding packing row": (
            make_inst(A=[[1, 1, 1]], a=[2], c=[1, 1, 3], d=[2, 2, 2], B=[[1, 1, 0]], b=[1]),
            (0, 1, 1),
            4,
        ),
        # (0, 2), (1, 1) and (2, 0) all cost 2: the first in lexicographic
        # order stays, and the bound drops the others on the tie
        "tie of two optima": (
            make_inst(A=[[1, 1]], a=[2], c=[1, 1], d=[2, 2]), (0, 2), 2
        ),
        # The cases below reach the last variable, which is decided in closed
        # form at its least covering value; x = None is INFEASIBLE.
        # x2 costs nothing, so (0, 0, 2), (0, 0, 3) and (1, 0, 1) all cost 0:
        # the first found, at x2's least covering value, stays
        "zero-cost last variable": (
            make_inst(A=[[1, 1, 1]], a=[2], c=[0, 1, 0], d=[1, 1, 3]),
            (0, 0, 2),
            0,
        ),
        # (0, 2) costs 4 first; at x0 = 1 the bound, 3, lets the last level
        # through, and its least value 2 ties at 4: (1, 2) must not replace it
        "tie reached at the last level": (
            make_inst(A=[[1, 2]], a=[4], c=[0, 2], d=[1, 2]), (0, 2), 4
        ),
        # at x0 = 0 the last variable's least covering value 2 packs past
        # x1 <= 1, and larger values pack more; the dearer x0 = 1 fits
        "last value the packing row refuses": (
            make_inst(A=[[1, 1]], a=[2], c=[3, 1], d=[2, 2], B=[[0, 1]], b=[1]),
            (1, 1),
            4,
        ),
        # only x1 can be raised: its least covering value 2 fills the packing
        # row exactly, and 3 would not fit
        "one free variable": (
            make_inst(A=[[1, 2, 1]], a=[3], c=[1, 1, 1], d=[0, 3, 0], B=[[1, 1, 1]], b=[2]),
            (0, 2, 0),
            2,
        ),
        # no variable can be raised: the box is the one point x = 0
        "every cap 0, no demand": (
            make_inst(A=[[1, 1]], a=[0], c=[1, 1], d=[0, 0], B=[[1, 1]], b=[1]),
            (0, 0),
            0,
        ),
        "every cap 0, a positive demand": (
            make_inst(A=[[1, 1], [1, 0]], a=[0, 1], c=[1, 1], d=[0, 0]), None, None
        ),
    }

    @pytest.mark.parametrize("case", EDGES)
    def test_edge_cases_the_bound_must_not_prune(self, case):
        inst, x, cost = self.EDGES[case]
        res = brute_force_opt(inst)
        status = "INFEASIBLE" if x is None else "OPTIMAL"
        got = None if res.x is None else res.x.values
        assert (res.status, got, res.cost) == (status, x, cost)
        assert res == reference_brute_force(inst, 2_000_000)

    @settings(max_examples=100, deadline=None)
    @given(desk_instances())
    def test_desk_draw_equals_fraction_reference(self, inst):
        assert brute_force_opt(inst) == reference_brute_force(inst, DESK_POINTS)


class TestKcValidity:
    """The knapsack-cover audit of ``conftest.kc_defects``, on the oracle."""

    def test_gap_instance_all_pin_sets_valid(self):
        assert kc_defects(knapsack_gap(F(1, 10))) == []

    def test_empty_pin_set_matches_original_rows(self):
        inst = make_inst(A=[[1, 1]], a=[1], c=[1, 1], d=[1, 1])
        system = kc_system(inst, frozenset())
        assert system.rows == inst.int_rows[: inst.m]
        assert kc_defects(inst) == []

    def test_box_of_two_points_with_zero_caps_fits_the_budget(self):
        # 30 variables, 29 capped at 0: 2 pin sets over a box of 2 points,
        # not 2^30 pin sets
        n = 30
        inst = make_inst(A=[[1] + [0] * (n - 1)], a=[1], c=[1] * n, d=[1] + [0] * (n - 1))
        assert kc_defects(inst) == []

    def test_budget_refusal(self):
        # a box of 3^14 points is over the oracle's budget: the audit fails
        # rather than pass on rows it could not check
        inst = make_inst(A=[[1] * 14], a=[3], c=[1] * 14, d=[2] * 14)
        with pytest.raises(pytest.fail.Exception, match="refused a box of 4782969 points"):
            kc_defects(inst)

    def test_skipping_truncation_is_flagged(self, monkeypatch):
        # corrupted systems: the instance's own coefficients, zero on F, over
        # the residual demand; the audit must name the offending entry
        inst = knapsack_gap(F(1, 4))

        def untruncated(inst, pins):
            system = kc_system(inst, pins)
            raw = tuple(
                ((*(0 if j in pins else S[j] for j in range(inst.n)), R[-1]), D)
                for (S, D), (R, _) in zip(inst.int_rows, system.rows)
            )
            return dataclasses.replace(system, rows=raw)

        assert untruncated(inst, {0}).rows == (((0, 4, 1), 4),)
        monkeypatch.setattr(kc, "kc_system", untruncated)
        assert kc_defects(inst) == [("truncation", frozenset({0}), 0, 1)]

    def test_inflated_residual_is_caught_by_feasible_point(self, monkeypatch):
        # corrupted residual demands, each raised by 1, that is by D over D:
        # the feasible point (0, 1) falls short of the inflated row of each pin set
        inst = knapsack_gap(F(1, 4))

        def inflated(inst, pins):
            system = kc_system(inst, pins)
            rows = tuple(((*S[:-1], S[-1] + D), D) for S, D in system.rows)
            return dataclasses.replace(system, rows=rows)

        monkeypatch.setattr(kc, "kc_system", inflated)
        assert kc_defects(inst) == [
            ("cut-off", frozenset(), 0, (0, 1)), ("cut-off", frozenset({0}), 0, (0, 1))
        ]

    def test_random_small_instances_valid(self):
        for seed in range(15):
            inst = normalize_width(gen_random_cpip(2, 3, 0, seed=40 + seed, d_max=2))
            assert kc_defects(inst) == []


def test_report_serializes_rationals():
    report = SolveReport(mode="lp", cost=F(1, 3), fopt=F(2), elapsed_s=0.25)
    d = report_dict(report)
    assert d["cost"] == "1/3"
    assert d["fopt"] == 2
    assert "opt" not in d
    # a nested violation report, nested tuples and L: the dicts, key order
    # included, that each report type wrote with its own rule before
    violations = ViolationReport(
        covering=((0, F(1, 2)),),
        packing_relaxed=(),
        multiplicity_strict=((1, F(2)),),
        multiplicity_relaxed=((1, F(3, 4)),),
    )
    report = SolveReport(
        mode="strict", cost=F(7, 2), L=F(5, 4), K=3, x=(1, 0, 2), violations=violations,
        pin_sets_seen=((0, 2), (1,)), guarantees_ok=False, ratio_cost_fopt=1.75,
    )
    row = BenchRow(
        instance_id="set_cover-0", family="SET_COVER", m=3, n=4, r=1, epsilon=F(1, 4),
        fopt=F(5, 3), L=F(9, 2), K=2, strict_cost=F(3),
    )
    # json.dumps keeps key order, so each comparison pins the bytes written
    assert json.dumps(report_dict(report)) == json.dumps({
        "mode": "strict", "cost": "7/2", "ratio_cost_fopt": 1.75, "K": 3, "L": 1.25,
        "x": [1, 0, 2],
        "violations": {
            "covering": [[0, "1/2"]], "packing_relaxed": [],
            "multiplicity_strict": [[1, 2]], "multiplicity_relaxed": [[1, "3/4"]],
        },
        "guarantees_ok": False, "pin_sets_seen": [[0, 2], [1]], "status": "OPTIMAL",
    })
    assert json.dumps(report_dict(row)) == json.dumps({
        "instance_id": "set_cover-0", "family": "SET_COVER", "m": 3, "n": 4, "r": 1,
        "epsilon": "1/4", "fopt": "5/3", "strict_cost": 3, "K": 2, "L": 4.5,
    })
