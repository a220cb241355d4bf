import random
from dataclasses import fields, replace
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverpack import kc, rounding, simplex
from coverpack.genbench import gen_multiset_multicover, gen_random_cpip, gen_set_cover
from coverpack.model import (
    ZERO,
    FractionalVector,
    InstanceError,
    LimitError,
    dot,
    integers,
    normalize_width,
    parse_instance,
)
from coverpack.kc import solve_lp_kc
from coverpack.simplex import (
    GE,
    LE,
    CertificateViolation,
    LpProblem,
    LpRow,
    LpSolution,
    _eliminate,
    _Tableau,
    lp_from_instance,
    solve_lp,
    verify_certificate,
)
from conftest import F, lp_rows, vertex_enum_optimum


GAP_DOC = '{"A": [[0.9, 1]], "a": [1], "c": [0, 1], "d": [1, null]}'
#: a ``GUIDED_MIN_CELLS`` no LP reaches: the tests that probe the exact
#: tableau's pivots keep every LP on it
ALL_COLD = 10**18
#: the exact run's pivots and flips at cpip-20x30 seed 1, and its pivots at set cover 20x30 seed 1
PIVOTS_20X30, FLIPS_20X30, PIVOTS_SET_COVER = 15, 25, 17


def test_gap_instance_relaxation():
    p = lp_from_instance(parse_instance(GAP_DOC))
    s = solve_lp(p)
    assert s.status == "OPTIMAL"
    assert s.objective_value == F(1, 10)
    assert s.primal.values == (F(1), F(1, 10))
    assert verify_certificate(p, s) == []


def test_contradictory_bounds_infeasible_with_ray():
    p = LpProblem.from_data([0], [((1,), GE, 1)], [F(1, 2)])
    s = solve_lp(p)
    assert s.status == "INFEASIBLE"
    # Farkas: combining rows by the ray proves 0 >= positive demand.
    coeffs, _, _ = lp_rows(p)[0]
    combo = s.ray_rows[0] * coeffs[0] + s.ray_bounds[0]
    assert combo <= 0
    rhs_combo = s.ray_rows[0] * p.rows[0].rhs + s.ray_bounds[0] * p.var_bounds[0]
    assert rhs_combo > 0
    assert s.ray_rows[0] >= 0  # >= row
    assert s.ray_bounds[0] <= 0  # upper bound


def test_matches_vertex_enumeration_oracle():
    # 200 random instances, sized so exhaustive vertex enumeration stays honest
    rng = random.Random(2024)
    for trial in range(200):
        n = 4 if trial % 10 == 0 else rng.randint(1, 3)
        m = rng.randint(1, 5)
        r = rng.randint(0, 2)
        inst = gen_random_cpip(m, n, r, seed=trial, d_max=3)
        p = lp_from_instance(inst)
        s = solve_lp(p)
        assert s.status == "OPTIMAL"
        assert verify_certificate(p, s) == []
        assert s.objective_value == vertex_enum_optimum(p)


def _scipy_linprog(p):
    """scipy HiGHS on the same problem, with every row as A_ub x <= b_ub.

    Presolve is off.  HiGHS may then leave an LP at status 4 ("model_status
    is Unknown"); the same rows with a zero objective decide it (status 2
    if infeasible).  With c >= 0 no LP is unbounded.
    """
    scipy_opt = pytest.importorskip("scipy.optimize")
    A_ub, b_ub = [], []
    for coeffs, sense, rhs in lp_rows(p):
        sign = -1 if sense == GE else 1
        A_ub.append([sign * float(v) for v in coeffs])
        b_ub.append(sign * float(rhs))
    bounds = [(0, None if u is None else float(u)) for u in p.var_bounds]
    c = [float(v) for v in p.objective]

    def linprog(c, A_ub, b_ub, bounds):
        return scipy_opt.linprog(
            c,
            A_ub=A_ub or None,
            b_ub=b_ub or None,
            bounds=bounds,
            method="highs",
            options={"presolve": False},
        )

    res = linprog(c, A_ub, b_ub, bounds)
    if res.status == 4 and linprog([0.0] * len(c), A_ub, b_ub, bounds).status == 2:
        res.status = 2
    return res


def _scale_instances():
    # the sizes of the strict pipeline's hardest LPs, three seeds each
    for seed in range(3):
        yield gen_random_cpip(30, 50, 3, seed=seed)
        yield gen_random_cpip(40, 60, 3, seed=seed)
        yield gen_set_cover(50, 100, 0.1, seed=seed)


def test_matches_scipy_at_scale():
    pytest.importorskip("scipy.optimize")
    for inst in _scale_instances():
        p = lp_from_instance(inst)
        s = solve_lp(p)
        assert s.status == "OPTIMAL"
        assert verify_certificate(p, s) == []
        res = _scipy_linprog(p)
        assert res.status == 0
        mine = float(s.objective_value)
        assert abs(mine - res.fun) <= 1e-9 * abs(mine)


def _farkas_certifies(p, s):
    """The ray combines rows and bounds into 'nonpositive . x >= positive'."""
    for y, row in zip(s.ray_rows, p.rows):
        if (row.sense == GE and y < 0) or (row.sense == LE and y > 0):
            return False
    if any(yb > 0 for yb in s.ray_bounds):
        return False
    rows = lp_rows(p)
    for j in range(len(p.objective)):
        combo = sum((y * coeffs[j] for y, (coeffs, _, _) in zip(s.ray_rows, rows)), F(0))
        if combo + s.ray_bounds[j] > 0:
            return False
    rhs = sum((y * row.rhs for y, row in zip(s.ray_rows, p.rows)), F(0))
    rhs += sum(
        (yb * u for yb, u in zip(s.ray_bounds, p.var_bounds) if u is not None), F(0)
    )
    return rhs > 0


def test_matches_scipy_on_larger_instances():
    rng = random.Random(77)
    for trial in range(50):
        m, n, r = rng.randint(2, 10), rng.randint(2, 10), rng.randint(0, 3)
        inst = gen_random_cpip(m, n, r, seed=1000 + trial)
        p = lp_from_instance(inst)
        s = solve_lp(p)
        assert s.status == "OPTIMAL"
        res = _scipy_linprog(p)
        assert res.status == 0
        mine = float(s.objective_value)
        assert abs(mine - res.fun) <= 1e-6 * (1 + abs(mine))


_rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def general_lps(draw):
    """Small LPs with rational data, negative rhs, mixed senses and free bounds.

    Costs are nonnegative, the only LPs ``solve_lp`` accepts.
    """
    n = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.tuples(
                st.lists(_rationals, min_size=n, max_size=n),
                st.sampled_from([GE, LE]),
                _rationals,
            ),
            min_size=1,
            max_size=5,
        )
    )
    bounds = draw(
        st.lists(
            st.one_of(st.none(), st.builds(F, st.integers(0, 6), st.integers(1, 3))),
            min_size=n,
            max_size=n,
        )
    )
    objective = draw(
        st.lists(st.builds(F, st.integers(0, 6), st.integers(1, 5)), min_size=n, max_size=n)
    )
    return LpProblem.from_data(objective, rows, bounds)


@settings(max_examples=150, deadline=None)
@given(general_lps())
def test_status_and_certificates_match_scipy(p):
    s = solve_lp(p)
    res = _scipy_linprog(p)
    assert s.status == {0: "OPTIMAL", 2: "INFEASIBLE"}[res.status]
    if s.status == "OPTIMAL":
        assert verify_certificate(p, s) == []
        mine = float(s.objective_value)
        assert abs(mine - res.fun) <= 1e-6 * (1 + abs(mine))
    elif s.status == "INFEASIBLE":
        assert _farkas_certifies(p, s)
        assert verify_certificate(p, s) == []


def _explicit_bounds(p):
    """The same LP with each finite bound as a trailing ``<=`` row ``e_j <= u_j``."""
    n = len(p.objective)
    bounded = [j for j, u in enumerate(p.var_bounds) if u is not None]
    rows = lp_rows(p) + [
        (tuple(F(int(k == j)) for k in range(n)), LE, p.var_bounds[j]) for j in bounded
    ]
    return LpProblem.from_data(p.objective, rows, [None] * n), bounded


def _nondegenerate(p, s):
    """Whether the optimum ``s`` is primal and whether it is dual nondegenerate.

    Primal: ``m`` of its values are off their bounds, a row's slack among
    them.  Dual: ``n`` of its row duals and reduced costs are nonzero.  A
    primal nondegenerate optimum has one dual vector, unless a bound of 0
    leaves its dual free below, and a dual nondegenerate one is the only
    optimal point (Chvatal, *Linear Programming*, 1983).
    """
    rows = lp_rows(p)
    x, n = s.primal, len(p.objective)
    off = sum(0 < v and (u is None or v < u) for v, u in zip(x, p.var_bounds))
    off += sum(dot(a, x) != rhs for a, _, rhs in rows)
    reduced = [
        p.objective[j] - sum(y * a[j] for y, (a, _, _) in zip(s.dual_rows, rows)) for j in range(n)
    ]
    return off == len(rows), sum(map(bool, (*reduced, *s.dual_rows))) == n


def _assert_bound_rows_parity(p):
    # the tableau keeps each bound implicit and flips it; written out as a
    # row, the same bound must give the same status and value, each
    # certified, and the same point and duals wherever the optimum has only
    # one (the pivots differ: a bound row has no bound to flip)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "GUIDED_MIN_CELLS", ALL_COLD)
        s = solve_lp(p)
        q, bounded = _explicit_bounds(p)
        t = solve_lp(q)
    assert s.status == t.status
    assert verify_certificate(p, s) == [] and verify_certificate(q, t) == []
    if s.status == "OPTIMAL":
        assert s.objective_value == t.objective_value
        assert not any(t.dual_bounds)
        one_dual, one_point = _nondegenerate(p, s)
        if one_point:
            assert s.primal == t.primal
        if one_dual and ZERO not in p.var_bounds:  # a bound of 0 leaves its dual free below
            assert t.dual_rows == s.dual_rows + tuple(s.dual_bounds[j] for j in bounded)
    else:
        assert not any(t.ray_bounds)


@st.composite
def cpip_lps(draw):
    m, n, r = draw(st.integers(1, 8)), draw(st.integers(1, 10)), draw(st.integers(0, 3))
    return lp_from_instance(gen_random_cpip(m, n, r, seed=draw(st.integers(0, 10**6))))


@settings(max_examples=100, deadline=None)
@given(st.one_of(cpip_lps(), general_lps()))
def test_bound_rows_match_explicit_rows(p):
    _assert_bound_rows_parity(p)


def _degenerate_cut_round():
    # a cut round of a desk-oracle random-cpip 6x7, rows permuted, whose
    # ratio tests tie and whose pivots are degenerate
    rows = [
        ((0, 0, 0, 0, 4, 4, 0), GE, F(48, 5)),
        ((2, 2, 2, 3, 0, 0, 4), GE, F(127, 10)),
        ((0, 4, 1, 0, 3, 0, 5), GE, F(38, 5)),
        ((0, 2, 0, 2, 0, 0, 0), GE, F(22, 5)),
        ((0, 3, 0, 3, 0, 4, 5), GE, F(387, 20)),
        ((1, 2, 0, 0, 2, 0, 0), LE, F(11, 2)),
        ((0, 0, 1, 0, 0, 0, 2), LE, F(11, 2)),
        ((0, 0, 0, F(2, 5), 0, 0, 0), GE, F(2, 5)),
    ]
    return LpProblem.from_data([4, 3, 10, 8, 9, 9, 10], rows, [2, 2, 2, 3, 2, 4, 4])


def test_bound_rows_match_explicit_rows_on_fixed_cases():
    for inst in _scale_instances():
        _assert_bound_rows_parity(lp_from_instance(inst))
    _assert_bound_rows_parity(_degenerate_cut_round())
    _assert_bound_rows_parity(LpProblem.from_data([0], [((1,), GE, 1)], [F(1, 2)]))


def _beale_dual():
    # The LP dual of Beale's example, min h.w s.t. G^T w >= -c, w >= 0 for
    # Beale's min c.x s.t. G x <= h
    return LpProblem.from_data(
        [0, 0, 1],
        [
            ((F(1, 4), F(1, 2), 0), GE, F(3, 4)),
            ((-8, -12, 0), GE, -20),
            ((-1, F(-1, 2), 1), GE, F(1, 2)),
            ((9, 3, 0), GE, -6),
        ],
        [None] * 3,
    )


def test_bland_rule_from_first_pivot(monkeypatch):
    # The dual of Beale's example cycles under the dual simplex's
    # most-negative-row rule alone; Bland's rule, from the first pivot or
    # after a degenerate streak, ends it at minus Beale's optimum.
    p = _beale_dual()
    monkeypatch.setattr(simplex, "GUIDED_MIN_CELLS", ALL_COLD)
    with monkeypatch.context() as mp:
        mp.setattr(simplex, "BLAND_AFTER", 10**9)
        mp.setattr(simplex, "MAX_PIVOTS", 500)
        with pytest.raises(LimitError):
            solve_lp(p)
    for bland_after in (0, 40):
        monkeypatch.setattr(simplex, "BLAND_AFTER", bland_after)
        s = solve_lp(p)
        assert s.status == "OPTIMAL"
        assert s.objective_value == F(5, 4)
        assert verify_certificate(p, s) == []
    for seed in range(5):
        p = lp_from_instance(gen_random_cpip(6, 8, 2, seed=seed))
        monkeypatch.setattr(simplex, "BLAND_AFTER", 0)
        s = solve_lp(p)
        assert verify_certificate(p, s) == []
        monkeypatch.setattr(simplex, "BLAND_AFTER", 40)
        assert s.objective_value == solve_lp(p).objective_value


@pytest.mark.parametrize(
    "shape, iterations, objective",
    [((10, 15, 2, 1), 5, F(91561, 2250)), ((20, 30, 3, 1), PIVOTS_20X30, F(985, 12))],
    ids=["cpip-10x15", "cpip-20x30"],
)
def test_pivot_path_pinned(monkeypatch, shape, iterations, objective):
    # a faster pivot must not silently change the exact tableau's vertex path
    monkeypatch.setattr(simplex, "GUIDED_MIN_CELLS", ALL_COLD)
    s = solve_lp(lp_from_instance(gen_random_cpip(*shape)))
    assert (s.status, s.iterations, s.objective_value) == ("OPTIMAL", iterations, objective)


def test_vertex_and_duals_pinned():
    # the >= rows are negated inside the tableau and the rows with negative
    # rhs start primal infeasible; the duals keep the sign convention of the
    # rows as given, nonzero on both negative-rhs rows
    p = LpProblem.from_data(
        [0, 2, 1, 2],
        [((-3, 3, -3, 2), GE, 1), ((0, 2, -2, 0), LE, -1), ((2, 1, 1, -2), GE, -2)],
        [4, None, F(3, 2), None],
    )
    s = solve_lp(p)
    assert (s.status, s.iterations, s.objective_value) == ("OPTIMAL", 3, F(3))
    assert s.primal.values == (F(0), F(0), F(1, 2), F(5, 4))
    assert s.dual_rows == (F(5, 2), F(-7, 2), F(3, 2))
    assert s.dual_bounds == (F(0), F(0), F(0), F(0))
    assert verify_certificate(p, s) == []


def test_farkas_ray_pinned():
    p = LpProblem.from_data(
        [3, 3, 2],
        [((1, 0, -1), GE, 2), ((3, -3, -3), LE, -3), ((-2, -1, 3), GE, -2)],
        [3, None, F(3, 2)],
    )
    s = solve_lp(p)
    assert (s.status, s.iterations) == ("INFEASIBLE", 2)
    assert s.ray_rows == (F(4), F(-1, 3), F(1))
    assert s.ray_bounds == (F(-1), F(0), F(0))
    assert _farkas_certifies(p, s)


def test_certificate_flags_perturbed_primal():
    p = lp_from_instance(parse_instance(GAP_DOC))
    s = solve_lp(p)
    bad = replace(
        s, primal=type(s.primal)((F(1), F(1, 10) - F(1, 1000)))
    )
    report = verify_certificate(p, bad)
    kinds = {v.kind for v in report}
    assert "primal_row" in kinds  # the tight covering row is named
    assert any(v.kind == "primal_row" and v.index == 0 for v in report)


def test_certificate_amounts_exact_over_mixed_denominators():
    # min 3 x0 + 2 x1 s.t. x0/3 + 2 x1/7 >= 5/6, x0/2 + 3 x1/5 <= 9/4, x0 <= 2,
    # x1 <= 3/2: x1 covers at 7 per unit against x0's 9, so x1 = 3/2 and
    # x0 = 3 (5/6 - 3/7) = 17/14, at cost 93/14; y = 9 on the covering row
    # and 2 - 9 (2/7) = -4/7 on x1's bound
    p = LpProblem.from_data(
        [3, 2],
        [((F(1, 3), F(2, 7)), GE, F(5, 6)), ((F(1, 2), F(3, 5)), LE, F(9, 4))],
        [2, F(3, 2)],
    )
    s = solve_lp(p)
    assert s.primal.values == (F(17, 14), F(3, 2))
    assert (s.objective_value, s.dual_rows, s.dual_bounds) == (
        F(93, 14),
        (F(9), F(0)),
        (F(0), F(-4, 7)),
    )
    assert verify_certificate(p, s) == []
    # x = (1, 3/2) covers 1/3 + 3/7 = 16/21, short of 5/6 by 1/14, and
    # costs 6, off the value 93/14 by 9/14
    bad = replace(s, primal=FractionalVector((F(1), F(3, 2))))
    assert [(v.kind, v.index, v.amount) for v in verify_certificate(p, bad)] == [
        ("primal_row", 0, F(1, 14)),
        ("duality_gap", 0, F(9, 14)),
    ]
    # y = (10, -1/4) prices x0 at 10/3 - 1/8 = 77/24, over 3 by 5/24, and
    # x1 at 20/7 - 3/20 - 4/7 = 299/140, over 2 by 19/140; its value
    # 25/3 - 9/16 - 6/7 = 2323/336 is off 93/14 by 13/48
    bad = replace(s, dual_rows=(F(10), F(-1, 4)))
    assert [(v.kind, v.index, v.amount) for v in verify_certificate(p, bad)] == [
        ("dual_feasibility", 0, F(5, 24)),
        ("dual_feasibility", 1, F(19, 140)),
        ("duality_gap", 0, F(13, 48)),
        ("duality_gap", 0, F(13, 48)),
    ]


def _optimal(x, rows, bounds):
    # min x0 + x1 s.t. x0 + x1 >= 1, certified by x = (1, 0), y = 1
    return LpSolution(
        "OPTIMAL",
        0,
        primal=FractionalVector(tuple(map(F, x))),
        objective_value=F(1),
        dual_rows=tuple(map(F, rows)),
        dual_bounds=tuple(map(F, bounds)),
    )


@pytest.mark.parametrize(
    "solution, message",
    [
        (_optimal((1,), (1,), (0, 0)), "primal has 1 entries, expected 2"),
        (_optimal((1, 0, 5), (1,), (0, 0)), "primal has 3 entries, expected 2"),
        (_optimal((1, 0), (1, 7), (0, 0)), "dual_rows has 2 entries, expected 1"),
        (_optimal((1, 0), (1,), (0, 0, -1)), "dual_bounds has 3 entries, expected 2"),
        (LpSolution("OPTIMAL", 0), "primal: expected a sequence, got NoneType"),
    ],
    ids=["primal-short", "primal-long", "dual-rows", "dual-bounds", "primal-missing"],
)
def test_certificate_vector_of_wrong_length_is_bad_input(solution, message):
    p = LpProblem.from_data([1, 1], [((1, 1), GE, 1)], [None, None])
    assert verify_certificate(p, _optimal((1, 0), (1,), (0, 0))) == []
    with pytest.raises(InstanceError, match=message):
        verify_certificate(p, solution)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("ray_rows", (F(2), F(1)), "ray_rows has 2 entries, expected 1"),
        ("ray_bounds", (), "ray_bounds has 0 entries, expected 1"),
    ],
    ids=["ray-rows", "ray-bounds"],
)
def test_ray_of_wrong_length_is_bad_input(field, value, message):
    p = LpProblem.from_data([0], [((1,), GE, 1)], [F(1, 2)])
    s = solve_lp(p)
    with pytest.raises(InstanceError, match=message):
        verify_certificate(p, replace(s, **{field: value}))


@pytest.mark.parametrize(
    "field, value, report",
    [
        ("dual_bounds", (0.0, 0), []),
        (
            "dual_bounds",
            ("1/2", 0),
            [("dual_sign_bound", 0, F(1, 2)), ("dual_feasibility", 0, F(1, 2))]
            + [("duality_gap", 0, F(1))] * 2,
        ),
        ("dual_rows", (1.0,), []),
        ("dual_rows", (0.5,), [("duality_gap", 0, F(1, 2))] * 2),
        ("objective_value", "3/2", [("duality_gap", 0, F(1, 2))]),
    ],
    ids=["float-zero-bound", "pq-bound", "float-row", "float-half-row", "pq-value"],
)
def test_certificate_entries_read_as_the_values_they_stand_for(field, value, report):
    # min x0 + x1 s.t. x0 + x1 >= 1, x0 <= 2: y = 1 certifies x = (1, 0)
    p = LpProblem.from_data([1, 1], [((1, 1), GE, 1)], [2, None])
    s = replace(solve_lp(p), **{field: value})
    assert [(v.kind, v.index, v.amount) for v in verify_certificate(p, s)] == report


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("dual_bounds", ("x", 0), r"dual_bounds\[0\]"),
        ("dual_rows", (None,), r"dual_rows\[0\]"),
        ("primal", (F(1), True), r"primal\[1\]"),  # FractionalVector refuses the bool itself
        ("objective_value", None, "objective_value: expected a number"),
    ],
    ids=["str-bound", "none-row", "bool-primal", "none-value"],
)
def test_unreadable_certificate_entry_is_bad_input(field, value, message):
    p = LpProblem.from_data([1, 1], [((1, 1), GE, 1)], [2, None])
    with pytest.raises(InstanceError, match=message):
        verify_certificate(p, replace(solve_lp(p), **{field: value}))
    s = replace(LpSolution("INFEASIBLE", 0), ray_rows=(F(1),), ray_bounds=(F(0), float("nan")))
    with pytest.raises(InstanceError, match=r"ray_bounds\[1\]"):
        verify_certificate(p, s)


def test_certificate_flags_gap():
    p = lp_from_instance(parse_instance(GAP_DOC))
    s = solve_lp(p)
    bad = replace(s, objective_value=s.objective_value + 1)
    assert any(v.kind == "duality_gap" for v in verify_certificate(p, bad))


def test_certificate_flags_feasible_point_that_is_not_optimal():
    # (0, 1) is feasible and costs 1; the reported value and duals are the optimum's
    p = lp_from_instance(parse_instance(GAP_DOC))
    s = solve_lp(p)
    bad = replace(s, primal=type(s.primal)((F(0), F(1))))
    assert [(v.kind, v.amount) for v in verify_certificate(p, bad)] == [
        ("duality_gap", F(9, 10))
    ]


def test_certificate_flags_dual_on_missing_bound():
    # min x s.t. x >= 1: y = 2 with a bound dual of -1 on the unbounded x
    # would certify x = 2 at cost 2, but the optimum is 1
    p = LpProblem.from_data([1], [((1,), GE, 1)], [None])
    forged = LpSolution(
        "OPTIMAL",
        0,
        primal=FractionalVector((F(2),)),
        objective_value=F(2),
        dual_rows=(F(2),),
        dual_bounds=(F(-1),),
    )
    assert [(v.kind, v.index) for v in verify_certificate(p, forged)] == [
        ("dual_sign_bound", 0)
    ]


def test_certificate_flags_negated_ray():
    p = LpProblem.from_data([0], [((1,), GE, 1)], [F(1, 2)])
    s = solve_lp(p)
    assert verify_certificate(p, s) == []
    bad = replace(
        s,
        ray_rows=tuple(-y for y in s.ray_rows),
        ray_bounds=tuple(-z for z in s.ray_bounds),
    )
    assert {v.kind for v in verify_certificate(p, bad)} == {
        "dual_sign_row",
        "dual_sign_bound",
        "farkas_value",
    }


def test_duality_gap_zero_exactly():
    for seed in range(10):
        inst = gen_random_cpip(4, 4, 1, seed=seed)
        p = lp_from_instance(inst)
        s = solve_lp(p)
        # the dual objective sum_i y_i rhs_i + sum_j z_j u_j, in Fractions
        value = sum(y * rhs for y, (_, _, rhs) in zip(s.dual_rows, lp_rows(p)))
        value += sum(z * u for z, u in zip(s.dual_bounds, p.var_bounds) if u is not None)
        assert s.objective_value == value


def test_deterministic():
    inst = gen_random_cpip(5, 6, 2, seed=3)
    p = lp_from_instance(inst)
    s1, s2 = solve_lp(p), solve_lp(p)
    assert s1 == s2


def test_adding_row_never_decreases_optimum():
    inst = normalize_width(gen_random_cpip(3, 4, 0, seed=9))
    p = lp_from_instance(inst)
    base = solve_lp(p).objective_value
    # demand a little more of everything
    extra = ((F(1),) * inst.n, GE, F(1))
    p2 = LpProblem.from_data(p.objective, lp_rows(p) + [extra], p.var_bounds)
    assert solve_lp(p2).objective_value >= base


def test_negative_cost_rejected():
    # min -x0 would be unbounded; the solver takes only c >= 0
    p = LpProblem.from_data([-1, 0], [((0, 1), "<=", 5)], [None, None])
    with pytest.raises(InstanceError, match=r"objective\[0\] = -1 is negative"):
        solve_lp(p)


def test_iteration_limit_raises(monkeypatch):
    inst = gen_random_cpip(6, 6, 2, seed=4)
    p = lp_from_instance(inst)
    monkeypatch.setattr(simplex, "GUIDED_MIN_CELLS", ALL_COLD)
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 1)
    with pytest.raises(LimitError):
        solve_lp(p)


def test_status_without_certificate_is_bad_input():
    p = lp_from_instance(parse_instance(GAP_DOC))
    with pytest.raises(InstanceError, match="an UNBOUNDED result carries no certificate"):
        verify_certificate(p, LpSolution("UNBOUNDED", 0))


def test_non_finite_input_rejected():
    with pytest.raises(InstanceError):
        LpProblem.from_data([float("inf")], [], [None])


@pytest.mark.parametrize(
    "row, match",
    [
        # a row is read by as_sequence as (coeffs, sense, rhs)
        (((1,), GE), "^row 0 has 2 entries, expected 3$"),
        (((1,), GE, 1, 1), "^row 0 has 4 entries, expected 3$"),
        (1, "^row 0: expected a sequence, got int$"),
        ((1, GE, 1), "row 0 coeffs: expected a sequence, got int"),
    ],
    ids=["two-items", "four-items", "not-a-sequence", "coeffs-not-iterable"],
)
def test_malformed_row_rejected(row, match):
    with pytest.raises(InstanceError, match=match):
        LpProblem.from_data([1], [row], [None])


@pytest.mark.parametrize(
    "objective, rows, bounds, match",
    [
        ([1], [((1,), "==", 1)], [None], "row 0: sense must be"),
        ([1, 1], [((1,), GE, 1)], [None, None], "row 0 coeffs has 1 entries, expected 2"),
        ([1, 1], [((1, 1), GE, 1)], [None], "var_bounds has 1 entries, expected 2"),
    ],
    ids=["bad-sense", "short-coeffs", "short-var-bounds"],
)
def test_from_data_refuses_a_bad_sense_or_length(objective, rows, bounds, match):
    with pytest.raises(InstanceError, match=match):
        LpProblem.from_data(objective, rows, bounds)


def test_primal_sign_and_bound_violations_reported():
    # x0 >= 1 and x0 <= 2: the optimum is x0 = 1; hand-built points break
    # x0 >= 0 and x0 <= 2, and each break is named with its exact amount
    p = LpProblem.from_data([1], [((1,), GE, 1)], [2])
    s = solve_lp(p)
    assert verify_certificate(p, s) == []
    negative = tuple.__new__(FractionalVector, (F(-1),))  # past the sign check
    kinds = {(v.kind, v.amount) for v in verify_certificate(p, replace(s, primal=negative))}
    assert ("primal_nonneg", F(1)) in kinds
    kinds = {
        (v.kind, v.amount)
        for v in verify_certificate(p, replace(s, primal=FractionalVector((F(3),))))
    }
    assert ("primal_bound", F(1)) in kinds


def test_pivot_row_reduced_by_its_gcd():
    # the cut 4 x0 >= 4 over D = 2 leaves a pivot row whose entries share a
    # factor; whether or not the row is reduced by it (only once its
    # denominator passes 2**REDUCE_BITS), the solve is the one of 2 x0 >= 2
    # over D = 1
    inst = parse_instance('{"A": [[1, 1]], "a": [1], "c": [1, 2], "d": [3, 3]}')
    got = solve_lp(lp_from_instance(inst, [((4, 0, 4), 2)]))
    assert got == solve_lp(lp_from_instance(inst, [((2, 0, 2), 1)]))
    assert got.status == "OPTIMAL" and got.primal.values == (F(1), F(0))


def test_rows_hold_sense_and_rhs_only():
    # the coefficients are stored once, in int_rows
    assert [f.name for f in fields(LpRow)] == ["sense", "rhs"]
    p = LpProblem.from_data([1, 1], [((F(1, 2), 1), GE, F(3, 4)), ((2, 0), LE, 5)], [None, 1])
    assert [(row.sense, row.rhs) for row in p.rows] == [(GE, F(3, 4)), (LE, 5)]
    assert p.int_rows == (((2, 4, 3), 4), ((2, 0, 5), 1))
    assert lp_rows(p) == [((F(1, 2), F(1)), GE, F(3, 4)), ((F(2), F(0)), LE, F(5))]


def test_negative_bound_rejected():
    with pytest.raises(InstanceError, match=r"^var_bounds\[0\] = -1 is negative$"):
        LpProblem.from_data([1, 1], [((1, 1), GE, 1)], [-1, None])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_eliminate_is_the_plain_update_reduced_by_its_gcd(data):
    # the exchange step: column e of the pivot row prow/p holds the leaving
    # variable's entry, and the row's own entry f = row[e] is taken as 0 in
    # the plain update, so the result there is -f * prow[e]; dividing p and
    # f by gcd(p, f) first, and not multiplying the row where p becomes 1,
    # must leave the canonical (row, den) unchanged when every row is
    # reduced (REDUCE_BITS = 0), and the rationals unchanged at the shipped
    # budget, where these small rows are not reduced
    size = data.draw(st.integers(2, 8))
    entries = st.lists(st.integers(-60, 60), min_size=size, max_size=size)
    row, prow = data.draw(entries), data.draw(entries)
    e = data.draw(st.integers(0, size - 1))
    prow[e] = data.draw(st.integers(-60, 60).filter(bool))
    p = data.draw(st.integers(1, 12))
    den = data.draw(st.integers(1, 60))
    f = row[e]
    plain = [v * p - f * w for v, w in zip(row, prow)]
    plain[e] = -f * prow[e]
    g = gcd(den * p, *plain)
    before = list(row)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "REDUCE_BITS", 0)
        assert _eliminate(row, den, prow, p, e) == ([v // g for v in plain], den * p // g)
    assert row == before
    lazy, lazy_den = _eliminate(row, den, prow, p, e)
    assert [F(v, lazy_den) for v in lazy] == [F(v, den * p) for v in plain]
    assert row == before


def _full_eliminate(row, den, prow, p, e, nz):
    f = row[e]
    g = gcd(p, f)
    p, f = p // g, f // g
    new = list(row) if p == 1 else [v * p for v in row]
    for j in nz:
        new[j] -= f * prow[j]
    den *= p
    g = gcd(den, *new)
    if g > 1:
        new = [v // g for v in new]
        den //= g
    return new, den


class _FullTableau:
    """The full-width tableau, kept as a reference for ``_Tableau``.

    Every column is stored, basic ones included: the structurals, then the
    user rows' slacks at ``n + i``; ties break on the lowest column.  Bounds
    are implicit: ``at_bound`` holds the nonbasic columns at their bound,
    and the last entry of a row is its basic value with every nonbasic at
    its own, scaled as ``_Tableau`` scales it.  The ratio test sorts the
    breakpoints as ``Fraction`` ratios.
    """

    def __init__(self, p):
        n = self.n = len(p.objective)
        m = self.m = len(p.rows)
        self.scale = lcm(*(u.denominator for u in p.var_bounds if u is not None))
        self.upper = [None if u is None else int(u * self.scale) for u in p.var_bounds]
        self.upper += [None] * m
        self.at_bound = set()
        self.basis = list(range(n, n + m))
        self.T, self.den = [], []
        for i, (row, (scaled, D)) in enumerate(zip(p.rows, p.int_rows)):
            sign = -1 if row.sense == GE else 1
            trow = [sign * v for v in scaled[:n]] + [0] * m + [sign * scaled[n] * self.scale]
            trow[n + i] = D
            self.T.append(trow)
            self.den.append(D)
        self.obj, self.obj_den = integers(p.objective)
        self.obj += [0] * (m + 1)
        self.iterations = 0

    def facing(self, r):
        """Row r, negated with its bound added if it is above its bound."""
        row = self.T[r]
        if row[-1] < 0:
            return list(row)
        out = [-v for v in row]
        out[-1] += self.upper[self.basis[r]] * self.den[r]
        return out

    def pivot(self, r, e):
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
        for i, row in enumerate(self.T):
            if i != r and row[e]:
                self.T[i], self.den[i] = _full_eliminate(row, self.den[i], prow, p, e, nz)
        if self.obj[e]:
            self.obj, self.obj_den = _full_eliminate(self.obj, self.obj_den, prow, p, e, nz)

    leaving, tie = _Tableau.leaving, _Tableau.tie

    def run(self, *, bland_after, max_iters):
        degenerate_streak, n, m = 0, self.n, self.m
        while True:
            found = self.leaving(degenerate_streak >= bland_after)
            if found is None:
                return -1
            r, high = found
            lrow, breaks = self.facing(r), []
            for c in range(n + m):
                a, d = lrow[c], self.obj[c]
                if c in self.at_bound:
                    a, d = -a, -d
                if c not in self.basis and a < 0:
                    breaks.append((F(d, -a), c, -a))
            slope, flips, enter = -lrow[-1], [], -1
            for _, c, a in sorted(breaks):
                u = self.upper[c]
                if u is None or slope <= a * u:
                    enter = c
                    break
                slope -= a * u
                flips.append(c)
            if enter < 0:
                return r
            if self.iterations >= max_iters:
                raise LimitError(f"simplex exceeded {max_iters} pivots")
            self.iterations += 1
            degenerate_streak = degenerate_streak + 1 if self.obj[enter] == 0 else 0
            for c in flips:
                u = -self.upper[c] if c in self.at_bound else self.upper[c]
                self.at_bound ^= {c}
                for row in (*self.T, self.obj):
                    row[-1] -= row[c] * u
            leave = self.basis[r]
            if high:
                self.T[r][-1] -= self.upper[leave] * self.den[r]
                self.at_bound.add(leave)
            self.pivot(r, enter)
            if enter in self.at_bound:
                self.T[r][-1] += self.upper[enter] * self.den[r]
                self.at_bound.remove(enter)
            self.basis[r] = enter


def _full_duals(p, t, vec, den):
    """Row duals from the slack columns of ``vec``; bound duals from its negative structurals."""
    n = t.n
    dual_rows = tuple(
        F(vec[n + i] if row.sense == GE else -vec[n + i], den) for i, row in enumerate(p.rows)
    )
    return dual_rows, tuple(F(min(v, 0), den) for v in vec[:n])


def reference_solve_lp(p, *, bland_after=40, max_iters=50_000):
    """``solve_lp`` on the full-width tableau; returns the solution and the tableau."""
    t = _FullTableau(p)
    r = t.run(bland_after=bland_after, max_iters=max_iters)
    if r >= 0:
        # the row as it faces its bounds: its basic column holds den, or -den if negated
        ray_rows, ray_bounds = _full_duals(p, t, t.facing(r), t.den[r])
        return LpSolution("INFEASIBLE", t.iterations, ray_rows=ray_rows, ray_bounds=ray_bounds), t
    x = [ZERO] * t.n
    for i, bi in enumerate(t.basis):
        if bi < t.n:
            x[bi] = F(t.T[i][-1], t.den[i] * t.scale)
    for j in t.at_bound:
        x[j] = p.var_bounds[j]
    dual_rows, dual_bounds = _full_duals(p, t, t.obj, t.obj_den)
    solution = LpSolution(
        "OPTIMAL",
        t.iterations,
        primal=FractionalVector(tuple(x)),
        objective_value=F(-t.obj[-1], t.obj_den * t.scale),
        dual_rows=dual_rows,
        dual_bounds=dual_bounds,
    )
    return solution, t


def _condensed_solve(p, bland_after, reduce_bits):
    """``solve_lp(p)`` and its last tableau, under the given pivot constants."""
    # a context, not the fixture: hypothesis reruns the body per example
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "GUIDED_MIN_CELLS", ALL_COLD)
        mp.setattr(simplex, "BLAND_AFTER", bland_after)
        mp.setattr(simplex, "REDUCE_BITS", reduce_bits)
        got = solve_lp(p)
        t = _Tableau(p)
        t.run()
    return got, t


def _assert_condensed_parity(p, bland_after):
    want, full = reference_solve_lp(p, bland_after=bland_after)
    # with every row reduced by its gcd (REDUCE_BITS = 0), each stored row's
    # integers and denominator are the full tableau's
    got, t = _condensed_solve(p, bland_after, 0)
    assert (got.status, got.iterations) == (want.status, want.iterations)
    assert (got.primal, got.objective_value) == (want.primal, want.objective_value)
    assert (got.dual_rows, got.dual_bounds) == (want.dual_rows, want.dual_bounds)
    assert (got.ray_rows, got.ray_bounds) == (want.ray_rows, want.ray_bounds)
    # the last tableau too: each stored row's entries and denominator are
    # the full row's, whose basic columns hold den on its own row and 0 off it
    # the objective is the condensed tableau's last row, T[m] over den[m]
    assert (t.basis, t.den[:-1], t.scale) == (full.basis, full.den, full.scale)
    assert sorted(t.nonbasic + t.basis) == list(range(t.n + t.m))
    assert _at_bound(t) == full.at_bound
    for crow, frow, b, d in zip(t.T, full.T, t.basis, t.den):
        assert crow == [frow[c] for c in t.nonbasic] + [frow[-1]]
        assert [frow[c] for c in t.basis] == [d if c == b else 0 for c in t.basis]
    assert t.T[-1] == [full.obj[c] for c in t.nonbasic] + [full.obj[-1]]
    assert t.den[-1] == full.obj_den
    assert not any(full.obj[c] for c in t.basis)
    # at the shipped budget a row is reduced only once its denominator
    # grows, so its integers may differ, but not the rationals they stand
    # for, the labels or the solution
    lazy, u = _condensed_solve(p, bland_after, simplex.REDUCE_BITS)
    assert lazy == want
    assert (u.basis, u.nonbasic, u.up) == (t.basis, t.nonbasic, t.up)
    for crow, frow, d, fd in zip(u.T, full.T, u.den, full.den):
        assert [F(v, d) for v in crow] == [F(frow[c], fd) for c in u.nonbasic] + [
            F(frow[-1], fd)
        ]
    assert [F(v, u.den[-1]) for v in u.T[-1]] == [
        F(full.obj[c], full.obj_den) for c in u.nonbasic
    ] + [F(full.obj[-1], full.obj_den)]
    return got.status


@pytest.mark.parametrize("bland_after", [0, 1, 40], ids=["bland-0", "bland-1", "bland-default"])
@settings(max_examples=100, deadline=None)
@given(p=st.one_of(cpip_lps(), general_lps()))
def test_condensed_tableau_equals_full_reference(p, bland_after):
    _assert_condensed_parity(p, bland_after)


@pytest.mark.parametrize("bland_after", [0, 1, 40], ids=["bland-0", "bland-1", "bland-default"])
def test_condensed_tableau_equals_full_reference_on_fixed_cases(bland_after):
    cases = [lp_from_instance(inst) for inst in _scale_instances()]
    cases += [
        _degenerate_cut_round(),
        LpProblem.from_data([0], [((1,), GE, 1)], [F(1, 2)]),
        _beale_dual(),
    ]
    statuses = {_assert_condensed_parity(p, bland_after) for p in cases}
    assert statuses == {"OPTIMAL", "INFEASIBLE"}


_BUDGETS = (0, 8, simplex.REDUCE_BITS)  # every row, tiny LPs' rows, the shipped budget


def _solve_at_budgets(p):
    """``solve_lp(p)`` on the exact tableau, rows reduced by their gcd at each of ``_BUDGETS``."""
    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "GUIDED_MIN_CELLS", ALL_COLD)
        for bits in _BUDGETS:
            mp.setattr(simplex, "REDUCE_BITS", bits)
            out.append(solve_lp(p))
    return out


@settings(max_examples=150, deadline=None)
@given(st.one_of(cpip_lps(), general_lps()))
def test_solution_independent_of_reduce_budget(p):
    # status, pivots, point, value, duals and rays: every field is equal
    first, *rest = _solve_at_budgets(p)
    assert all(s == first for s in rest)


def test_solution_independent_of_reduce_budget_on_fixed_cases():
    # a reduction is a gcd over a whole row, more than two arguments; each
    # budget must make some on these LPs, and fewer the larger it is
    fired = dict.fromkeys(_BUDGETS, 0)

    def counting_gcd(*args):
        if len(args) > 2:
            fired[simplex.REDUCE_BITS] += 1
        return gcd(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "gcd", counting_gcd)
        for inst in _scale_instances():
            first, *rest = _solve_at_budgets(lp_from_instance(inst))
            assert all(s == first for s in rest)
    assert fired[0] > fired[8] > fired[simplex.REDUCE_BITS] > 0


def _check_length(name, vec, n):
    if vec is None:
        raise InstanceError(f"{name} is missing")
    if len(vec) != n:
        raise InstanceError(f"{name} has {len(vec)} entries, expected {n}")


def reference_verify_certificate(p, s):
    """The ``Fraction`` certificate check ``verify_certificate`` replaced, kept as a reference.

    The row sums run in integers, as there; the signs, the dual
    constraints, the dual objective and ``c . x`` are ``Fraction`` arithmetic.
    """
    n, m = len(p.objective), len(p.rows)
    out = []
    if s.status == "OPTIMAL":
        rows, bounds, cost = s.dual_rows, s.dual_bounds, p.objective
        x = None if s.primal is None else s.primal.values
        _check_length("primal", x, n)
        _check_length("dual_rows", rows, m)
        _check_length("dual_bounds", bounds, n)
        for j, v in enumerate(x):
            if v < 0:
                out.append(CertificateViolation("primal_nonneg", j, -v))
        X, Dx = integers(x)
        for i, (row, (A, D)) in enumerate(zip(p.rows, p.int_rows)):
            lhs = sum(map(mul, A, X))
            gap = lhs - A[n] * Dx if row.sense == GE else A[n] * Dx - lhs
            if gap < 0:
                out.append(CertificateViolation("primal_row", i, F(-gap, D * Dx)))
        for j, u in enumerate(p.var_bounds):
            if u is not None and x[j] > u:
                out.append(CertificateViolation("primal_bound", j, x[j] - u))
    elif s.status == "INFEASIBLE":
        rows, bounds, cost = s.ray_rows, s.ray_bounds, (ZERO,) * n
        _check_length("ray_rows", rows, m)
        _check_length("ray_bounds", bounds, n)
    else:
        raise InstanceError(f"an {s.status} result carries no certificate")
    for i, row in enumerate(p.rows):
        y = rows[i]
        if (y < 0) if row.sense == GE else (y > 0):
            out.append(CertificateViolation("dual_sign_row", i, abs(y)))
    for j, u in enumerate(p.var_bounds):
        if bounds[j] > 0 or (u is None and bounds[j]):
            out.append(CertificateViolation("dual_sign_bound", j, abs(bounds[j])))
    W, Dw = integers([F(y, D) for y, (_, D) in zip(rows, p.int_rows)])
    live = [(w, A) for w, (A, _) in zip(W, p.int_rows) if w]
    weights = [w for w, _ in live]
    yA = [sum(map(mul, weights, col)) for col in zip(*(A for _, A in live))] or [0] * (n + 1)
    for j, cj in enumerate(cost):
        lhs = bounds[j] + F(yA[j], Dw)
        if lhs > cj:
            out.append(CertificateViolation("dual_feasibility", j, lhs - cj))
    value = F(yA[n], Dw)
    for j, u in enumerate(p.var_bounds):
        if u is not None:
            value += bounds[j] * u
    if s.status == "OPTIMAL":
        for primal_value in (s.objective_value, dot(p.objective, x)):
            if primal_value != value:
                out.append(CertificateViolation("duality_gap", 0, abs(primal_value - value)))
    elif value <= 0:
        out.append(CertificateViolation("farkas_value", 0, -value))
    return out


_FORGED_FIELDS = {
    "OPTIMAL": ("primal", "dual_rows", "dual_bounds", "objective_value"),
    "INFEASIBLE": ("ray_rows", "ray_bounds"),
}


def _forge(s, field, index, delta):
    """``s`` with one entry of ``field`` moved by ``delta``; a forged point may go negative."""
    if field == "objective_value":
        return replace(s, objective_value=s.objective_value + delta)
    values = list(s.primal.values if field == "primal" else getattr(s, field))
    values[index % len(values)] += delta
    if field != "primal":
        return replace(s, **{field: tuple(values)})
    return replace(s, primal=tuple.__new__(FractionalVector, values))  # past the sign check


def _assert_check_matches_reference(p, s, moves):
    """Each one-entry forgery of ``s``, and all of them at once, gets the reference's report."""
    forged, combined = [s], s
    for field, index, delta in moves:
        forged.append(_forge(s, field, index, delta))
        combined = _forge(combined, field, index, delta)
    kinds = set()
    for f in [*forged, combined]:
        want = [(v.kind, v.index, v.amount) for v in reference_verify_certificate(p, f)]
        assert [(v.kind, v.index, v.amount) for v in verify_certificate(p, f)] == want
        kinds.update(kind for kind, _, _ in want)
    return kinds


_deltas = st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 5))


@settings(max_examples=200, deadline=None)
@given(st.one_of(cpip_lps(), general_lps()), st.data())
def test_certificate_check_equals_fraction_reference(p, data):
    s = solve_lp(p)
    moves = [
        (field, data.draw(st.integers(0, 20)), data.draw(_deltas))
        for field in _FORGED_FIELDS[s.status]
    ]
    _assert_check_matches_reference(p, s, moves)


def test_certificate_check_equals_fraction_reference_on_fixed_cases():
    # large denominators at scale, rays on the infeasible cases; between
    # them the forgeries raise every kind of violation
    rng = random.Random(24)
    cases = [lp_from_instance(inst) for inst in _scale_instances()]
    cases += [
        _degenerate_cut_round(),
        LpProblem.from_data([0], [((1,), GE, 1)], [F(1, 2)]),
        _beale_dual(),
        LpProblem.from_data(
            [3, 3, 2],
            [((1, 0, -1), GE, 2), ((3, -3, -3), LE, -3), ((-2, -1, 3), GE, -2)],
            [3, None, F(3, 2)],
        ),
    ]
    kinds = set()
    for p in cases:
        s = solve_lp(p)
        for _ in range(4):
            moves = [
                (field, rng.randrange(100), F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)))
                for field in _FORGED_FIELDS[s.status]
            ]
            kinds |= _assert_check_matches_reference(p, s, moves)
    assert kinds == {
        "primal_nonneg", "primal_row", "primal_bound", "dual_sign_row", "dual_sign_bound",
        "dual_feasibility", "duality_gap", "farkas_value",
    }


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6), st.integers(1, 6), st.integers(0, 3), st.integers(0, 10**6),
    st.integers(0, 3),
)
def test_lp_from_instance_equals_from_data(m, n, r, seed, cut_count):
    inst = gen_random_cpip(m, n, r, seed=seed)
    rng = random.Random(seed)
    # integer cut rows over denominators 1..12, not always in lowest terms
    cuts = [
        (tuple(rng.randint(0, 9) for _ in range(n + 1)), rng.randint(1, 12))
        for _ in range(cut_count)
    ]
    rows = (
        [(row, GE, rhs) for row, rhs in zip(inst.A, inst.a)]
        + [(row, LE, rhs) for row, rhs in zip(inst.B, inst.b)]
        + [([F(v, D) for v in S[:n]], GE, F(S[n], D)) for S, D in cuts]
    )
    got = lp_from_instance(inst, cut_rows=cuts)
    want = LpProblem.from_data(inst.c, rows, inst.d)
    assert (got.objective, got.rows, got.var_bounds) == (
        want.objective, want.rows, want.var_bounds
    )
    # every row's integers stand for the rationals from_data reads; the cut
    # rows are kept as given, and the instance rows' integers are the
    # instance's own, not a rescaling
    assert len(got.int_rows) == len(want.int_rows)
    for (S, D), (T, E) in zip(got.int_rows, want.int_rows):
        assert [F(v, D) for v in S] == [F(v, E) for v in T]
    assert got.int_rows[m + r :] == tuple(cuts)
    assert all(a is b for a, b in zip(got.int_rows, inst.int_rows))
    assert solve_lp(got) == solve_lp(want)


@pytest.mark.parametrize(
    "cut, why",
    [
        (((1, 1), 1), "too short"),
        (((1, 1, 1, 1), 1), "too long"),
        (((1, F(1, 2), 1), 1), "a Fraction entry"),
        (((1, 1.0, 1), 1), "a float entry"),
        (((1, 1, 1), F(2)), "a Fraction denominator"),
        (((1, 1, 1), 0), "a zero denominator"),
        (((1, 1, 1), -2), "a negative denominator"),
        (((1, True, 1), 1), "a bool entry"),
        (((1, 1, 1), True), "a bool denominator"),
        (((1, 1, 1),), "not a pair: one item"),
        (((1, 1, 1), 1, 1), "not a pair: three items"),
        ((5, 1), "an S with no length"),
        ((None, 1), "an S of None"),
    ],
)
def test_lp_from_instance_rejects_malformed_cut_rows(cut, why):
    inst = gen_random_cpip(2, 2, 0, seed=1)
    lp_from_instance(inst, [((1, 1, 1), 3)])  # a well-formed row over D = 3
    with pytest.raises(InstanceError, match="cut row 1 is not 3 ints over an int D >= 1"):
        lp_from_instance(inst, [((1, 1, 1), 3), cut])


# --- the float-guided path: the same LpSolution as the exact tableau -------


def _cold_and_guided(p):
    """``solve_lp(p)`` on the exact tableau alone, then with every LP guided first."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "GUIDED_MIN_CELLS", ALL_COLD)
        cold = solve_lp(p)
        mp.setattr(simplex, "GUIDED_MIN_CELLS", 0)
        guided = solve_lp(p)
    return cold, guided


def _assert_guided_equals_cold(p):
    """Every field, the pivots too, and an optimum from the float run, not the exact run."""
    cold, guided = _cold_and_guided(p)
    assert guided == cold
    assert simplex._guided(p) == (guided if cold.status == "OPTIMAL" else None)
    return cold


def _at_bound(t):
    """The labels of a tableau's nonbasic variables at their bound."""
    return {label for label, up in zip(t.nonbasic, t.up) if up}


def _runs(p):
    """The exact and the float run on ``p``: each one's end, pivots, flips and final basis."""
    ends = []
    for tableau in (_Tableau, simplex._FloatTableau):
        t = tableau(p)
        ends.append((t.run(), t.iterations, t.flips, t.basis, t.nonbasic, t.up))
    return ends


@settings(max_examples=150, deadline=None)
@given(st.one_of(cpip_lps(), general_lps()))
def test_guided_solution_equals_cold(p):
    # status, pivots, point, value, both dual vectors and rays
    _assert_guided_equals_cold(p)


@st.composite
def boxed_lps(draw, infeasible=False):
    """Covering and packing LPs with every variable bounded, some, some bounds at 0, or
    rational bounds; with ``infeasible``, every variable bounded and one more row that
    the box cannot meet."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    coeff = st.builds(F, st.integers(0, 5), st.integers(1, 3))
    rows = [
        (
            draw(st.lists(coeff, min_size=n, max_size=n)),
            draw(st.sampled_from([GE, GE, LE])),
            draw(st.builds(F, st.integers(0, 20), st.integers(1, 4))),
        )
        for _ in range(m)
    ]
    bound = st.builds(F, st.integers(1, 4), st.integers(1, 2))
    kind = "every" if infeasible else draw(st.sampled_from(["every", "some", "zero", "rational"]))
    if kind == "every":
        bounds = draw(st.lists(bound, min_size=n, max_size=n))
    elif kind == "rational":
        rational = st.builds(F, st.integers(1, 12), st.integers(2, 7))
        bounds = draw(st.lists(st.one_of(st.none(), rational), min_size=n, max_size=n))
    else:
        bounds = draw(st.lists(st.one_of(st.none(), bound), min_size=n, max_size=n))
    if kind == "zero":
        bounds[draw(st.integers(0, n - 1))] = ZERO
    if infeasible:
        a = draw(st.lists(coeff, min_size=n, max_size=n))
        short = draw(st.builds(F, st.integers(1, 6), st.integers(1, 4)))
        rows.insert(draw(st.integers(0, m)), (a, GE, dot(a, bounds) + short))
    cost = st.builds(F, st.integers(0, 6), st.integers(1, 5))
    objective = draw(st.lists(cost, min_size=n, max_size=n))
    return LpProblem.from_data(objective, rows, bounds)


@settings(max_examples=200, deadline=None)
@given(boxed_lps())
def test_guided_equals_cold_on_boxed_lps(p):
    # one set of rules in both arithmetics: the same pivots and flips to the same basis
    exact, floats = _runs(p)
    assert exact == floats
    assert verify_certificate(p, _assert_guided_equals_cold(p)) == []


@settings(max_examples=100, deadline=None)
@given(boxed_lps(infeasible=True))
def test_infeasible_box_gives_a_certified_ray(p):
    # both runs end at the same row; the exact run's ray takes its bound part
    # from the variables the ratio test passed to their bound
    exact, floats = _runs(p)
    assert exact == floats and exact[0] >= 0
    cold = _assert_guided_equals_cold(p)
    assert cold.status == "INFEASIBLE" and verify_certificate(p, cold) == []
    assert _farkas_certifies(p, cold)


def _run_both(objective, rows, bounds):
    """The float run on an LP, once the exact run ends alike: the LP, its end and the run."""
    p = LpProblem.from_data(objective, rows, bounds)
    runs = []
    for tableau in (_Tableau, simplex._FloatTableau):
        t = tableau(p)
        end = t.run()
        values = [F(row[-1]) / (d * t.scale) for row, d in zip(t.T, t.den)]
        runs.append((end, t.iterations, t.flips, t.basis, _at_bound(t), values))
    assert runs[0] == runs[1]
    return p, end, t


def test_ratio_test_flips_a_bounded_breakpoint():
    # min x + 2y s.t. x + y >= 3, x <= 1: x's breakpoint comes first, and at
    # its bound x leaves the row short by 2, so x flips to 1 and y enters
    p, end, t = _run_both([1, 2], [((1, 1), GE, 3)], [1, None])
    assert (end, t.iterations, t.flips, _at_bound(t), t.basis) == (-1, 1, 1, {0}, [1])
    assert (t.T[0][-1], t.T[-1][-1]) == (2.0, -5.0)  # the flip moved y's value and z
    s = simplex._guided(p)
    assert (s.primal.values, s.objective_value, s.dual_rows, s.dual_bounds) == (
        (1, 2), 5, (2,), (-1, 0),
    )
    assert _cold_and_guided(p) == (s, s)


@pytest.mark.parametrize("u, x", [(4, 0), (3, 0)], ids=["past-the-demand", "at-the-demand"])
def test_ratio_test_stops_where_a_flip_would_meet_the_row(u, x):
    # x <= 4 at its bound would carry the row past 3, and x <= 3 exactly to
    # it: x enters at the first breakpoint, with no flip, and takes the value 3
    p, end, t = _run_both([1, 2], [((1, 1), GE, 3)], [u, None])
    assert (end, t.iterations, t.flips, _at_bound(t), t.basis) == (-1, 1, 0, set(), [0])
    assert simplex._guided(p).primal.values == (3, x)


def test_flipped_variable_enters_from_its_bound():
    # min x s.t. y <= 0, x + y >= 6, y <= 3: y flips to 3 and x enters at 3;
    # then y <= 0 leaves, and y enters from its bound 3 down to 0, so x is 6
    _, end, t = _run_both([1, 0], [((0, 1), LE, 0), ((1, 1), GE, 6)], [None, 3])
    assert (end, t.iterations, t.flips, _at_bound(t), t.basis) == (-1, 2, 1, set(), [1, 0])
    assert [row[-1] for row in t.T] == [0.0, 6.0, -6.0]  # the objective row last


def test_ratio_test_passes_every_breakpoint_of_an_infeasible_row():
    # x <= 1 and y <= 1 cannot meet x + y >= 3: the ratio test passes both
    # breakpoints, and the row ends the run with no flip made
    p, end, t = _run_both([1, 2], [((1, 1), GE, 3)], [1, 1])
    assert (end, t.iterations, t.flips, _at_bound(t)) == (0, 0, 0, set())
    assert t.entering(t.T[0]) == (-1, [0, 1])
    # the ray prices both bounds: 1 * (x + y >= 3) with x <= 1 and y <= 1 leaves 0 >= 1
    s = solve_lp(p)
    assert (s.status, s.ray_rows, s.ray_bounds) == ("INFEASIBLE", (1,), (-1, -1))


def test_ray_of_a_row_above_its_bound():
    # min x s.t. 2x >= 4, x >= 3, x <= 2: x enters at its bound 2 for the
    # first row, then the first row's slack enters for the second and lifts
    # x to 3, above its bound, where no breakpoint is left; the ray reads
    # x's row negated, so x's bound takes -1: 1 * (x >= 3) with x <= 2
    p = LpProblem.from_data([1], [((2,), GE, 4), ((1,), GE, 3)], [2])
    _, end, t = _run_both([1], [((2,), GE, 4), ((1,), GE, 3)], [2])
    assert (end, t.iterations, t.basis[end]) == (0, 2, 0) and t.T[end][-1] > 2
    s = solve_lp(p)
    assert (s.status, s.ray_rows, s.ray_bounds) == ("INFEASIBLE", (0, 1), (-1,))
    assert verify_certificate(p, s) == [] and _farkas_certifies(p, s)


def test_rational_bounds_scale_every_value():
    # min x + 2y s.t. x + y >= 1, x <= 1/2, y <= 2/3: every value is kept
    # over the bounds' lcm 6, so x flips to 3/6 and y enters at 3/6
    p = LpProblem.from_data([1, 2], [((1, 1), GE, 1)], [F(1, 2), F(2, 3)])
    t = _Tableau(p)
    assert (t.run(), t.scale, t.upper, t.iterations, t.flips) == (-1, 6, [3, 4, None], 1, 1)
    assert (t.T, t.den, _at_bound(t)) == ([[1, -1, 3], [-1, 2, -9]], [1, 1], {0})
    s = solve_lp(p)
    assert (s.primal.values, s.objective_value, s.dual_rows, s.dual_bounds) == (
        (F(1, 2), F(1, 2)), F(3, 2), (2,), (-1, 0),
    )
    assert verify_certificate(p, s) == []


def test_float_pivot_path_pinned():
    # one set of rules in both arithmetics: the float run's pivots and flips
    # at cpip-20x30 are the exact run's
    p = lp_from_instance(gen_random_cpip(20, 30, 3, 1))
    exact, floats = _runs(p)
    assert exact == floats and exact[:3] == (-1, PIVOTS_20X30, FLIPS_20X30)
    s = solve_lp(p)
    assert (s.status, s.iterations, s.objective_value) == ("OPTIMAL", PIVOTS_20X30, F(985, 12))


@pytest.mark.parametrize(
    "objective, row, bound",
    [
        ([2], ((1,), GE, 0), 2),  # x = 0 meets the row with its slack basic at 0
        ([0], ((2,), GE, 2), None),  # the tight row's dual is 0: every x >= 1 is optimal
        ([0], ((1,), LE, 2), 2),  # x's reduced cost is 0: every x in [0, 2] is optimal
        ([1], ((0,), LE, 1), 0),  # a bound of 0: its dual is free below
        ([2], ((2,), GE, 2), 1),  # x is basic at its bound: row and bound share the price
    ],
    ids=["slack-at-0", "zero-dual", "zero-reduced-cost", "zero-bound", "basic-at-bound"],
)
def test_bounded_run_hands_on_an_optimum_that_is_one_of_several(objective, row, bound):
    # the float run's basis is the exact run's, so its optimum is kept: pivots and all
    p = LpProblem.from_data(objective, [row], [bound])
    exact, floats = _runs(p)
    assert exact == floats
    _assert_guided_equals_cold(p)


def test_bounded_run_hands_on_a_basic_value_at_0():
    # min x s.t. 2x + y >= 1, 2y <= 0, x <= 2, y <= 2: y is basic at 0
    p = LpProblem.from_data([1, 0], [((2, 1), GE, 1), ((0, 2), LE, 0)], [2, 2])
    assert _assert_guided_equals_cold(p).primal.values == (F(1, 2), 0)


def test_several_duals_take_the_exact_runs():
    # min 2x + 2y s.t. 2x + y >= 3, x + y >= 2, x <= 1: at (1, 1) both rows
    # and the bound are tight; both runs price the first row and the bound
    p = LpProblem.from_data([2, 2], [((2, 1), GE, 3), ((1, 1), GE, 2)], [1, None])
    cold = _assert_guided_equals_cold(p)
    assert (cold.dual_rows, cold.dual_bounds) == ((2, 0), (-2, 0))


def test_set_cover_takes_the_float_run():
    # every LP of the guided size takes the float run, a set cover too, and
    # keeps its answer
    p = lp_from_instance(gen_set_cover(20, 30, 0.2, 1))
    exact, floats = _runs(p)
    assert exact == floats
    assert _assert_guided_equals_cold(p).status == "OPTIMAL"


def _cut_loop_lps(inst, eps):
    """Every LP the cut loop of ``inst`` at ``eps`` solves, in order."""
    seen = []

    def recording(p):
        seen.append(p)
        return solve_lp(p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rounding, "solve_lp", recording)
        solve_lp_kc(normalize_width(inst), eps)
    return seen


@pytest.mark.parametrize(
    "m, n, seeds", [(20, 30, (1, 3, 10)), (40, 60, (1, 11))], ids=["20x30", "40x60"]
)
def test_guided_equals_cold_on_every_cut_loop_lp(m, n, seeds):
    # seeds 3 and 10 at 20x30 and 1 and 11 at 40x60 take two cut rounds at eps = 1/4
    lps = [p for seed in seeds for p in _cut_loop_lps(gen_random_cpip(m, n, 3, seed), F(1, 4))]
    assert len(lps) > len(seeds)
    for p in lps:
        assert len(p.rows) * n >= simplex.GUIDED_MIN_CELLS  # guided at the shipped size rule
        _assert_guided_equals_cold(p)


def test_guided_solver_answers_equal_cold():
    # multiset-multicover 40x60 seed 1 has LPs with several optima
    inst = gen_multiset_multicover(40, 60, 1)

    def answers():
        solved = kc.solve_cip_strict(inst, F(1, 4)), rounding.solve_cpip_bicriteria(inst, F(1, 4))
        return [(x, replace(report, elapsed_s=None)) for x, report in solved]

    guided = answers()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "GUIDED_MIN_CELLS", ALL_COLD)
        assert answers() == guided


def _assert_falls_back(p, monkeypatch):
    """With every LP guided, ``_guided`` gives up on ``p`` and ``solve_lp`` is the exact run's."""
    monkeypatch.setattr(simplex, "GUIDED_MIN_CELLS", ALL_COLD)
    cold = solve_lp(p)
    monkeypatch.setattr(simplex, "GUIDED_MIN_CELLS", 0)
    assert simplex._guided(p) is None
    assert solve_lp(p) == cold
    return cold


class _CutShort(simplex._FloatTableau):
    """Stops after 3 pivots: a dual feasible basis whose point has a negative entry."""

    def leaving(self, bland):
        return None if self.iterations == 3 else super().leaving(bland)


class _WrongRatio(simplex._FloatTableau):
    """Enters the greatest ratio and flips nothing: a primal feasible basis whose duals fail."""

    def entering(self, lrow):
        breaks = []
        for q in range(self.n):
            a, d = lrow[q], self.T[-1][q]
            if self.up[q]:
                a, d = -a, -d
            if a < -simplex.FLOAT_TIE:
                breaks.append((d / -a, q))
        return max(breaks, default=(0, -1))[1], []


@pytest.mark.parametrize("wrong", [_CutShort, _WrongRatio], ids=["cut-short", "wrong-ratio"])
def test_wrong_float_basis_falls_back_to_exact(monkeypatch, wrong):
    reports = []

    def spy(p, s):
        reports.append(verify_certificate(p, s))
        return reports[-1]

    monkeypatch.setattr(simplex, "_FloatTableau", wrong)
    monkeypatch.setattr(simplex, "verify_certificate", spy)
    for p, pivots in (
        (lp_from_instance(gen_random_cpip(20, 30, 3, seed=1)), PIVOTS_20X30),
        (lp_from_instance(gen_set_cover(20, 30, 0.2, 1)), PIVOTS_SET_COVER),
    ):
        cold = _assert_falls_back(p, monkeypatch)
        assert cold.iterations == pivots  # the exact run's pivots, not the float run's
    if wrong is _WrongRatio:
        assert reports and all(reports)  # each guided certificate failed


def test_infeasible_lp_falls_back_to_exact(monkeypatch):
    ends = []

    class Recording(simplex._FloatTableau):
        def run(self):
            ends.append(super().run())
            return ends[-1]

    monkeypatch.setattr(simplex, "_FloatTableau", Recording)
    p = LpProblem.from_data([0], [((1,), GE, 1)], [F(1, 2)])
    cold = _assert_falls_back(p, monkeypatch)
    assert cold.status == "INFEASIBLE" and verify_certificate(p, cold) == []
    assert ends and all(r >= 0 for r in ends)  # the float run found the infeasible row


def test_float_pivot_cap_falls_back_to_exact(monkeypatch):
    class AtCap(simplex._FloatTableau):
        def __init__(self, p):
            super().__init__(p)
            self.iterations = simplex.MAX_PIVOTS

    monkeypatch.setattr(simplex, "_FloatTableau", AtCap)
    p = lp_from_instance(gen_random_cpip(20, 30, 3, seed=1))
    assert _assert_falls_back(p, monkeypatch).iterations == PIVOTS_20X30
    # a cap both runs reach is still LimitError
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 1)
    with pytest.raises(LimitError):
        solve_lp(p)


def test_singular_basis_falls_back_to_exact(monkeypatch):
    # the second row is twice the first: with both rows tight and both
    # variables basic, no row left to pivot on has an entry for the second
    class Singular(simplex._FloatTableau):
        def run(self):
            out = super().run()
            self.basis[:], self.nonbasic[:], self.up[:] = [0, 1], [2, 3], [False, False]
            return out

    monkeypatch.setattr(simplex, "_FloatTableau", Singular)
    for bound in (F(1, 2), None):
        p = LpProblem.from_data([1, 1], [((1, 1), GE, 1), ((2, 2), GE, 2)], [bound, bound])
        assert _assert_falls_back(p, monkeypatch).status == "OPTIMAL"


def test_negative_point_falls_back_to_exact(monkeypatch):
    # x0 at its bound 2 overfills the tight row x0 + x1 >= 1, so the exact
    # tableau of the basis reads x1 = -1: a value out of its bounds
    class Overfilled(simplex._FloatTableau):
        def run(self):
            out = super().run()
            self.basis[:], self.nonbasic[:], self.up[:] = [1], [0, 2], [True, False]
            return out

    monkeypatch.setattr(simplex, "_FloatTableau", Overfilled)
    p = LpProblem.from_data([1, 1], [((1, 1), GE, 1)], [2, None])
    s = _assert_falls_back(p, monkeypatch)
    assert s.status == "OPTIMAL" and verify_certificate(p, s) == []


@pytest.mark.parametrize(
    "objective, row, bound",
    [
        ([10**400, 1], ((1, 1), GE, 1), None),  # a cost beyond the float range
        ([10**400, 1], ((1, 1), GE, 2), 1),  # the same, with bounds to flip
        ([10**300], ((F(1, 10**8),), GE, 1000), None),  # a float value that overflows to inf
    ],
    ids=["cost-overflow", "cost-overflow-bounded", "value-overflow"],
)
def test_float_out_of_range_falls_back_to_exact(monkeypatch, objective, row, bound):
    p = LpProblem.from_data(objective, [row], [bound] * len(objective))
    s = _assert_falls_back(p, monkeypatch)
    assert s.status == "OPTIMAL" and verify_certificate(p, s) == []

