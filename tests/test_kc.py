import dataclasses
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coverpack import kc, rounding
from coverpack.genbench import gen_random_cpip, knapsack_gap
from coverpack.kc import (
    find_violated_kc,
    kc_system,
    solve_cip_strict,
    solve_lp_kc,
)
from coverpack.model import (
    ZERO,
    GuaranteeError,
    InstanceError,
    IntegerVector,
    LimitError,
    dot,
    normalize_width,
)
from coverpack.simplex import (
    GE,
    CertificateViolation,
    LpProblem,
    lp_from_instance,
    solve_lp,
    verify_certificate,
)
from coverpack.oracle import brute_force_opt
from coverpack.rounding import bicriteria_round, solve_cpip_bicriteria
from conftest import F, make_inst


def reference_residual_demand(inst, F_):
    """a_F[i] = max(0, a[i] - sum_{j in F} A[i][j] d[j]), in Fraction arithmetic."""
    return tuple(
        max(ZERO, inst.a[i] - sum((inst.A[i][j] * inst.d[j] for j in F_), ZERO))
        for i in range(inst.m)
    )


def reference_kc_system(inst, F_):
    """The residual system as (A_F, a_F) over the rationals: entries min(A_ij, a_F[i]), 0 on F."""
    a_F = reference_residual_demand(inst, F_)
    A_F = tuple(
        tuple(ZERO if j in F_ else min(inst.A[i][j], a_F[i]) for j in range(inst.n))
        for i in range(inst.m)
    )
    return A_F, a_F


def reference_high_set(x, d, eps):
    """The variables with a finite bound and x_j >= d_j / (1 + eps), by the Fraction quotient."""
    return frozenset(
        j for j, (v, u) in enumerate(zip(x, d))
        if u is not None and v >= u / (1 + eps)
    )


def rationals(rows):
    """Integer rows ``(S, D)`` as (coefficient rows, rhs) over the rationals."""
    A = tuple(tuple(F(v, D) for v in S[:-1]) for S, D in rows)
    return A, tuple(F(S[-1], D) for S, D in rows)


def demands(system):
    return tuple(F(S[-1], D) for S, D in system.rows)


class TestResidualDemand:
    def test_gap_instance_single_pin(self):
        inst = knapsack_gap(F(1, 10))
        system = kc_system(inst, {0})
        assert [(S[-1], D) for S, D in system.rows] == [(1, 10)]
        assert demands(system) == (F(1, 10),)

    def test_empty_pin_set(self):
        inst = knapsack_gap(F(1, 4))
        assert demands(kc_system(inst, set())) == inst.a

    def test_full_cover_clamps_to_zero(self):
        inst = make_inst(A=[[2, 1]], a=[2], c=[1, 1], d=[1, 1])
        assert demands(kc_system(inst, {0})) == (F(0),)

    def test_unbounded_pin_rejected(self):
        inst = knapsack_gap(F(1, 10))
        with pytest.raises(InstanceError, match="unbounded"):
            kc_system(inst, {1})

    def test_fractional_pin_rejected(self):
        inst = make_inst(A=[["9/10", 1]], a=[1], c=[0, 1], d=["3/2", None])
        with pytest.raises(InstanceError, match="not an integer"):
            kc_system(inst, {0})
        assert demands(kc_system(normalize_width(inst), {0})) == (F(1, 10),)

    @pytest.mark.parametrize("pin", [-1, 2, 5, False, True])
    def test_pin_outside_the_variables_rejected(self, pin):
        # -1 would otherwise pin the last variable, 2 index past d, and
        # False and True pin x_0 and x_1 as the ints they subclass
        inst = make_inst(A=[[1, 1]], a=[2], c=[1, 1], d=[1, 1])
        with pytest.raises(InstanceError, match=f"cannot pin {pin}: the variables are 0..1"):
            kc_system(inst, {pin})


class TestKcSystem:
    def test_gap_truncation(self):
        inst = knapsack_gap(F(1, 4))
        system = kc_system(inst, {0})
        # the "delta x2 >= delta" row, over the instance row's denominator 4
        assert system.rows == (((0, 1, 1), 4),)
        assert rationals(system.rows) == (((F(0), F(1, 4)),), (F(1, 4),))

    def test_empty_set_is_original_system(self):
        inst = normalize_width(gen_random_cpip(3, 4, 0, seed=1))
        system = kc_system(inst, frozenset())
        assert system.rows == inst.int_rows[: inst.m]
        assert rationals(system.rows) == (inst.A, inst.a)

    def test_zero_residual_rows_not_emitted(self):
        inst = make_inst(A=[[2, 1], [1, 1]], a=[2, 2], c=[1, 1], d=[2, 2])
        system = kc_system(inst, {0})
        assert demands(system) == (F(0), F(0))
        assert [S for S, _ in system.rows] == [(0, 0, 0), (0, 0, 0)]
        # x_0 = 2 pins {0}; x_1 = 0 meets neither zero-demand row, and neither is reported
        assert find_violated_kc(inst, (F(2), F(0)), 1) == (system, [])

    def test_coefficients_never_exceed_residual(self):
        rng = random.Random(3)
        for seed in range(20):
            inst = normalize_width(gen_random_cpip(3, 4, 0, seed=seed, d_max=3))
            df = inst.d
            pins = frozenset(
                j for j in range(inst.n) if df[j] is not None and rng.random() < 0.5
            )
            system = kc_system(inst, pins)
            for S, _ in system.rows:
                if S[-1] > 0:
                    positive = [F(S[-1], v) for v in S[:-1] if v > 0]
                    assert min(positive, default=F(1)) >= 1  # restricted width


@st.composite
def pinned_instances(draw):
    """Fractional rows, entries above their demand, integral or absent bounds, and a pin set."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    number = st.fractions(min_value=0, max_value=4, max_denominator=6)
    entry = st.one_of(st.just(F(0)), number)
    inst = make_inst(
        A=[[draw(entry) for _ in range(n)] for _ in range(m)],
        a=[draw(number) for _ in range(m)],
        c=[draw(number) for _ in range(n)],
        d=[draw(st.one_of(st.none(), st.integers(0, 3))) for _ in range(n)],
    )
    finite = [j for j in range(n) if inst.d[j] is not None]
    return inst, frozenset(draw(st.sets(st.sampled_from(finite)))) if finite else frozenset()


class TestFractionParity:
    """The integer residual rows against the Fraction system they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(pinned_instances())
    def test_rows_equal_reference_rationals(self, case):
        inst, pins = case
        system = kc_system(inst, pins)
        assert system.F == pins
        assert [D for _, D in system.rows] == [D for _, D in inst.int_rows[: inst.m]]
        assert rationals(system.rows) == reference_kc_system(inst, pins)

    @settings(max_examples=150, deadline=None)
    @given(pinned_instances(), st.data())
    def test_shortfalls_equal_reference(self, case, data):
        inst, _ = case
        coordinate = st.fractions(min_value=0, max_value=4, max_denominator=5)
        x = [data.draw(coordinate) for _ in range(inst.n)]
        eps = data.draw(st.sampled_from([F(1, 4), F(1, 2), F(1)]))
        system, violated = find_violated_kc(inst, x, eps)
        high = reference_high_set(x, inst.d, eps)
        A_F, a_F = reference_kc_system(inst, high)
        want = [(i, a_F[i] - dot(A_F[i], x)) for i in range(inst.m) if a_F[i] > dot(A_F[i], x)]
        assert violated == want
        assert system == kc_system(inst, high)

    @settings(max_examples=80, deadline=None)
    @given(pinned_instances(), st.data())
    def test_lp_from_integer_cuts_equals_from_data(self, case, data):
        inst, pins = case
        system = kc_system(inst, pins)
        # residual rows, some over a multiple of their denominator, as a caller may give them
        picks = st.tuples(st.integers(0, inst.m - 1), st.integers(1, 3))
        cuts = [
            (tuple(k * v for v in system.rows[i][0]), k * system.rows[i][1])
            for i, k in data.draw(st.lists(picks, max_size=3))
        ]
        got = lp_from_instance(inst, cuts)
        A, a = rationals(cuts)
        rows = (
            [(row, GE, rhs) for row, rhs in zip(inst.A, inst.a)]
            + [(row, GE, rhs) for row, rhs in zip(A, a)]
        )
        want = LpProblem.from_data(inst.c, rows, inst.d)
        assert (got.objective, got.rows, got.var_bounds) == (
            want.objective, want.rows, want.var_bounds
        )
        assert got.int_rows[inst.m :] == tuple(cuts)
        assert [rationals([row]) for row in got.int_rows] == [
            rationals([row]) for row in want.int_rows
        ]
        sol = solve_lp(got)
        assert sol == solve_lp(want)
        assert verify_certificate(got, sol) == []

    @settings(max_examples=80, deadline=None)
    @given(pinned_instances(), st.sampled_from([F(1, 4), F(1, 2), F(1)]))
    def test_bicriteria_round_on_integer_rows_equals_fraction_rows(self, case, eps):
        inst, pins = case
        system = kc_system(inst, pins)
        A_F, a_F = reference_kc_system(inst, pins)
        # a vertex of the residual relaxation, the pinned variables at 0
        bounds = [0 if j in pins else inst.d[j] for j in range(inst.n)]
        residual = [(row, GE, rhs) for row, rhs in zip(A_F, a_F)]
        sol = solve_lp(LpProblem.from_data(inst.c, residual, bounds))
        assume(sol.status == "OPTIMAL")
        A, a = [S[:-1] for S, _ in system.rows], [S[-1] for S, _ in system.rows]
        got_info, want_info = {}, {}
        got = bicriteria_round(sol.primal, A, a, inst.c, inst.d, eps, info_out=got_info)
        want = bicriteria_round(sol.primal, A_F, a_F, inst.c, inst.d, eps, info_out=want_info)
        assert got == want
        assert got_info == want_info


class TestFindViolated:
    def test_gap_point_violates_pinned_row(self):
        inst = knapsack_gap(F(1, 10))
        system, hits = find_violated_kc(inst, (F(1), F(1, 10)), 1)
        assert system == kc_system(inst, {0})
        assert hits == [(0, F(9, 100))]

    def test_fully_pinned_no_violation_when_residual_zero(self):
        inst = make_inst(A=[[2, 1]], a=[2], c=[1, 1], d=[1, 1])
        system, violated = find_violated_kc(inst, (F(1), F(1)), 1)
        assert (system.F, violated) == (frozenset({0, 1}), [])

    def test_low_point_reduces_to_original_rows(self):
        inst = normalize_width(gen_random_cpip(2, 3, 0, seed=5, d_max=4))
        df = inst.d
        # fractional cover strictly below d'/2 on every coordinate
        sol_x = [min(F(df[j]) / 2 - F(1, 100), F(df[j])) for j in range(inst.n)]
        if all(dot(inst.A[i], sol_x) >= inst.a[i] for i in range(inst.m)):
            system, violated = find_violated_kc(inst, sol_x, 1)
            assert (system.F, violated) == (frozenset(), [])

    def test_epsilon_outside_its_range_refused(self):
        inst = knapsack_gap(F(1, 10))
        for eps in (0, F(3, 2)):
            with pytest.raises(InstanceError, match=rf"^epsilon {eps} outside \(0, 1\]$"):
                find_violated_kc(inst, (F(0), F(0)), eps)

    @pytest.mark.parametrize("x", [(F(1),), (F(1), F(1, 10), F(0))], ids=["short", "long"])
    def test_point_of_wrong_length_rejected(self, x):
        inst = knapsack_gap(F(1, 10))
        with pytest.raises(InstanceError, match=f"x has {len(x)} entries, expected 2"):
            find_violated_kc(inst, x, 1)


class TestHighSet:
    """The pinned set ``find_violated_kc(inst, x, eps)[0].F``: x_j >= d_j / (1 + eps)."""

    def test_threshold(self):
        # d_j / (1 + eps) is 4 at d_j = 5, eps = 1/4, and 3/2 at d_j = 2, eps = 1/3:
        # a coordinate on it is high, one a hair below it is not
        for d, eps, at in ((5, F(1, 4), F(4)), (2, F(1, 3), F(3, 2))):
            inst = make_inst(A=[[1, 1, 1]], a=[1], c=[1, 1, 1], d=[d, d, None])
            x = (at, at - F(1, 10**9), F(7))
            assert find_violated_kc(inst, x, eps)[0].F == frozenset({0})

    def test_zero_bound_always_high(self):
        inst = make_inst(A=[[1, 1]], a=[1], c=[1, 1], d=[0, None])
        for eps in (F(1, 4), F(1)):
            assert find_violated_kc(inst, (F(0), F(2)), eps)[0].F == frozenset({0})

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.one_of(st.none(), st.integers(0, 4)), min_size=1, max_size=6),
        st.fractions(min_value=0, max_value=1, max_denominator=8).filter(bool),
        st.data(),
    )
    def test_equals_fraction_reference(self, d, eps, data):
        # the integer test x_j (1 + eps) >= d_j picks the coordinates the Fraction quotient does,
        # on the threshold and next to it as well as anywhere in [0, 4]
        anywhere = st.fractions(min_value=0, max_value=4, max_denominator=6)

        def coordinate(u):
            if u is None:
                return anywhere
            near = [max(ZERO, u / (1 + eps) + k * F(1, 10**6)) for k in (-1, 0, 1)]
            return st.one_of(anywhere, st.sampled_from(near))

        x = [data.draw(coordinate(u)) for u in d]
        inst = make_inst(A=[[1] * len(d)], a=[1], c=[1] * len(d), d=d)
        assert find_violated_kc(inst, x, eps)[0].F == reference_high_set(x, d, eps)


class TestSolveLpKc:
    def test_gap_cut_lifts_bound_to_one(self):
        inst = knapsack_gap(F(1, 100))
        loop = solve_lp_kc(inst, 1)
        assert loop.round_objectives[-1] >= 1 - F(1, 10**9)
        assert loop.cut_rows_added >= 1

    def test_no_cuts_needed_returns_after_one_round(self):
        # generous multiplicities keep every variable below d'/2
        inst = make_inst(A=[[1, 1]], a=[1], c=[1, 1], d=[50, 50])
        loop = solve_lp_kc(inst, 1)
        assert len(loop.round_objectives) == 1
        assert loop.cut_rows_added == 0

    def test_returned_point_is_lambda_relaxed(self, monkeypatch):
        solves = []

        def recorded(problem, *args, **kwargs):
            sol = solve_lp(problem, *args, **kwargs)
            solves.append((problem, sol))
            return sol

        monkeypatch.setattr(rounding, "solve_lp", recorded)
        for seed in range(100):
            inst = normalize_width(gen_random_cpip(3, 4, 1, seed=600 + seed, d_max=3))
            loop = solve_lp_kc(inst, 1)
            x = loop.x
            system, violated = find_violated_kc(inst, x, 1)
            assert violated == []
            assert loop.system == system
            problem, sol = solves[-1]
            assert sol.primal == x
            assert verify_certificate(problem, sol) == []
            df = inst.d
            assert all(
                df[j] is None or x[j] <= df[j] for j in range(inst.n)
            )

    def test_round_limit_raises(self, monkeypatch):
        # the gap instance needs a second round; the cap is read at call time
        monkeypatch.setattr(kc, "MAX_ROUNDS", 1)
        inst = knapsack_gap(F(1, 10))
        with pytest.raises(LimitError, match="after 1 rounds"):
            solve_lp_kc(inst, 1)


class TestSolveCipStrict:
    def test_gap_instance_exact_optimum(self):
        for delta in (F(1, 2), F(1, 10), F(1, 100)):
            inst = knapsack_gap(delta)
            xhat, report = solve_cip_strict(inst, 1)
            assert report.cost == 1
            assert brute_force_opt(inst).cost == 1
            assert all(
                inst.d[j] is None or xhat[j] <= inst.d[j] for j in range(inst.n)
            )
            assert report.guarantees_ok

    def test_unbounded_instance_reduces_to_bicriteria(self):
        inst = normalize_width(
            gen_random_cpip(3, 4, 1, seed=17)
        )
        inst = make_inst(
            A=inst.A, a=inst.a, c=inst.c, d=[None] * inst.n, B=inst.B, b=inst.b
        )
        x_strict, rep_strict = solve_cip_strict(inst, 1)
        x_bic, rep_bic = solve_cpip_bicriteria(inst, 1)
        assert x_strict.values == x_bic.values
        assert rep_strict.pinned == ()
        assert rep_strict.cost == rep_bic.cost

    def test_multiplicity_is_exact_and_cost_bounded(self):
        hit_ratio = []
        for seed in range(20):
            inst = normalize_width(gen_random_cpip(3, 4, 0, seed=700 + seed, d_max=3))
            eps = F(1) if seed % 2 else F(1, 2)
            xhat, report = solve_cip_strict(inst, eps)
            for j in range(inst.n):
                if inst.d[j] is not None:
                    assert xhat[j] <= inst.d[j]  # zero tolerance
            oracle = brute_force_opt(inst)
            assert oracle.status == "OPTIMAL"
            bound = (1 + eps + 4 * report.K) * oracle.cost
            assert report.cost <= bound
            if oracle.cost > 0:
                hit_ratio.append(float(report.cost / oracle.cost))
        print(f"\nstrict/oracle ratio: mean {sum(hit_ratio)/len(hit_ratio):.3f}, "
              f"max {max(hit_ratio):.3f}")

    def test_pinned_variables_set_to_floored_bound(self):
        inst = normalize_width(make_inst(A=[["9/10", 1]], a=[1], c=[0, 1], d=["3/2", None]))
        xhat, report = solve_cip_strict(inst, 1)
        if report.pinned:
            for j in report.pinned:
                assert xhat[j] == 1  # floor(3/2)
        assert report.cost == brute_force_opt(inst).cost

    def test_plain_relaxation_reused_when_bounds_integral(self, monkeypatch):
        calls = []

        def counting_solve_lp(problem):
            calls.append(problem)
            return solve_lp(problem)

        monkeypatch.setattr(rounding, "solve_lp", counting_solve_lp)
        integral = normalize_width(gen_random_cpip(4, 5, 1, seed=3, d_max=3))
        fractional = normalize_width(
            make_inst(A=[["9/10", 1]], a=[1], c=[0, 1], d=["3/2", None])
        )
        for inst in (integral, fractional):
            calls.clear()
            _, report = solve_cip_strict(inst, F(1, 2))
            assert len(calls) == report.lp_rounds
            assert report.fopt == solve_lp(lp_from_instance(inst)).objective_value

    def test_every_cut_round_certified(self, monkeypatch):
        # round 1 is worth 1/10 and is reported as fopt; round 2 adds the cut
        calls = {"solve_lp": 0, "verify_certificate": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)

            return wrapped

        for name, fn in (("solve_lp", solve_lp), ("verify_certificate", verify_certificate)):
            monkeypatch.setattr(rounding, name, counting(name, fn))
        _, report = solve_cip_strict(knapsack_gap(F(1, 10)), F(1, 4))
        assert report.fopt == F(1, 10)
        assert calls == {"solve_lp": 2, "verify_certificate": 2}

    def test_fractional_bound_fopt_certified(self, monkeypatch):
        def one_violation(*args):
            return [CertificateViolation("duality_gap", 0, F(1))]

        monkeypatch.setattr(rounding, "verify_certificate", one_violation)
        inst = normalize_width(make_inst(A=[["9/10", 1]], a=[1], c=[0, 1], d=["3/2", None]))
        with pytest.raises(GuaranteeError, match="LP certificate failed: duality_gap"):
            solve_cip_strict(inst, F(1, 2))

    def test_fractional_bound_normalized_first(self):
        raw = make_inst(A=[["9/10", 1]], a=[1], c=[0, 1], d=["3/2", None])
        with pytest.raises(InstanceError, match="normalize width first"):
            solve_cip_strict(raw, F(1, 2))
        inst = normalize_width(raw)
        _, report = solve_cip_strict(inst, F(1, 2))
        # the plain relaxation with x_0 <= 1, not 3/2 (which has value 0)
        assert report.fopt == rounding.solve_relaxation(inst).objective_value == F(1, 10)

    def test_one_residual_system_per_cut_round(self, monkeypatch):
        calls = []

        def counting_kc_system(inst, pins):
            calls.append(frozenset(pins))
            return kc_system(inst, pins)

        monkeypatch.setattr(kc, "kc_system", counting_kc_system)
        insts = [knapsack_gap(F(1, 10))] + [
            normalize_width(gen_random_cpip(4, 5, 1, seed=s, d_max=3)) for s in range(6)
        ]
        rounds = []
        for inst in insts:
            for eps in (F(1, 4), F(1)):
                calls.clear()
                _, report = solve_cip_strict(inst, eps)
                assert len(calls) == report.lp_rounds
                # the pinned set is the last round's high set
                last = calls[-1]
                assert report.pinned == tuple(sorted(last))
                x = solve_lp_kc(inst, eps).x
                assert last == reference_high_set(x, inst.d, eps)
                rounds.append(report.lp_rounds)
        assert max(rounds) > 1

    def test_only_demanded_rows_are_rounded(self, monkeypatch):
        # once the high set is pinned, most residual rows have no demand left
        handed = []

        def spy(xbar, A, a, *args, **kwargs):
            handed.append(list(a))
            return rounding.bicriteria_round(xbar, A, a, *args, **kwargs)

        monkeypatch.setattr(kc, "bicriteria_round", spy)
        for seed in range(6):
            inst = normalize_width(gen_random_cpip(10, 15, 2, seed=seed))
            assert solve_cip_strict(inst, F(1, 4))[1].guarantees_ok
        assert len(handed) == 6 and all(v > 0 for a in handed for v in a)
        assert min(map(len, handed)) < 10  # a vacuous row was left out

    def test_cost_bound_breach_raises(self, monkeypatch):
        inst = normalize_width(gen_random_cpip(3, 4, 1, seed=17))
        inst = make_inst(
            A=inst.A, a=inst.a, c=inst.c, d=[None] * inst.n, B=inst.B, b=inst.b
        )

        def over_cost_round(*args, info_out):
            info_out.update({"K": 1, "L": F(1)})
            return IntegerVector((10**6,) * inst.n)

        monkeypatch.setattr(kc, "bicriteria_round", over_cost_round)
        with pytest.raises(GuaranteeError, match="cost"):
            solve_cip_strict(inst, 1)


class TestInjectedFaults:
    """Each guarantee check of the cut loop and the strict solver fires on a fault one layer down.

    Each fault is just past the bound, so a check loosened by a little
    lets it through.
    """

    # a strict solve at eps = 1/4 that pins variable 1 (cost 9) and costs
    # 19 against a relaxed cost of 281/20: above (1 + eps) times it
    STRICT = normalize_width(gen_random_cpip(3, 4, 1, seed=38, d_max=3))
    EPS = F(1, 4)

    def test_lp_value_that_falls_raises(self, monkeypatch):
        # the gap instance takes two cut rounds at eps = 1; round 2 reports
        # a value 1/100 below round 1's
        values = []

        def falling(inst, cut_rows=()):
            sol = rounding.solve_relaxation(inst, cut_rows)
            if values:
                sol = dataclasses.replace(sol, objective_value=values[0] - F(1, 100))
            values.append(sol.objective_value)
            return sol

        monkeypatch.setattr(kc, "solve_relaxation", falling)
        with pytest.raises(
            GuaranteeError, match=r"^cut round 2 lowered the LP value from 1/10 to 9/100$"
        ):
            solve_lp_kc(knapsack_gap(F(1, 10)), 1)

    def test_pinned_cost_above_its_bound_raises(self, monkeypatch):
        # the relaxed cost reported so that the pinned cost 9 lies between
        # (1 + eps) and (1 + 2 eps) times it
        relaxed = 9 / (1 + F(3, 2) * self.EPS)

        def lowered(inst, epsilon):
            real = solve_lp_kc(inst, epsilon)
            assert real.system.F == {1}
            objectives = (*real.round_objectives[:-1], relaxed)
            return dataclasses.replace(real, round_objectives=objectives)

        monkeypatch.setattr(kc, "solve_lp_kc", lowered)
        with pytest.raises(GuaranteeError, match=rf"^pinned cost 9 above \(1\+eps\) \* {relaxed}$"):
            solve_cip_strict(self.STRICT, self.EPS)

    def test_cost_above_the_4K_bound_raises(self, monkeypatch):
        # the rounding reports a K for which the cost 19 lies between
        # (1 + eps + 4K) and (1 + eps + 8K) times the relaxed cost
        relaxed = F(281, 20)
        K = (19 - (1 + self.EPS) * relaxed) / (6 * relaxed)

        def small_K(*args, info_out):
            out = bicriteria_round(*args, info_out=info_out)
            info_out["K"] = K
            return out

        monkeypatch.setattr(kc, "bicriteria_round", small_K)
        with pytest.raises(
            GuaranteeError,
            match=rf"^cost 19 above \(1 \+ eps \+ 4K\) \* {relaxed} with K = {K}$",
        ):
            solve_cip_strict(self.STRICT, self.EPS)

    def test_multiplicity_above_its_bound_raises(self, monkeypatch):
        # the rounding returns d_0 + 1 = 5 copies of x_0, which is not pinned
        # and costs 0, so only the strict check sees the excess
        inst = normalize_width(gen_random_cpip(3, 5, 1, seed=69))
        assert inst.c[0] == 0 and inst.d[0] == 4

        def one_over(*args, info_out):
            out = list(bicriteria_round(*args, info_out=info_out).values)
            out[0] = 5
            return IntegerVector(tuple(out))

        monkeypatch.setattr(kc, "bicriteria_round", one_over)
        with pytest.raises(
            GuaranteeError,
            match=r"^strict guarantees violated: "
            r".*multiplicity_strict=\(\(0, Fraction\(1, 1\)\),\)",
        ):
            solve_cip_strict(inst, self.EPS)
