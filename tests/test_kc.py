import random

import pytest

from coverpack import kc, rounding
from coverpack.genbench import gen_random_cpip, knapsack_gap
from coverpack.kc import (
    cut_rows,
    find_violated_kc,
    high_set,
    kc_system,
    residual_demand,
    solve_cip_strict,
    solve_lp_kc,
)
from coverpack.model import (
    GuaranteeError,
    InstanceError,
    IntegerVector,
    LimitError,
    dot,
    normalize_width,
)
from coverpack.simplex import CertificateViolation, lp_from_instance, solve_lp, verify_certificate
from coverpack.oracle import brute_force_opt
from coverpack.rounding import solve_cpip_bicriteria
from conftest import F, make_inst


class TestResidualDemand:
    def test_gap_instance_single_pin(self):
        inst = knapsack_gap(F(1, 10))
        a_F = residual_demand(inst, {0})
        assert a_F == (F(1, 10),)

    def test_empty_pin_set(self):
        inst = knapsack_gap(F(1, 4))
        assert residual_demand(inst, set()) == inst.a

    def test_full_cover_clamps_to_zero(self):
        inst = make_inst(A=[[2, 1]], a=[2], c=[1, 1], d=[1, 1])
        a_F = residual_demand(inst, {0})
        assert a_F == (F(0),)

    def test_unbounded_pin_rejected(self):
        inst = knapsack_gap(F(1, 10))
        with pytest.raises(InstanceError, match="unbounded"):
            residual_demand(inst, {1})

    def test_fractional_pin_rejected(self):
        inst = make_inst(A=[["9/10", 1]], a=[1], c=[0, 1], d=["3/2", None])
        with pytest.raises(InstanceError, match="not an integer"):
            residual_demand(inst, {0})
        assert residual_demand(normalize_width(inst), {0}) == (F(1, 10),)


class TestKcSystem:
    def test_gap_truncation(self):
        inst = knapsack_gap(F(1, 4))
        system = kc_system(inst, {0})
        assert system.a_F == (F(1, 4),)
        assert system.A_F == ((F(0), F(1, 4)),)  # the "delta x2 >= delta" row

    def test_empty_set_is_original_system(self):
        inst = normalize_width(gen_random_cpip(3, 4, 0, seed=1))
        system = kc_system(inst, frozenset())
        assert system.A_F == inst.A
        assert system.a_F == inst.a

    def test_zero_residual_rows_not_emitted(self):
        inst = make_inst(A=[[2, 1], [1, 1]], a=[2, 2], c=[1, 1], d=[2, 2])
        system = kc_system(inst, {0})
        assert system.a_F == (F(0), F(0))
        assert cut_rows(system) == []

    def test_coefficients_never_exceed_residual(self):
        rng = random.Random(3)
        for seed in range(20):
            inst = normalize_width(gen_random_cpip(3, 4, 0, seed=seed, d_max=3))
            df = inst.d
            pins = frozenset(
                j for j in range(inst.n) if df[j] is not None and rng.random() < 0.5
            )
            system = kc_system(inst, pins)
            for i, coeffs, rhs in cut_rows(system):
                positive = [rhs / v for v in coeffs if v > 0]
                assert min(positive, default=F(1)) >= 1  # restricted width


class TestFindViolated:
    def test_gap_point_violates_pinned_row(self):
        inst = knapsack_gap(F(1, 10))
        system, hits = find_violated_kc(inst, (F(1), F(1, 10)), 2)
        assert system == kc_system(inst, {0})
        assert hits == [(0, F(9, 100))]

    def test_fully_pinned_no_violation_when_residual_zero(self):
        inst = make_inst(A=[[2, 1]], a=[2], c=[1, 1], d=[1, 1])
        df = inst.d
        x = tuple(F(v) for v in (1, 1))
        assert high_set(x, df, F(2)) == frozenset({0, 1})
        assert find_violated_kc(inst, x, 2)[1] == []

    def test_low_point_reduces_to_original_rows(self):
        inst = normalize_width(gen_random_cpip(2, 3, 0, seed=5, d_max=4))
        df = inst.d
        # fractional cover strictly below d'/2 on every coordinate
        sol_x = [min(F(df[j]) / 2 - F(1, 100), F(df[j])) for j in range(inst.n)]
        if all(dot(inst.A[i], sol_x) >= inst.a[i] for i in range(inst.m)):
            assert high_set(sol_x, df, F(2)) == frozenset()
            assert find_violated_kc(inst, sol_x, 2)[1] == []

    def test_lambda_must_exceed_one(self):
        inst = knapsack_gap(F(1, 10))
        with pytest.raises(InstanceError):
            find_violated_kc(inst, (F(0), F(0)), 1)


class TestHighSet:
    def test_threshold(self):
        inst = make_inst(A=[[1, 1, 1]], a=[1], c=[1, 1, 1], d=[2, 2, None])
        x = (F(1), F(99, 100), F(5))
        assert high_set(x, inst.d, 2) == frozenset({0})  # d/2 = 1

    def test_zero_bound_always_high(self):
        inst = make_inst(A=[[1, 1]], a=[1], c=[1, 1], d=[0, None])
        assert high_set((F(0), F(2)), inst.d, 2) == frozenset({0})


class TestSolveLpKc:
    def test_gap_cut_lifts_bound_to_one(self):
        inst = knapsack_gap(F(1, 100))
        loop = solve_lp_kc(inst, 2)
        assert loop.round_objectives[-1] >= 1 - F(1, 10**9)
        assert loop.cut_rows_added >= 1

    def test_no_cuts_needed_returns_after_one_round(self):
        # generous multiplicities keep every variable below d'/2
        inst = make_inst(A=[[1, 1]], a=[1], c=[1, 1], d=[50, 50])
        loop = solve_lp_kc(inst, 2)
        assert len(loop.round_objectives) == 1
        assert loop.cut_rows_added == 0

    def test_returned_point_is_lambda_relaxed(self, monkeypatch):
        solves = []

        def recorded(problem, *args, **kwargs):
            sol = solve_lp(problem, *args, **kwargs)
            solves.append((problem, sol))
            return sol

        monkeypatch.setattr(kc, "solve_lp", recorded)
        for seed in range(100):
            inst = normalize_width(gen_random_cpip(3, 4, 1, seed=600 + seed, d_max=3))
            loop = solve_lp_kc(inst, 2)
            x = loop.x
            system, violated = find_violated_kc(inst, x, 2)
            assert violated == []
            assert loop.system == system
            problem, sol = solves[-1]
            assert sol.primal == x
            assert verify_certificate(problem, sol) == []
            df = inst.d
            assert all(
                df[j] is None or x[j] <= df[j] for j in range(inst.n)
            )

    def test_round_limit_raises(self):
        inst = knapsack_gap(F(1, 10))
        with pytest.raises(LimitError, match="after 1 rounds"):
            solve_lp_kc(inst, 2, max_rounds=1)


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

        monkeypatch.setattr(kc, "solve_lp", counting_solve_lp)
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
            monkeypatch.setattr(kc, name, counting(name, fn))
        _, report = solve_cip_strict(knapsack_gap(F(1, 10)), F(1, 4))
        assert report.fopt == F(1, 10)
        assert calls == {"solve_lp": 2, "verify_certificate": 2}

    def test_fractional_bound_fopt_certified(self, monkeypatch):
        def one_violation(*args):
            return [CertificateViolation("duality_gap", 0, F(1))]

        monkeypatch.setattr(kc, "verify_certificate", one_violation)
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
                # the pinned set is the last round's high set at lambda = 1+eps
                last = calls[-1]
                assert report.pinned == tuple(sorted(last))
                x = solve_lp_kc(inst, 1 + eps).x
                assert last == high_set(x, inst.d, 1 + eps)
                rounds.append(report.lp_rounds)
        assert max(rounds) > 1

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
