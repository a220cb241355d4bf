"""Acceptance suite: every guarantee the package claims, checked end to end.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s``);
the asserts are the gate.  AC-8 re-verifies the LP certificates of every
other criterion's runs.  The criteria record what they solve in a
module-scoped ``Ledger`` and each runs once per module, whichever test
asks first, so any test can be selected or reordered on its own.
"""

import contextlib
import functools
import math
import random
import time

import pytest

from coverpack import rounding
from coverpack.genbench import gen_multiset_multicover, gen_random_cpip, knapsack_gap
from coverpack.kc import kc_system, solve_cip_strict, solve_lp_kc
from coverpack.model import dot, normalize_width
from coverpack.oracle import brute_force_opt
from coverpack.rounding import (
    compute_scale_factor,
    derandomized_round,
    granular_round,
    solve_cpip_bicriteria,
    width,
)
from coverpack.simplex import lp_from_instance, solve_lp, verify_certificate
from conftest import F, kc_defects

DELTAS = (F(1, 2), F(1, 10), F(1, 100), F(1, 1000))


class Ledger:
    """What the criteria solved, for the certificate audit in AC-8."""

    def __init__(self):
        self.lp_solves: list = []
        self.reports: list = []
        self.gap_results: dict = {}
        self._done: set = set()

    def run(self, body) -> None:
        """Run ``body(self)`` unless it already passed in this module."""
        if body not in self._done:
            body(self)
            self._done.add(body)


@pytest.fixture(scope="module")
def ledger():
    return Ledger()


def criterion(body):
    """Make ``body(ledger)`` a test that runs at most once per module."""

    @functools.wraps(body)
    def test(ledger):
        ledger.run(body)

    return test


def _line(name: str, ok: bool, detail: str = "") -> None:
    print(f"\n{name}: {'PASS' if ok else 'FAIL'}  {detail}")


def _lp_opt(ledger, inst):
    problem = lp_from_instance(inst)
    sol = solve_lp(problem)
    assert sol.status == "OPTIMAL"
    ledger.lp_solves.append((problem, sol))
    return sol


@contextlib.contextmanager
def _recording_cut_rounds(ledger):
    """Record each LP the cut loop solves, as (problem, solution), for AC-8.

    Every round solves through ``rounding.solve_relaxation``, so its ``solve_lp``.
    """
    solve = rounding.solve_lp

    def recorded(problem, *args, **kwargs):
        sol = solve(problem, *args, **kwargs)
        ledger.lp_solves.append((problem, sol))
        return sol

    rounding.solve_lp = recorded
    try:
        yield
    finally:
        rounding.solve_lp = solve


def _random_cip(seed: int, max_m: int = 12, max_n: int = 12):
    rng = random.Random(seed)
    m = rng.randint(1, max_m)
    n = rng.randint(1, max_n)
    return normalize_width(gen_random_cpip(m, n, 0, seed=seed, d_max=4))


@criterion
def test_ac1_gap_family_exact_values(ledger):
    worst = 0.0
    for delta in DELTAS:
        start = time.perf_counter()
        inst = knapsack_gap(delta)
        sol = _lp_opt(ledger, inst)
        assert abs(sol.objective_value - delta) <= F(1, 10**9)
        oracle = brute_force_opt(inst)
        assert oracle.cost == 1
        recorded_before = len(ledger.lp_solves)
        with _recording_cut_rounds(ledger):
            loop = solve_lp_kc(inst, 1)
        assert len(ledger.lp_solves) - recorded_before == len(loop.round_objectives)
        kc_value = loop.round_objectives[-1]
        assert kc_value >= 1 - F(1, 10**9)
        xhat, report = solve_cip_strict(inst, 1)
        ledger.reports.append(report)
        assert report.cost == 1
        for j in range(inst.n):
            assert inst.d[j] is None or xhat[j] <= inst.d[j]
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert elapsed < 1.0
        ledger.gap_results[delta] = {
            "fopt": sol.objective_value,
            "opt": oracle.cost,
            "kc_value": kc_value,
            "strict_cost": report.cost,
        }
    _line("AC-1", True, f"gap family exact at all deltas; worst {worst:.3f}s/delta")


@criterion
def test_ac2_derandomization_never_fails(ledger):
    start = time.perf_counter()
    count = 0
    for seed in range(500):
        inst = _random_cip(seed)
        sol = _lp_opt(ledger, inst)
        xbar = sol.primal.values
        L = compute_scale_factor(inst.m, width(inst.A, inst.a))
        trace: list = []
        xhat = derandomized_round(xbar, inst.A, inst.a, inst.c, L, trace_out=trace)
        assert all(dot(inst.A[i], xhat.values) >= inst.a[i] for i in range(inst.m))
        assert dot(inst.c, xhat.values) <= 2 * L * dot(inst.c, xbar)
        assert trace[0] < 1.0
        for before, after in zip(trace, trace[1:]):
            # tiny additive slack only for float roundoff in the estimator
            assert after <= before + 1e-9 * (1 + before)
        count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _line("AC-2", True, f"{count} instances, zero failures, {elapsed:.1f}s")


@criterion
def test_ac3_granularity_exact(ledger):
    start = time.perf_counter()
    runs = 0
    for seed in range(200):
        inst = _random_cip(1000 + seed, max_m=8, max_n=8)
        sol = _lp_opt(ledger, inst)
        xbar = sol.primal.values
        W = width(inst.A, inst.a)
        for K in (2, 3, 4, 8, 16):
            out = granular_round(xbar, inst.A, inst.a, inst.c, K)
            for v in out.values:
                assert (K * v).denominator == 1
            assert all(dot(inst.A[i], out.values) >= inst.a[i] for i in range(inst.m))
            L_prime = compute_scale_factor(inst.m, K * W)
            assert dot(inst.c, out.values) <= 2 * L_prime * dot(inst.c, xbar)
            runs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _line("AC-3", True, f"{runs} granular runs exact, {elapsed:.1f}s")


@criterion
def test_ac4_bicriteria_guarantees_with_packing(ledger):
    violations = 0
    runs = 0
    for seed in range(200):
        rng = random.Random(3000 + seed)
        inst = normalize_width(
            gen_random_cpip(rng.randint(2, 8), rng.randint(2, 8), rng.randint(1, 3),
                            seed=3000 + seed)
        )
        W = width(inst.A, inst.a)
        beta = inst.beta()
        for eps in (F(1, 4), F(1, 2), F(1)):
            xhat, report = solve_cpip_bicriteria(inst, eps)
            ledger.reports.append(report)
            fopt = report.fopt
            K = max(1, math.ceil(
                4 * math.log(2 * inst.m) / (float(W) * float(eps) ** 2)
            ))
            ok = all(dot(inst.A[i], xhat.values) >= inst.a[i] for i in range(inst.m))
            ok &= all(xhat[j] <= math.ceil((1 + eps) * dv) for j, dv in enumerate(inst.d))
            ok &= all(
                dot(inst.B[i], xhat.values) <= (1 + eps) * inst.b[i] + beta[i]
                for i in range(inst.r)
            )
            ok &= dot(inst.c, xhat.values) <= 4 * K * fopt
            violations += not ok
            runs += 1
            assert ok
    _line("AC-4", violations == 0, f"{runs} runs, {violations} violations")


@criterion
def test_ac5_strict_guarantees_and_oracle_ratio(ledger):
    ratios = []
    for seed in range(100):
        rng = random.Random(5000 + seed)
        n = rng.randint(2, 6)
        m = rng.randint(1, 5)
        if seed % 2:
            inst = normalize_width(
                gen_random_cpip(m, n, 0, seed=5000 + seed, d_max=3)
            )
        else:
            inst = gen_multiset_multicover(
                m, n, seed=5000 + seed, d_max=3, r=rng.randint(1, 2)
            )
        eps = F(1)
        xhat, report = solve_cip_strict(inst, eps)
        ledger.reports.append(report)
        for j in range(inst.n):
            if inst.d[j] is not None:
                assert xhat[j] <= inst.d[j]  # zero tolerance
        beta = inst.beta()
        for i in range(inst.r):
            assert dot(inst.B[i], xhat.values) <= (1 + eps) * inst.b[i] + beta[i]
        oracle = brute_force_opt(inst, max_points=500_000)
        assert oracle.status == "OPTIMAL"
        assert report.cost <= (1 + eps + 4 * report.K) * oracle.cost
        if oracle.cost > 0:
            ratios.append(float(report.cost / oracle.cost))
    mean = sum(ratios) / len(ratios)
    _line("AC-5", True, f"100 instances; cost/OPT mean {mean:.3f}, max {max(ratios):.3f}")


def test_ac6_kc_validity_and_width():
    for seed in range(50):
        rng = random.Random(7000 + seed)
        n = rng.randint(2, 4)
        m = rng.randint(1, 3)
        inst = normalize_width(gen_random_cpip(m, n, 0, seed=7000 + seed, d_max=2))
        defects = kc_defects(inst)
        assert defects == [], defects
        finite = [j for j in range(inst.n) if inst.d[j] is not None]
        for mask in range(2 ** len(finite)):
            pins = frozenset(finite[k] for k in range(len(finite)) if mask >> k & 1)
            system = kc_system(inst, pins)
            for S, _ in system.rows:
                if S[-1] > 0:  # a zero-demand row is vacuous and never a cut
                    row_width = min(F(S[-1], v) for v in S[:-1] if v > 0)
                    assert row_width >= 1
    _line("AC-6", True, "50 instances valid on the oracle; every residual row width >= 1")


@criterion
def test_ac7_integrality_gap_contrast(ledger):
    test_ac1_gap_family_exact_values(ledger)
    for delta in DELTAS:
        res = ledger.gap_results[delta]
        assert res["opt"] / res["fopt"] == 1 / delta  # plain relaxation gap blows up
        assert res["strict_cost"] / res["opt"] == 1  # cut-strengthened route closes it
    detail = ", ".join(
        f"delta={delta}: gap {float(1/delta):g} vs strict ratio 1.0" for delta in DELTAS
    )
    _line("AC-7", True, detail)


def test_ac8_lp_certificates(ledger):
    for criterion_test in (
        test_ac1_gap_family_exact_values,
        test_ac2_derandomization_never_fails,
        test_ac3_granularity_exact,
        test_ac4_bicriteria_guarantees_with_packing,
        test_ac5_strict_guarantees_and_oracle_ratio,
        test_ac9_additive_one_multiplicity,
    ):
        criterion_test(ledger)
    assert ledger.lp_solves and ledger.reports
    for problem, sol in ledger.lp_solves:
        assert verify_certificate(problem, sol) == []
    assert all(r.certificate_ok for r in ledger.reports if r.certificate_ok is not None)
    _line(
        "AC-8",
        True,
        f"{len(ledger.lp_solves)} raw solves + {len(ledger.reports)} pipeline reports certified",
    )


@criterion
def test_ac9_additive_one_multiplicity(ledger):
    # eps = 1/(2 max_j d_j) with max d_j = 2
    eps = F(1, 4)
    for seed in range(50):
        rng = random.Random(9000 + seed)
        inst = gen_multiset_multicover(
            rng.randint(1, 5), rng.randint(2, 6), seed=9000 + seed, d_max=2
        )
        assert max(inst.d) == 2
        xhat, report = solve_cpip_bicriteria(inst, eps)
        ledger.reports.append(report)
        for j in range(inst.n):
            assert xhat[j] <= inst.d[j] + 1
    _line("AC-9", True, "50 multicover instances within additive-1 multiplicity")
