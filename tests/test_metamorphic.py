"""Metamorphic tests: transformations that keep the program, whole pipelines on both.

Each transformation maps a desk-scale instance to one with the same
integer and fractional optima:

* permuting the covering rows, the packing rows or the columns (with c,
  d, A and B moved together);
* scaling a covering row (A_i, a_i) or a packing row (B_i, b_i) by a
  positive rational;
* duplicating a covering row;
* appending a column with no A or B entry and a positive cost.

Duplicating a column is not among them: with a finite d_j the copy adds
capacity, so opt can drop.  fopt_kc depends on the cut loop's path, so
only fopt <= fopt_kc <= opt is asserted of it.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from coverpack.genbench import gen_random_cpip
from coverpack.kc import solve_cip_strict
from coverpack.model import normalize_width
from coverpack.oracle import brute_force_opt, check_solution
from coverpack.rounding import (
    compute_scale_factor,
    derandomized_round,
    solve_cpip_bicriteria,
    solve_relaxation,
    width,
)
from conftest import F

EPS = F(1, 2)


def permute_rows(inst, family, order):
    if family == "covering":
        return replace(inst, A=tuple(inst.A[i] for i in order), a=tuple(inst.a[i] for i in order))
    return replace(inst, B=tuple(inst.B[i] for i in order), b=tuple(inst.b[i] for i in order))


def permute_columns(inst, order):
    def cols(row):
        return tuple(row[j] for j in order)

    return replace(
        inst,
        A=tuple(map(cols, inst.A)),
        B=tuple(map(cols, inst.B)),
        c=cols(inst.c),
        d=cols(inst.d),
    )


def scale_row(inst, family, i, s):
    if family == "covering":
        A, a = list(inst.A), list(inst.a)
        A[i], a[i] = tuple(s * v for v in A[i]), s * a[i]
        return replace(inst, A=tuple(A), a=tuple(a))
    B, b = list(inst.B), list(inst.b)
    B[i], b[i] = tuple(s * v for v in B[i]), s * b[i]
    return replace(inst, B=tuple(B), b=tuple(b))


def duplicate_row(inst, i):
    return replace(inst, A=(*inst.A, inst.A[i]), a=(*inst.a, inst.a[i]))


def append_zero_column(inst, cost, bound):
    return replace(
        inst,
        A=tuple((*row, F(0)) for row in inst.A),
        B=tuple((*row, F(0)) for row in inst.B),
        c=(*inst.c, cost),
        d=(*inst.d, bound),
    )


KINDS = ("permute covering", "permute columns", "scale covering", "duplicate covering", "zero column")
PACKING_KINDS = ("permute packing", "scale packing")

positive = st.fractions(min_value=F(1, 16), max_value=16, max_denominator=16)


@st.composite
def instances(draw):
    """A width-normalized random CPIP small enough for the oracle."""
    m, n, r = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(0, 2))
    seed = draw(st.integers(0, 10**6))
    return normalize_width(gen_random_cpip(m, n, r, seed, d_max=draw(st.integers(2, 3))))


@st.composite
def transformed(draw):
    """(instance, its image, the transformation's name)."""
    inst = draw(instances())
    kind = draw(st.sampled_from(KINDS + (PACKING_KINDS if inst.r else ())))
    family = kind.split()[-1]
    count = inst.m if family == "covering" else inst.r
    if kind == "permute columns":
        image = permute_columns(inst, draw(st.permutations(range(inst.n))))
    elif kind.startswith("permute"):
        image = permute_rows(inst, family, draw(st.permutations(range(count))))
    elif kind.startswith("scale"):
        image = scale_row(inst, family, draw(st.integers(0, count - 1)), draw(positive))
    elif kind == "duplicate covering":
        image = duplicate_row(inst, draw(st.integers(0, inst.m - 1)))
    else:
        bound = draw(st.one_of(st.none(), st.integers(0, 3).map(F)))
        image = append_zero_column(inst, draw(positive), bound)
    return inst, image, kind


def pipeline(inst):
    """fopt and the oracle's answer, once fopt <= fopt_kc <= opt and every guarantee hold."""
    xs, strict = solve_cip_strict(inst, EPS)
    xb, bicriteria = solve_cpip_bicriteria(inst, EPS)
    assert check_solution(inst, xs, EPS).ok_strict
    assert check_solution(inst, xb, EPS).ok_bicriteria
    oracle = brute_force_opt(inst)
    assert strict.fopt == bicriteria.fopt <= strict.fopt_kc
    if oracle.status == "OPTIMAL":
        assert strict.fopt_kc <= oracle.cost
    return strict.fopt, oracle.status, oracle.cost


@settings(max_examples=150, deadline=None)
@given(transformed())
def test_transformations_keep_both_optima(case):
    inst, image, _ = case
    assert pipeline(image) == pipeline(inst)


@settings(max_examples=60, deadline=None)
@given(instances(), st.data())
def test_derandomized_round_ignores_row_scaling(inst, data):
    # the estimator reads a row only through its ratios A_ij / a_i, and the
    # exact checks and the trim compare a row's entries with its own slack
    xbar = solve_relaxation(inst).primal.values
    L = compute_scale_factor(inst.m, width(inst.A, inst.a))
    i = data.draw(st.integers(0, inst.m - 1))
    image = scale_row(inst, "covering", i, data.draw(positive))
    before = derandomized_round(xbar, inst.A, inst.a, inst.c, L)
    assert derandomized_round(xbar, image.A, image.a, image.c, L) == before
