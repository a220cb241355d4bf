import ast
import inspect
import itertools
import json
import math
import random
import re
import sys
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coverpack
from coverpack import kc, model
from coverpack.genbench import (
    GeneratorSpec,
    gen_multiset_multicover,
    gen_random_cpip,
    gen_set_cover,
    generate,
    knapsack_gap,
    run_bench,
)
from coverpack.kc import find_violated_kc, kc_system, solve_cip_strict, solve_lp_kc
from coverpack.model import (
    CoverpackError,
    CpipInstance,
    FractionalVector,
    InstanceError,
    IntegerVector,
    LimitError,
    ParseError,
    ZERO,
    as_fraction,
    as_sequence,
    as_vector,
    dot,
    integers,
    is_width_normalized,
    nonnegative,
    normalize_width,
    parse_instance,
    parse_solution,
    report_dict,
    scale_rows,
    serialize_instance,
)
from coverpack.oracle import brute_force_opt, check_solution
from coverpack.rounding import (
    bicriteria_round,
    compute_scale_factor,
    derandomized_round,
    granular_round,
    randomized_round,
    solve_cpip_bicriteria,
    width,
)
from coverpack.simplex import LpProblem, lp_from_instance, solve_lp, verify_certificate
from conftest import F, make_inst


GAP_DOC = '{"A": [[0.9, 1]], "a": [1], "c": [0, 1], "d": [1, null]}'


class TestParse:
    def test_gap_document(self):
        inst = parse_instance(GAP_DOC)
        assert (inst.m, inst.n, inst.r) == (1, 2, 0)
        assert inst.A == ((F(9, 10), F(1)),)
        assert inst.a == (F(1),)
        assert inst.c == (F(0), F(1))
        assert inst.d == (F(1), None)

    def test_decimals_parse_exactly(self):
        inst = parse_instance('{"A": [[0.1]], "a": [0.3], "c": ["2/7"], "d": [null]}')
        assert inst.A[0][0] == F(1, 10)
        assert inst.a[0] == F(3, 10)
        assert inst.c[0] == F(2, 7)
        inst = parse_instance('{"A": [[1.5e3, "1.5E3"]], "a": [0.25], "c": ["3/4", "0.25"]}')
        assert inst.A == ((F(1500), F(1500)),)
        assert inst.a == (F(1, 4),)
        assert inst.c == (F(3, 4), F(1, 4))

    def test_empty_variable_list_rejected(self):
        with pytest.raises(ParseError):
            parse_instance('{"A": [[]], "a": [1], "c": [], "d": []}')

    def test_negative_entry_rejected(self):
        with pytest.raises(InstanceError):
            parse_instance('{"A": [[-1, 1]], "a": [1], "c": [0, 1], "d": [1, null]}')

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InstanceError):
            parse_instance('{"A": [[1, 1]], "a": [1, 2], "c": [0, 1], "d": [1, 1]}')

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_instance('{"A": [[1, ]], "a": [1]}')

    @pytest.mark.parametrize("word", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_number_rejected(self, word):
        # json.loads reads these words as floats; no rational equals them
        with pytest.raises(InstanceError, match="as a rational"):
            parse_instance('{"A": [[%s, 1]], "a": [1], "c": [1, 1]}' % word)

    def test_b_without_rhs_rejected(self):
        with pytest.raises(ParseError):
            parse_instance('{"A": [[1]], "a": [1], "c": [1], "d": [1], "B": [[1]]}')

    #: a document with a field of the wrong type, and the reader's message for it
    WRONG_TYPE = {
        '{"A": [[1]], "a": 5, "c": [1]}': "a: expected a sequence, got int",
        '{"A": [[1]], "a": "1", "c": [1]}': "a: expected a sequence, got str",
        '{"A": [[1]], "a": [1], "c": 1}': "c: expected a sequence, got int",
        '{"A": [[1]], "a": [1], "c": [1], "d": 1}': "d: expected a sequence, got int",
        '{"A": [[1]], "a": [1], "c": [1], "d": {"0": 1}}': "d: expected a sequence, got dict",
        '{"A": [1], "a": [1], "c": [1]}': r"A\[0\]: expected a sequence, got int",
        '{"A": [[1]], "a": [1], "c": [1], "B": [[1]], "b": 3}': "b: expected a sequence, got int",
        '{"A": [[1]], "a": [1], "c": [1], "B": [1], "b": [3]}': (
            r"B\[0\]: expected a sequence, got int"
        ),
        '{"A": [[1]], "a": [1], "c": [1], "B": 7, "b": [3]}': "B: expected a sequence, got int",
    }

    @pytest.mark.parametrize("doc", WRONG_TYPE)
    def test_field_of_wrong_type_rejected(self, doc):
        # a reader's InstanceError comes out as a ParseError, in the reader's wording
        with pytest.raises(ParseError, match=f"^{self.WRONG_TYPE[doc]}$"):
            parse_instance(doc)

    @pytest.mark.parametrize(
        "doc",
        ['{"A": [[' + "1" * 5000 + ']], "a": [1], "c": [1]}', "[" * 100_000],
        ids=["over-long integer", "deep nesting"],
    )
    def test_undecodable_document_rejected(self, doc):
        with pytest.raises(ParseError, match="unreadable document"):
            parse_instance(doc)

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_exponent_bounded_by_int_string_limit(self, sign):
        # each exponent digit makes the number ten times longer; 1e(limit - 1)
        # has `limit` digits, 1e(limit) one too many to print
        limit = sys.get_int_max_str_digits()
        at, long, over = (f"1e{sign}{limit + k}" for k in (-1, 0, 1))
        doc = '{"A": [[1]], "a": [%s], "c": [1]}'
        for number in (at, f'"{at}"'):
            assert parse_instance(doc % number).a == (F(at),)
        for number, why in ((long, "decimal digits"), (over, "exponent")):
            with pytest.raises(ParseError, match=why):
                parse_instance(doc % number)
            with pytest.raises(InstanceError, match="as a rational"):
                parse_instance(doc % f'"{number}"')

    def test_no_exponent_bound_without_int_string_limit(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        inst = parse_instance('{"A": [[1]], "a": [1e5000], "c": ["1e-5000"]}')
        assert inst.a == (F(10**5000),) and inst.c == (F(1, 10**5000),)

    @pytest.mark.parametrize(
        "doc, match",
        [
            ("[1]", "top-level value must be an object"),
            ('{"A": [[1]], "a": [1], "c": [1], "e": [1]}', r"unknown fields: \['e'\]"),
            ('{"A": [[1]], "c": [1]}', "missing required field 'a'"),
            ('{"A": [], "a": [], "c": [1]}', "at least one covering row"),
        ],
        ids=["not-an-object", "unknown-field", "missing-field", "empty-A"],
    )
    def test_malformed_document_rejected(self, doc, match):
        with pytest.raises(ParseError, match=match):
            parse_instance(doc)

    @pytest.mark.parametrize(
        "data, match",
        [
            (dict(c=[]), "instance has no variables"),
            (dict(B=[[1]], b=[]), "b has 0 entries, expected 1"),
            (dict(A=[[1, 1]]), r"A\[0\] has 2 entries, expected 1"),
            (dict(B=[[1, 1]], b=[1]), r"B\[0\] has 2 entries, expected 1"),
            (dict(d=[1, 1]), "d has 2 entries, expected 1"),
            (dict(a=[-1]), r"a\[0\] = -1 is negative"),
            (dict(B=[[1]], b=[-1]), r"b\[0\] = -1 is negative"),
            (dict(c=[-1]), r"c\[0\] = -1 is negative"),
            (dict(d=[-1]), r"d\[0\] = -1 is negative"),
            (dict(A=5), "A: expected a sequence, got int"),
            (dict(a=None), "a: expected a sequence, got NoneType"),
        ],
        ids=[
            "no-variables", "B-b-count", "A-row-length", "B-row-length", "d-length",
            "negative-a", "negative-b", "negative-c", "negative-d", "int-A", "None-a",
        ],
    )
    def test_from_data_refuses(self, data, match):
        with pytest.raises(InstanceError, match=match):
            CpipInstance.from_data(**{"A": [[1]], "a": [1], "c": [1], "d": [1], **data})

    def test_round_trip(self):
        inst = parse_instance(GAP_DOC)
        assert parse_instance(serialize_instance(inst)) == inst

    def test_round_trip_with_packing(self):
        inst = make_inst(
            A=[[1, 2], [0, 1]],
            a=["3/2", 1],
            c=[1, 2],
            d=[None, "5/2"],
            B=[[1, 1]],
            b=[4],
        )
        assert parse_instance(serialize_instance(inst)) == inst


GAP = normalize_width(knapsack_gap(F(1, 10)))
GAP_XBAR = (F(1), F(1, 10))  # the relaxation optimum of GAP
GAP_LP = lp_from_instance(GAP)
GAP_SOL = solve_lp(GAP_LP)

#: every scalar parameter of a public function, with a value it accepts
SCALARS = {
    "solve_cip_strict(epsilon)": (lambda v: solve_cip_strict(GAP, v), "1/2"),
    "solve_cpip_bicriteria(epsilon)": (lambda v: solve_cpip_bicriteria(GAP, v), "1/2"),
    "bicriteria_round(epsilon)": (
        lambda v: bicriteria_round(GAP_XBAR, GAP.A, GAP.a, GAP.c, GAP.d, v), "1/2"
    ),
    # the epsilon from which the cut loop takes its lambda = 1 + eps
    "solve_lp_kc(lambda)": (lambda v: solve_lp_kc(GAP, v), "1/2"),
    "find_violated_kc(lambda)": (lambda v: find_violated_kc(GAP, GAP_XBAR, v), "1/2"),
    "randomized_round(L)": (lambda v: randomized_round(GAP_XBAR, v, 0), "2"),
    "derandomized_round(L)": (
        lambda v: derandomized_round(GAP_XBAR, GAP.A, GAP.a, GAP.c, v), "100"
    ),
    "compute_scale_factor(W)": (lambda v: compute_scale_factor(1, v), "2"),
    "knapsack_gap(delta)": (knapsack_gap, "1/2"),
    "run_bench(epsilons)": (
        lambda v: run_bench([GeneratorSpec("KNAPSACK_GAP", delta=F(1, 2))], [v]), "1/2"
    ),
    "check_solution(epsilon)": (lambda v: check_solution(GAP, (1, 1), v), "1/2"),
    "GeneratorSpec(density)": (lambda v: GeneratorSpec("SET_COVER", density=v), "1/2"),
    "gen_set_cover(density)": (lambda v: gen_set_cover(2, 2, v, 0), "1/2"),
    "gen_random_cpip(density)": (lambda v: gen_random_cpip(2, 2, 0, 0, density=v), "1/2"),
    "gen_multiset_multicover(density)": (
        lambda v: gen_multiset_multicover(2, 2, 0, density=v), "1/2"
    ),
}


def capped(call, rounds):
    """``call()`` with the cut loops' round cap ``kc.MAX_ROUNDS`` set to ``rounds``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kc, "MAX_ROUNDS", rounds)
        return call()


#: every int parameter of a public function, and the round cap each cut loop
#: reads at call time, with its least value (None: no least)
INTS = {
    "solve_lp_kc(max_rounds)": (lambda v: capped(lambda: solve_lp_kc(GAP, 1), v), 1),
    "solve_cip_strict(max_rounds)": (lambda v: capped(lambda: solve_cip_strict(GAP, 1), v), 1),
    "brute_force_opt(max_points)": (lambda v: brute_force_opt(GAP, max_points=v), None),
    "compute_scale_factor(m)": (lambda v: compute_scale_factor(v, 2), 1),
    "randomized_round(seed)": (lambda v: randomized_round([F(1, 3)] * 12, 2, v), None),
    "granular_round(K)": (lambda v: granular_round(GAP_XBAR, GAP.A, GAP.a, GAP.c, v), 1),
    "parse_solution(n)": (lambda v: parse_solution('{"x": [1, 1, 1, 1, 1]}', v), 0),
    "gen_set_cover(num_elements)": (lambda v: gen_set_cover(v, 2, 0.5, 0), 1),
    "gen_set_cover(num_sets)": (lambda v: gen_set_cover(2, v, 0.5, 0), 1),
    "gen_set_cover(seed)": (lambda v: gen_set_cover(2, 2, 0.5, v), None),
    "gen_random_cpip(m)": (lambda v: gen_random_cpip(v, 2, 0, 0), 1),
    "gen_random_cpip(n)": (lambda v: gen_random_cpip(2, v, 0, 0), 1),
    "gen_random_cpip(r)": (lambda v: gen_random_cpip(2, 2, v, 0), 0),
    "gen_random_cpip(seed)": (lambda v: gen_random_cpip(2, 2, 0, v), None),
    "gen_random_cpip(d_max)": (lambda v: gen_random_cpip(2, 2, 0, 0, d_max=v), 2),
    "gen_multiset_multicover(m)": (lambda v: gen_multiset_multicover(v, 2, 0), 1),
    "gen_multiset_multicover(n)": (lambda v: gen_multiset_multicover(2, v, 0), 1),
    "gen_multiset_multicover(seed)": (lambda v: gen_multiset_multicover(2, 2, v), None),
    "gen_multiset_multicover(coeff_max)": (
        lambda v: gen_multiset_multicover(2, 2, 0, coeff_max=v), 1
    ),
    "gen_multiset_multicover(d_max)": (lambda v: gen_multiset_multicover(2, 2, 0, d_max=v), 1),
    "gen_multiset_multicover(r)": (lambda v: gen_multiset_multicover(2, 2, 0, r=v), 0),
    # a spec's sizes are read when it is generated, by the generator's readers
    **{
        f"GeneratorSpec({size})": (
            lambda v, size=size: generate(GeneratorSpec("RANDOM_CPIP", **{size: v})), least
        )
        for size, least in (("m", 1), ("n", 1), ("r", 0), ("d_max", 2), ("seed", None))
    },
}

#: every vector argument of a public function read entry by entry, and its name
VECTORS = {
    "FractionalVector(values)": (FractionalVector, "x"),
    "check_solution(x)": (lambda x: check_solution(GAP, x, 1), "x"),
    "find_violated_kc(x)": (lambda x: find_violated_kc(GAP, x, 1), "x"),
    "randomized_round(xbar)": (lambda x: randomized_round(x, 2, 0), "xbar"),
    "derandomized_round(xbar)": (
        lambda x: derandomized_round(x, GAP.A, GAP.a, GAP.c, 100), "xbar"
    ),
    "granular_round(xbar)": (lambda x: granular_round(x, GAP.A, GAP.a, GAP.c, 2), "xbar"),
    "bicriteria_round(xbar)": (
        lambda x: bicriteria_round(x, GAP.A, GAP.a, GAP.c, GAP.d, "1/2"), "xbar"
    ),
}

#: the int-string limit: a number with more decimal digits cannot be printed
DIGITS = sys.get_int_max_str_digits()


class TestOneReader:
    """Every scalar parameter is read by ``as_fraction``, as documents are."""

    @pytest.mark.parametrize("entry", sorted(SCALARS))
    def test_accepts_a_rational_string(self, entry):
        call, value = SCALARS[entry]
        call(value)

    @pytest.mark.parametrize("value", ["abc", "1/0", None, True, "1e5000", Decimal("0.5")])
    @pytest.mark.parametrize("entry", sorted(SCALARS))
    def test_refuses_what_documents_refuse(self, entry, value):
        with pytest.raises(InstanceError):
            SCALARS[entry][0](value)

    @pytest.mark.parametrize("value", [f"1e{DIGITS}", f"1e-{DIGITS}"])
    @pytest.mark.parametrize("entry", sorted(SCALARS))
    def test_refuses_more_digits_than_can_print(self, entry, value):
        with pytest.raises(InstanceError, match="as a rational"):
            SCALARS[entry][0](value)

    def test_reads_as_many_digits_as_can_print(self):
        assert as_fraction(f"1e{DIGITS - 1}") == 10 ** (DIGITS - 1)
        assert as_fraction(f"1e-{DIGITS - 1}") == F(1, 10 ** (DIGITS - 1))
        assert as_fraction(f"{'9' * (DIGITS - 1)}.5") == F(10**DIGITS - 5, 10)


class TestIntReader:
    """Every int parameter is read by ``as_int``: an int, never a bool."""

    @pytest.mark.parametrize("entry", sorted(INTS))
    def test_accepts_an_int(self, entry):
        INTS[entry][0](5)

    @pytest.mark.parametrize(
        "value", ["3", 2.5, None, True, F(3)], ids=["str", "float", "None", "bool", "Fraction"]
    )
    @pytest.mark.parametrize("entry", sorted(INTS))
    def test_refuses_what_is_not_an_int(self, entry, value):
        with pytest.raises(InstanceError, match="must be an int"):
            INTS[entry][0](value)

    @pytest.mark.parametrize("entry", sorted(e for e in INTS if INTS[e][1] is not None))
    def test_refuses_below_its_least_value(self, entry):
        call, least = INTS[entry]
        with pytest.raises(InstanceError, match=f"= {least - 1} must be an int >= {least}"):
            call(least - 1)


class TestVectorEntries:
    """Every vector entry is read by ``as_fraction``, and a bad one is named."""

    @pytest.mark.parametrize("entry", sorted(VECTORS))
    def test_reads_rational_strings_exactly(self, entry):
        call, _ = VECTORS[entry]
        assert call(("1", "1/10")) == call(GAP_XBAR)

    @pytest.mark.parametrize("value", [None, "x", float("nan"), True])
    @pytest.mark.parametrize("entry", sorted(VECTORS))
    def test_refuses_a_bad_entry_by_its_index(self, entry, value):
        call, name = VECTORS[entry]
        with pytest.raises(InstanceError, match=rf"^{name}\[1\]: "):
            call((GAP_XBAR[0], value))


#: the first four arguments of a rounding of GAP
GAP_ROUND = (GAP_XBAR, GAP.A, GAP.a, GAP.c)

#: every vector and matrix argument (a matrix is a sequence of rows) of a public
#: callable and of parse_solution, read whole by ``as_sequence``; the types it
#: takes besides a sequence.  The records (CpipInstance, LpProblem) are built by
#: their ``from_data``; the result records and object arguments are left out.
SEQUENCES = {
    **{
        f"CpipInstance.from_data({name})": (
            lambda v, name=name: CpipInstance.from_data(
                **{"A": [[1]], "a": [1], "c": [1], "d": [1], name: v}
            ),
            (),
        )
        for name in ("A", "a", "B", "b", "c", "d")
    },
    "FractionalVector(values)": (FractionalVector, ()),
    "IntegerVector(values)": (IntegerVector, ()),
    "LpProblem.from_data(objective)": (lambda v: LpProblem.from_data(v, [], [None]), ()),
    "LpProblem.from_data(rows)": (lambda v: LpProblem.from_data([1], v, [None]), ()),
    "LpProblem.from_data(var_bounds)": (lambda v: LpProblem.from_data([1], [], v), ()),
    **{
        f"{fn.__name__}({name})": (
            lambda v, fn=fn, k=k, rest=rest: fn(*GAP_ROUND[:k], v, *GAP_ROUND[k + 1:], *rest),
            (),
        )
        for fn, rest in (
            (derandomized_round, (100,)), (granular_round, (2,)), (bicriteria_round, (None, 1))
        )
        for k, name in enumerate(("xbar", "A", "a", "c"))
    },
    # None is no bound
    "bicriteria_round(d)": (
        lambda v: bicriteria_round(GAP_XBAR, GAP.A, GAP.a, GAP.c, v, 1), (type(None),)
    ),
    "randomized_round(xbar)": (lambda v: randomized_round(v, 2, 0), ()),
    "check_solution(x)": (lambda v: check_solution(GAP, v, 1), ()),
    "find_violated_kc(x)": (lambda v: find_violated_kc(GAP, v, 1), ()),
    # the pins are read as a set
    "kc_system(F)": (lambda v: kc_system(GAP, v), (set,)),
    "lp_from_instance(cut_rows)": (lambda v: lp_from_instance(GAP, v), ()),
    "run_bench(specs)": (lambda v: run_bench(v, [1]), ()),
    "run_bench(epsilons)": (lambda v: run_bench([GeneratorSpec("SET_COVER")], v), ()),
    "width(A)": (lambda v: width(v, GAP.a), ()),
    "width(a)": (lambda v: width(GAP.A, v), ()),
    # a document holds no set
    "parse_solution(x)": (lambda v: parse_solution(json.dumps({"x": v}), 2), (set,)),
}

#: the bad values of each kind of argument: 5 is a number and an int, 1.5 a number
BAD = {
    "number": (None, "x", {}, {1}, True),
    "int": (None, "x", {}, {1}, True, 1.5),
    "sequence": (5, None, "x", {}, {1}, True),
}


def reader_wording(kind: str, value) -> str:
    """The end of the message with which ``kind``'s reader refuses ``value``."""
    if kind == "sequence":
        return f": expected a sequence, got {type(value).__name__}"
    if kind == "int":
        return f" = {value!r} must be an int"
    if value is None or isinstance(value, bool):
        return f": expected a number, got {value!r}"
    if isinstance(value, str):
        return f": cannot read {value!r} as a rational"
    return f": unsupported number type {type(value).__name__}"


#: the table of each kind of argument
TABLES = {"number": SCALARS, "int": INTS, "sequence": SEQUENCES}

#: (entry, kind, bad value) for every argument of the three tables
ARGUMENTS = [
    (entry, kind, value)
    for kind, table in TABLES.items()
    for entry in sorted(table)
    for value in BAD[kind]
    if not (kind == "sequence" and isinstance(value, SEQUENCES[entry][1]))
]


@pytest.mark.parametrize(
    "entry, kind, value", ARGUMENTS, ids=[f"{e}={v!r}" for e, _, v in ARGUMENTS]
)
def test_every_argument_refused_in_its_readers_words(entry, kind, value):
    # a non-sequence used to be a TypeError, a set was read in its iteration
    # order, and a generator size a TypeError or, for True, the size 1
    call = TABLES[kind][entry][0]
    with pytest.raises(CoverpackError, match=re.escape(reader_wording(kind, value))):
        call(value)


#: a solver argument outside its range, and the message that names it
RANGES = {
    "solve_lp_kc(epsilon=0)": (lambda: solve_lp_kc(GAP, 0), r"epsilon 0 outside \(0, 1\]"),
    "find_violated_kc(epsilon=3/2)": (
        lambda: find_violated_kc(GAP, GAP_XBAR, "3/2"), r"epsilon 3/2 outside \(0, 1\]"
    ),
    "solve_lp_kc(max_rounds=0)": (
        lambda: capped(lambda: solve_lp_kc(GAP, 1), 0), "kc.MAX_ROUNDS = 0 must be an int >= 1"
    ),
    "solve_cip_strict(epsilon=0)": (
        lambda: solve_cip_strict(GAP, 0), r"epsilon 0 outside \(0, 1\]"
    ),
    "solve_cip_strict(epsilon=2)": (
        lambda: solve_cip_strict(GAP, 2), r"epsilon 2 outside \(0, 1\]"
    ),
    "solve_cpip_bicriteria(epsilon=0)": (
        lambda: solve_cpip_bicriteria(GAP, 0), r"epsilon 0 outside \(0, 1\]"
    ),
    "solve_cpip_bicriteria(epsilon=3/2)": (
        lambda: solve_cpip_bicriteria(GAP, "3/2"), r"epsilon 3/2 outside \(0, 1\]"
    ),
    "solve_cpip_bicriteria(not normalized)": (
        lambda: solve_cpip_bicriteria(make_inst(A=[[2]], a=[1], c=[1], d=[1]), 1),
        "normalize width first",
    ),
    "check_solution(epsilon=-5)": (
        lambda: check_solution(GAP, (1, 1), -5), r"epsilon -5 outside \(0, 1\]"
    ),
    "check_solution(epsilon=2)": (
        lambda: check_solution(GAP, (1, 1), 2), r"epsilon 2 outside \(0, 1\]"
    ),
    "compute_scale_factor(m=0)": (
        lambda: compute_scale_factor(0, 2), "m = 0 must be an int >= 1"
    ),
    "randomized_round(L=1/2)": (
        lambda: randomized_round(GAP_XBAR, "1/2", 0), "scale factor L = 1/2 must be >= 1"
    ),
    # derandomized_round reads L as randomized_round does: 0 and -1 were a math domain error
    "derandomized_round(L=0)": (
        lambda: derandomized_round(GAP_XBAR, GAP.A, GAP.a, GAP.c, 0),
        "scale factor L = 0 must be >= 1",
    ),
    "derandomized_round(L=-1)": (
        lambda: derandomized_round(GAP_XBAR, GAP.A, GAP.a, GAP.c, -1),
        "scale factor L = -1 must be >= 1",
    ),
    "derandomized_round(L=1/2)": (
        lambda: derandomized_round(GAP_XBAR, GAP.A, GAP.a, GAP.c, "1/2"),
        "scale factor L = 1/2 must be >= 1",
    ),
    # an argument that is not a sequence used to be a TypeError
    "check_solution(x=5)": (
        lambda: check_solution(GAP, 5, 1), "^x: expected a sequence, got int$"
    ),
    # a dict used to be read by its keys
    "check_solution(x=dict)": (
        lambda: check_solution(GAP, {0: 1, 1: 1}, 1), "^x: expected a sequence, got dict$"
    ),
    "find_violated_kc(x=5)": (
        lambda: find_violated_kc(GAP, 5, 1), "^x: expected a sequence, got int$"
    ),
    "LpProblem.from_data(objective=3)": (
        lambda: LpProblem.from_data(3, [], []), "^objective: expected a sequence, got int$"
    ),
    "verify_certificate(dual_rows=5)": (
        lambda: verify_certificate(GAP_LP, replace(GAP_SOL, dual_rows=5)),
        "^dual_rows: expected a sequence, got int$",
    ),
    "width(A=5)": (lambda: width(5, GAP.a), "^A: expected a sequence, got int$"),
    "kc_system(F=5)": (lambda: kc_system(GAP, 5), "^F: expected a sequence, got int$"),
    # each used to escape as AttributeError on spec.family, outside the per-row try
    **{
        f"run_bench(specs=[{spec!r}])": (
            lambda spec=spec: run_bench([spec], [1]), r"^specs\[0\] is not a GeneratorSpec$"
        )
        for spec in (1, None, "SET_COVER")
    },
}


@pytest.mark.parametrize("call, match", RANGES.values(), ids=RANGES.keys())
def test_solver_argument_out_of_range(call, match):
    with pytest.raises(InstanceError, match=match):
        call()


#: a rounding whose estimator floats cannot hold ln L or the scaled point
FLOAT_RANGE = {
    "derandomized_round(L=10**400)": lambda: derandomized_round(
        GAP_XBAR, GAP.A, GAP.a, GAP.c, 10**400
    ),
    "derandomized_round(xbar)": lambda: derandomized_round((10**400, 1), GAP.A, GAP.a, GAP.c, 2),
    "granular_round(xbar)": lambda: granular_round((10**400, 1), GAP.A, GAP.a, GAP.c, 2),
    "bicriteria_round(xbar)": lambda: bicriteria_round(
        (10**400, 1), GAP.A, GAP.a, GAP.c, None, 1
    ),
}


@pytest.mark.parametrize("call", FLOAT_RANGE.values(), ids=FLOAT_RANGE.keys())
def test_estimator_float_range_is_a_limit(call):
    # each used to escape as OverflowError from the float of L or of a coordinate
    with pytest.raises(LimitError, match="beyond the estimator's float range"):
        call()


def test_candidate_vectors_are_sequences_of_nonnegative_entries():
    # the two vector types share their sequence methods and keep their own checks
    for vec in (FractionalVector((F(1, 2), 0.5, 0)), IntegerVector((2, 0, 1))):
        assert len(vec) == 3 and list(vec) == list(vec.values) and vec[2] == vec.values[2]
    # FractionalVector stores an entry that is not an int or a Fraction as as_fraction reads it
    assert FractionalVector([0.5, "1/3", 0]).values == (F(1, 2), F(1, 3), 0)
    assert [type(v) for v in FractionalVector((0.5, 0)).values] == [F, int]
    with pytest.raises(InstanceError, match=r"^x\[1\] = -1/2 is negative$"):
        FractionalVector((F(1), F(-1, 2)))
    with pytest.raises(InstanceError, match=r"^x\[0\] = -1/2 is negative$"):
        FractionalVector((-0.5, 1))
    # IntegerVector reads each entry by as_int's rule: an int, not a bool, at least 0
    for values, bad in (
        ((1, F(1, 2)), r"x\[1\] = Fraction\(1, 2\)"),
        ((True, 0), r"x\[0\] = True"),
        ((0, -1), r"x\[1\] = -1"),
        ((1.0,), r"x\[0\] = 1.0"),
    ):
        with pytest.raises(InstanceError, match=f"^{bad} must be an int >= 0$"):
            IntegerVector(values)


@pytest.mark.parametrize("kind, values", [(FractionalVector, (F(1), 0)), (IntegerVector, (1, 0))])
def test_candidate_vectors_store_a_tuple_and_hash_by_value(kind, values):
    # a list and a tuple of the same entries make equal vectors with one hash
    from_list, from_tuple = kind(list(values)), kind(values)
    assert type(from_list.values) is tuple and from_list.values == values
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    assert len({from_list, from_tuple, kind(values[::-1])}) == 2
    # a vector is the tuple of its entries: it equals it, hashes and prints as it
    assert isinstance(from_list, tuple) and from_list == values and hash(from_list) == hash(values)
    assert repr(from_list) == repr(values) and IntegerVector((1, 0)) == FractionalVector((1, 0))


class Half(F):
    """A ``Fraction`` subclass, as a caller's own number type may be."""


def test_fraction_subclass_entry_reads_as_its_value():
    half = Half(1, 2)
    assert as_fraction(half, "v") is half
    assert as_vector((half, 1), "v") == (F(1, 2), F(1))
    inst = CpipInstance.from_data(
        A=[[half, 1], [1, half]], a=[1, 1], c=[1, half], d=[2, 2], B=[[half, 1]], b=[3]
    )
    assert inst.A == ((F(1, 2), F(1)), (F(1), F(1, 2))) and inst.c == (1, F(1, 2))
    norm = normalize_width(inst)
    assert solve_cip_strict(norm, F(1, 4))[1].guarantees_ok
    assert solve_cpip_bicriteria(norm, F(1, 4))[1].guarantees_ok
    assert parse_instance(serialize_instance(inst)) == inst


def test_fraction_declares_the_slots_the_readers_read():
    # model._parts reads these private slots of a Fraction vector; under other
    # names every such vector would be read through the slower properties
    assert F.__slots__ == ("_numerator", "_denominator")
    for v in (F(0), F(-6, 4), F(10**30, 7), Half(3, 9)):
        assert (v._numerator, v._denominator) == (v.numerator, v.denominator)


# -- model._parts, the one reader of a vector's numerators and denominators --


def reference_parts(values, denominators=False):
    """The public properties, one entry at a time."""
    nums = [v.numerator for v in values]
    return (nums, [v.denominator for v in values]) if denominators else nums


def reference_integers(values):
    D = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (D // v.denominator) for v in values], D


def reference_nonnegative(values, name):
    for j, v in enumerate(values):
        if v < 0:
            raise InstanceError(f"{name}[{j}] = {v} is negative")
    return values


def reference_numbers_out(values):
    return [p if q == 1 else f"{p}/{q}" for p, q in ((v.numerator, v.denominator) for v in values)]


EXACT = st.fractions(min_value=-4, max_value=6, max_denominator=6)
#: entries that have a numerator and a denominator: those of a vector of one kind
EXACT_KINDS = {
    "fractions": EXACT,
    "ints": st.one_of(st.integers(-3, 6), st.integers(2**64, 2**66)),
    "bools": st.booleans(),
    "halves": st.builds(Half, EXACT),
}


@st.composite
def exact_vectors(draw):
    """A list or tuple of one kind of ``EXACT_KINDS``, or of all of them mixed."""
    kind = draw(st.sampled_from([*EXACT_KINDS, "mixed"]))
    entry = st.one_of(*EXACT_KINDS.values()) if kind == "mixed" else EXACT_KINDS[kind]
    values = draw(st.lists(entry, max_size=8))
    return tuple(values) if draw(st.booleans()) else values


@settings(max_examples=300, deadline=None)
@given(st.lists(exact_vectors(), min_size=1, max_size=4))
def test_parts_and_its_readers_equal_the_property_reference(matrix):
    # a vector of Fractions is read through their slots, any other through the
    # properties; the numbers, and the refusal of a negative entry, are the same
    for values in matrix:
        assert list(model._parts(values)) == reference_parts(values)
        assert model._parts(values, True) == reference_parts(values, True)
        assert integers(values) == reference_integers(values)
        assert all(type(k) is int for k in model._parts(values))
        assert outcome(nonnegative, values, "v") == outcome(reference_nonnegative, values, "v")
        assert model._numbers_out(values) == reference_numbers_out(values)


class SlottedHalf(F):
    """A ``Fraction`` subclass that declares its own slots, so it has no ``__dict__``."""

    __slots__ = ("unit",)


@pytest.mark.parametrize("kind", [Half, SlottedHalf], ids=["with-dict", "with-slots"])
def test_parts_of_subclass_entries_equal_the_property_reference(kind):
    # after a plain Fraction, subclass entries are read through the slots they
    # inherit; a vector that starts with one is read through the properties
    assert hasattr(kind(1), "__dict__") == (kind is Half)
    entries = [kind(-3, 4), kind(5), kind(10**30, 7), kind(0)]
    for values in ([F(1, 2), *entries], (F(2), *entries), entries, [*entries, F(1, 2)]):
        assert list(model._parts(values)) == reference_parts(values)
        assert model._parts(values, True) == reference_parts(values, True)
        assert all(type(k) is int for k in model._parts(values))


def test_parts_of_an_empty_vector():
    for empty in ((), []):
        assert list(model._parts(empty)) == [] and model._parts(empty, True) == ([], [])
        assert integers(empty) == ([], 1) and model._numbers_out(empty) == []
        assert nonnegative(empty, "v") is empty


#: a bad entry, put third in a row of Fractions, and the end of every reader's refusal
BAD_AMONG_FRACTIONS = {
    "None": (None, ": expected a number, got None"),
    "empty-string": ("", ": cannot read '' as a rational"),
    "negative-float": (-0.5, " = -1/2 is negative"),
    "negative-Fraction": (F(-1, 2), " = -1/2 is negative"),
    "negative-int": (-3, " = -3 is negative"),
}
#: each reader of such a row, called on it, and the name its refusal gives the row
READERS_OF_A_ROW = {
    "from_data-A": (lambda row: CpipInstance.from_data([row], [1], [1] * 4, [None] * 4), "A[0]"),
    "from_data-a": (lambda row: CpipInstance.from_data([[1] * 4] * 4, row, [1] * 4, [None] * 4),
                    "a"),
    "vector": (lambda row: nonnegative(as_vector(row, "v"), "v"), "v"),
    "width-A": (lambda row: width([row], [F(1)]), "A[0]"),
    "width-a": (lambda row: width([[F(1)] * 4] * 4, row), "a"),
    "bicriteria_round": (lambda row: bicriteria_round([1] * 4, [row], [F(1)], [1] * 4, None, 1),
                         "A[0]"),
}


@pytest.mark.parametrize("read, name", READERS_OF_A_ROW.values(), ids=READERS_OF_A_ROW.keys())
@pytest.mark.parametrize("bad, refusal", BAD_AMONG_FRACTIONS.values(),
                         ids=BAD_AMONG_FRACTIONS.keys())
def test_a_bad_entry_among_fractions_refused_in_the_readers_words(bad, refusal, read, name):
    # the row is read through the Fractions' slots until the bad entry, then
    # as the readers always read it
    with pytest.raises(InstanceError, match=f"^{re.escape(name + '[2]' + refusal)}$"):
        read([F(1, 2), F(1), bad, F(3, 4)])


@pytest.mark.parametrize("read, _", READERS_OF_A_ROW.values(), ids=READERS_OF_A_ROW.keys())
@pytest.mark.parametrize("entry", [3, 0.5, Half(5, 2)])
def test_an_int_float_or_subclass_among_fractions_reads_as_its_value(entry, read, _):
    assert read([F(1, 2), F(1), entry, F(3, 4)]) == read([F(1, 2), F(1), F(entry), F(3, 4)])


class TestNormalize:
    def test_truncates_large_coefficients(self):
        inst = make_inst(A=[[5, "1/2"]], a=[2], c=[1, 1], d=[None, None])
        out = normalize_width(inst)
        assert out.A == ((F(2), F(1, 2)),)
        assert out.a == (F(2),)

    def test_zero_demand_row_removed(self):
        inst = make_inst(A=[[1, 1], [1, 0]], a=[0, 1], c=[1, 1], d=[None, None])
        out = normalize_width(inst)
        assert out.m == inst.m - 1
        assert out.a == (F(1),)

    def test_floors_finite_bounds_keeps_unbounded(self):
        inst = make_inst(A=[[1, 1, 1]], a=[1], c=[1, 1, 1], d=["3/2", None, "7/3"])
        out = normalize_width(inst)
        assert out.d == (F(1), None, F(2))
        assert is_width_normalized(out)

    def test_fractional_bound_not_normalized(self):
        inst = make_inst(A=[[1, 1]], a=[1], c=[1, 1], d=["1/2", 1])
        assert not is_width_normalized(inst)
        assert is_width_normalized(make_inst(A=[[1, 1]], a=[1], c=[1, 1], d=[0, 1]))

    def test_idempotent_on_normalized(self):
        inst = normalize_width(parse_instance(GAP_DOC))
        assert normalize_width(inst) == inst

    def test_integer_solutions_preserved(self):
        # exhaustive check on small random instances: Ax >= a before iff after
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(1, 4)
            m = rng.randint(1, 3)
            A = [[rng.randint(0, 6) for _ in range(n)] for _ in range(m)]
            a = [rng.randint(0, 5) for _ in range(m)]
            d = [rng.randint(0, 3) for _ in range(n)]
            inst = make_inst(A=A, a=a, c=[1] * n, d=d)
            out = normalize_width(inst)
            for x in itertools.product(*(range(dj + 1) for dj in d)):
                before = all(dot(inst.A[i], x) >= inst.a[i] for i in range(inst.m))
                after = all(dot(out.A[i], x) >= out.a[i] for i in range(out.m))
                assert before == after


class TestWidthNormalized:
    def test_entry_above_its_demand(self):
        assert is_width_normalized(make_inst(A=[["3/2", 1]], a=["3/2"], c=[1, 1], d=[1, 1]))
        assert not is_width_normalized(make_inst(A=[["8/5", 1]], a=["3/2"], c=[1, 1], d=[1, 1]))

    def test_zero_demand_row(self):
        assert not is_width_normalized(make_inst(A=[[0, 0]], a=[0], c=[1, 1], d=[1, 1]))

    def test_fractional_bound(self):
        assert not is_width_normalized(make_inst(A=[[1, 1]], a=[1], c=[1, 1], d=[1, "5/2"]))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_equals_fraction_reference(self, data):
        n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        number = st.fractions(min_value=0, max_value=3, max_denominator=4)
        inst = make_inst(
            A=[[data.draw(number) for _ in range(n)] for _ in range(m)],
            a=[data.draw(number) for _ in range(m)],
            c=[1] * n,
            d=[data.draw(st.one_of(st.none(), number)) for _ in range(n)],
        )
        want = all(v is None or v.denominator == 1 for v in inst.d) and all(
            ai > 0 and max(row) <= ai for row, ai in zip(inst.A, inst.a)
        )
        assert is_width_normalized(inst) == want


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=-9, max_value=9, max_denominator=12),
            st.one_of(st.integers(-5, 5), st.booleans(), st.fractions(max_denominator=7)),
        ),
        max_size=8,
    )
)
def test_dot_and_integers_are_the_fraction_sums(pairs):
    # both run on ints over common denominators; the values are the rationals'
    u, v = [p for p, _ in pairs], [q for _, q in pairs]
    got = dot(u, v)
    assert type(got) is F and got == sum((p * q for p, q in pairs), F(0))
    ints, D = integers(v)
    assert [F(k, D) for k in ints] == v and all(type(k) is int for k in ints)


class TestIntRows:
    def test_covering_then_packing_rows_over_their_denominators(self):
        inst = make_inst(A=[["1/2", "2/3"]], a=[1], c=[1, 1], d=[None, 1], B=[[2, "1/4"]], b=[3])
        assert inst.int_rows == (((3, 4, 6), 6), ((8, 1, 12), 4))

    def test_cache_changes_no_value(self):
        doc = '{"A": [["1/2", 1]], "a": [1], "B": [[1, "1/3"]], "b": [2], "c": [1, 1]}'
        cached, fresh = parse_instance(doc), parse_instance(doc)
        assert cached.int_rows is cached.int_rows  # computed once
        assert cached == fresh and hash(cached) == hash(fresh)
        assert serialize_instance(cached) == serialize_instance(fresh)
        assert report_dict(cached) == report_dict(fresh)
        assert "int_rows" not in report_dict(cached)


# -- the per-entry readers and writers, as they were before the C-level passes --
# They read each entry by its own call; the package's readers must give the
# same instances, documents, exceptions and messages.


def reference_as_fraction(value, where="value"):
    if isinstance(value, bool) or value is None:
        raise InstanceError(f"{where}: expected a number, got {value!r}")
    if isinstance(value, F):
        return value
    if isinstance(value, int):
        return F(value)
    if isinstance(value, (str, float)):
        try:
            return model._rational(value)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise InstanceError(f"{where}: cannot read {value!r} as a rational") from exc
    raise InstanceError(f"{where}: unsupported number type {type(value).__name__}")


def reference_as_vector(values, name, n=None):
    out = []
    for v in as_sequence(values, name, n):
        try:
            out.append(v if type(v) is F else reference_as_fraction(v))
        except InstanceError:
            reference_as_fraction(v, f"{name}[{len(out)}]")
    return tuple(out)


def reference_from_data(A, a, c, d, B=(), b=()):
    cf = nonnegative(reference_as_vector(c, "c"), "c")
    n = len(cf)
    if n == 0:
        raise InstanceError("instance has no variables")

    def rows(M, name):
        return tuple(
            nonnegative(reference_as_vector(row, f"{name}[{i}]", n), f"{name}[{i}]")
            for i, row in enumerate(as_sequence(M, name))
        )

    Af, Bf = rows(A, "A"), rows(B, "B")
    af = nonnegative(reference_as_vector(a, "a", len(Af)), "a")
    bf = nonnegative(reference_as_vector(b, "b", len(Bf)), "b")
    finite = [ZERO if v is None else v for v in as_sequence(d, "d", n)]
    read = nonnegative(reference_as_vector(finite, "d"), "d")
    df = tuple(None if v is None else u for v, u in zip(d, read))
    return CpipInstance(A=Af, a=af, B=Bf, b=bf, c=cf, d=df)


def reference_parse(doc):
    raw = model._load_json(doc)
    try:
        if "d" not in raw:
            raw["d"] = [None] * len(as_sequence(raw["c"], "c"))
        inst = reference_from_data(**raw)
    except InstanceError as exc:
        raise ParseError(str(exc)) from exc
    if inst.m == 0:
        raise ParseError("field A must contain at least one covering row")
    return inst


def reference_normalize(inst):
    keep = [i for i in range(inst.m) if inst.a[i] > 0]
    A = tuple(tuple(min(inst.A[i][j], inst.a[i]) for j in range(inst.n)) for i in keep)
    a = tuple(inst.a[i] for i in keep)
    d = tuple(None if v is None else F(math.floor(v)) for v in inst.d)
    return CpipInstance(A=A, a=a, B=inst.B, b=inst.b, c=inst.c, d=d)


def reference_serialize(inst):
    def out(v):
        if not isinstance(v, F):
            return v
        return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"

    obj = {
        "A": [[out(v) for v in row] for row in inst.A],
        "a": [out(v) for v in inst.a],
        "c": [out(v) for v in inst.c],
        "d": [out(v) for v in inst.d],
    }
    if inst.r > 0:
        obj["B"] = [[out(v) for v in row] for row in inst.B]
        obj["b"] = [out(v) for v in inst.b]
    return json.dumps(obj)


def outcome(fn, *args, **kwargs):
    """``fn``'s result, or the class and message of the package error it raised."""
    try:
        return fn(*args, **kwargs)
    except CoverpackError as exc:
        return type(exc), str(exc)


def entries_are_fractions(inst):
    vectors = (*inst.A, *inst.B, inst.a, inst.b, inst.c, [v for v in inst.d if v is not None])
    return all(type(v) is F for vector in vectors for v in vector)


def as_document(data):
    """The JSON document of raw instance data, a Fraction entry written as "p/q"."""
    return json.dumps(data, default=lambda v: f"{v.numerator}/{v.denominator}")


def assert_readers_equal_the_reference(data):
    """Every reader and writer of ``data`` against its per-entry reference."""
    for name, vector in (("c", data["c"]), *(("A", row) for row in data["A"])):
        assert outcome(as_vector, vector, name) == outcome(reference_as_vector, vector, name)
    inst = outcome(CpipInstance.from_data, **data)
    assert inst == outcome(reference_from_data, **data)
    assert outcome(parse_instance, as_document(data)) == outcome(reference_parse, as_document(data))
    if not isinstance(inst, CpipInstance):
        return
    assert entries_are_fractions(inst)
    out = normalize_width(inst)
    assert out == reference_normalize(inst) and entries_are_fractions(out)
    # the int rows handed over are the ones a fresh instance computes
    assert out.int_rows == replace(out).int_rows
    kept = iter(out.A)
    for row, ai in zip(inst.A, inst.a):
        if ai > 0:
            new = next(kept)
            assert (new is row) == (max(row) <= ai)  # a row already normalized is not copied
    for each in (inst, out):
        doc = serialize_instance(each)
        assert doc == reference_serialize(each)
        assert outcome(parse_instance, doc) == outcome(reference_parse, doc)
        assert each.m == 0 or parse_instance(doc) == each


#: ints, the shared Fractions' range and just past it, negative, and above 2**64
INT_ENTRIES = st.one_of(
    st.integers(0, 3), st.integers(250, 260), st.integers(-3, -1), st.integers(2**64, 2**66)
)
ENTRIES = st.one_of(
    INT_ENTRIES,
    st.booleans(),
    st.none(),
    st.fractions(min_value=0, max_value=5, max_denominator=6),
    st.fractions(min_value=-2, max_value=0, max_denominator=3),
    st.floats(min_value=0, max_value=5, width=16),
    st.sampled_from([float("nan"), float("inf"), -0.5]),
    st.sampled_from(["1/2", "7", "2.5", "1e2", "-1/3", "1/0", "x", ""]),
)


@st.composite
def raw_data(draw):
    """Instance data whose rows are all ints, all Fractions, all small ints or mixed."""
    n, m, r = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(0, 2))

    def vector(k):
        kind = draw(st.sampled_from(["small", "ints", "fractions", "mixed"]))
        entry = {
            "small": st.integers(0, 6),
            "ints": INT_ENTRIES,
            "fractions": st.fractions(min_value=0, max_value=6, max_denominator=4),
            "mixed": ENTRIES,
        }[kind]
        values = [draw(entry) for _ in range(k)]
        return tuple(values) if kind == "fractions" and draw(st.booleans()) else values

    bounds = st.one_of(st.none(), st.integers(0, 3), st.fractions(0, 3, max_denominator=2))
    return dict(
        A=[vector(n) for _ in range(m)],
        a=vector(m),
        c=vector(n),
        d=[draw(bounds) for _ in range(n)],
        B=[vector(n) for _ in range(r)],
        b=vector(r),
    )


class TestReadersEqualThePerEntryReference:
    """The readers and writers take C-level passes; every outcome is the per-entry code's."""

    @pytest.mark.parametrize(
        "A, a",
        [
            ([[1, True]], [1]),  # a bool is not an int
            ([[1, -1]], [1]),  # a negative int
            ([[255, 256]], [300]),  # the last shared Fraction and the first past it
            ([[2**64, 0]], [1]),
            ([[3, 1], [1, 1]], [2, 1]),  # one row truncated, one kept
            ([["1/2", 1]], ["1/3"]),  # a truncated row over a smaller denominator
            ([[F(3, 2), F(1)]], [F(3, 2)]),  # a row of Fractions, kept
            ([[5, 5]], [0]),  # a row with no demand goes
        ],
    )
    def test_fixed_cases(self, A, a):
        n = len(A[0])
        assert_readers_equal_the_reference(dict(A=A, a=a, c=[1] * n, d=[None] * n, B=[], b=[]))

    @settings(max_examples=300, deadline=None)
    @given(raw_data())
    def test_equal_on_generated_data(self, data):
        assert_readers_equal_the_reference(data)


@st.composite
def small_instances(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    A = [[draw(st.integers(0, 5)) for _ in range(n)] for _ in range(m)]
    a = [draw(st.integers(0, 4)) for _ in range(m)]
    return make_inst(A=A, a=a, c=[1] * n, d=[None] * n)


@settings(max_examples=60, deadline=None)
@given(small_instances())
def test_normalize_idempotent_property(inst):
    once = normalize_width(inst)
    assert normalize_width(once) == once
    assert is_width_normalized(once)


class TestMetrics:
    def test_width_definition(self):
        inst = make_inst(A=[[2, 3]], a=[3], c=[1, 1], d=[None, None])
        assert width(inst.A, inst.a) == 1  # min(3/2, 3/3)

    def test_zero_demand_rows_do_not_count(self):
        # a vacuous row would otherwise force the width to 0
        inst = make_inst(A=[[2, 3], [1, 0]], a=[3, 0], c=[1, 1], d=[None, None])
        assert width(inst.A, inst.a) == 1

    def test_all_zero_matrix_rejected(self):
        inst = make_inst(A=[[0, 0]], a=[1], c=[1, 1], d=[None, None])
        with pytest.raises(InstanceError, match="no covering structure"):
            width(inst.A, inst.a)

    def test_normalized_width_at_least_one(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(1, 5)
            m = rng.randint(1, 4)
            A = [[rng.randint(0, 9) for _ in range(n)] for _ in range(m)]
            for row in A:
                if not any(row):
                    row[rng.randrange(n)] = 1
            a = [rng.randint(1, 12) for _ in range(m)]
            inst = normalize_width(make_inst(A=A, a=a, c=[1] * n, d=[None] * n))
            assert width(inst.A, inst.a) >= 1

    def test_beta_row_sums(self):
        inst = make_inst(
            A=[[1]], a=[1], c=[1], d=[None], B=[[3], ["1/2"]], b=[5, 5]
        )
        assert inst.beta() == (F(3), F(1, 2))


class TestStructure:
    """The package's module rules, read from its source with ``ast``."""

    SRC = Path(__file__).resolve().parents[1] / "src" / "coverpack"

    @classmethod
    def trees(cls):
        return {path.name: ast.parse(path.read_text()) for path in sorted(cls.SRC.glob("*.py"))}

    @staticmethod
    def package_imports(tree) -> set[str]:
        """``coverpack`` modules imported anywhere under ``tree``."""
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update(a.name for a in node.names if a.name.split(".")[0] == "coverpack")
            elif isinstance(node, ast.ImportFrom):
                module = "coverpack" if node.level else node.module
                if module == "coverpack":  # from coverpack import kc
                    found.update(f"coverpack.{a.name}" for a in node.names)
                elif module.startswith("coverpack."):
                    found.add(module)
        return found

    def test_oracle_imports_only_model(self):
        assert self.package_imports(self.trees()["oracle.py"]) == {"coverpack.model"}

    def test_no_package_import_inside_a_function(self):
        inner = [
            (name, fn.name, sorted(self.package_imports(fn)))
            for name, tree in self.trees().items()
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and self.package_imports(fn)
        ]
        assert inner == []

    def test_lp_solved_and_certified_in_one_place(self):
        # outside simplex.py, solve_lp and verify_certificate are called only
        # by rounding.solve_relaxation, which every LP relaxation goes through;
        # inside it, only _guided checks a certificate, the one of its own
        # answer, which solve_relaxation then leaves unchecked
        # (test_rounding.py::test_each_relaxation_certificate_checked_once)
        calls = set()
        for name, tree in self.trees().items():
            for fn in ast.walk(tree):
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for node in ast.walk(fn):
                        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
                            "solve_lp", "verify_certificate"
                        ):
                            calls.add((name, fn.name, node.func.id))
        assert {c for c in calls if c[0] != "simplex.py"} == {
            ("rounding.py", "solve_relaxation", "solve_lp"),
            ("rounding.py", "solve_relaxation", "verify_certificate"),
        }
        assert {c for c in calls if c[0] == "simplex.py"} == {
            ("simplex.py", "_guided", "verify_certificate"),
        }

    #: the parameter names of every public callable but the failure classes
    PUBLIC_PARAMETERS = {
        "CpipInstance": ("A", "a", "B", "b", "c", "d"),
        "CutLoop": ("x", "system", "round_objectives", "cut_rows_added", "pin_sets_seen"),
        "FractionalVector": ("values",),
        "GeneratorSpec": ("family", "m", "n", "r", "density", "d_max", "seed", "delta"),
        "IntegerVector": ("values",),
        "KcSystem": ("F", "rows"),
        "LpProblem": ("objective", "rows", "var_bounds", "int_rows"),
        "LpSolution": (
            "status", "iterations", "primal", "objective_value", "dual_rows", "dual_bounds",
            "ray_rows", "ray_bounds", "guided",
        ),
        "SolveReport": (
            "mode", "cost", "fopt", "fopt_kc", "opt", "ratio_cost_fopt", "epsilon", "K", "L",
            "seed", "rng", "x", "violations", "guarantees_ok", "pinned", "pin_sets_seen",
            "cut_rows_added", "lp_rounds", "oracle_bounds", "oracle_space", "status", "elapsed_s",
        ),
        "bicriteria_round": ("xbar", "A", "a", "c", "d", "epsilon", "info_out"),
        "brute_force_opt": ("inst", "max_points"),
        "check_solution": ("inst", "x", "epsilon"),
        "compute_scale_factor": ("m", "W"),
        "derandomized_round": ("xbar", "A", "a", "c", "L", "trace_out"),
        "find_violated_kc": ("inst", "x", "epsilon"),
        "gen_random_cpip": ("m", "n", "r", "seed", "d_max", "density"),
        "gen_set_cover": ("num_elements", "num_sets", "density", "seed"),
        "granular_round": ("xbar", "A", "a", "c", "K"),
        "kc_system": ("inst", "F"),
        "knapsack_gap": ("delta",),
        "lp_from_instance": ("inst", "cut_rows"),
        "normalize_width": ("inst",),
        "parse_instance": ("doc",),
        "randomized_round": ("xbar", "L", "seed"),
        "run_bench": ("specs", "epsilons", "include_timing"),
        "serialize_instance": ("inst",),
        "solve_cip_strict": ("inst", "epsilon"),
        "solve_cpip_bicriteria": ("inst", "epsilon"),
        "solve_lp": ("p",),
        "solve_lp_kc": ("inst", "epsilon"),
        "verify_certificate": ("p", "s"),
        "width": ("A", "a"),
    }

    def test_public_parameters_pinned(self):
        # the knob inventory: a new parameter of a public callable is an edit
        # here; the failure classes take only a message
        got = {
            name: tuple(inspect.signature(obj).parameters)
            for name, obj in ((name, getattr(coverpack, name)) for name in coverpack.__all__)
            if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception))
        }
        assert got == self.PUBLIC_PARAMETERS

    def test_no_bare_assert(self):
        # python -O strips assert; every check must raise in every mode
        asserts = [
            (name, node.lineno)
            for name, tree in self.trees().items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
        assert asserts == []
