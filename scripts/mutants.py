"""Mutation check of the guarantee checks: every listed mutant must fail its tests.

Each mutant changes one line of ``src/coverpack``: it deletes, narrows or
loosens a check that raises ``GuaranteeError``, breaks the knapsack-cover
rows that the test suite's audit must reject, breaks ``check_solution``
(which every guarantee check leans on) or ``verify_certificate`` (which
certifies every LP result), lets a bad argument through a reader of
``model`` (the nonnegativity check, the sequence reader, ``IntegerVector``'s
entry check, the vector reader's int path, which must refuse a bool and
check signs as the per-entry reference readers do) or of the rounding layer (a scale factor L below 1, a point
beyond the estimator's float range, ragged rows of A to ``width``, a negative
entry of A to the scan), or lets a document's field error out as
a bare ``InstanceError``, or lets ``run_bench`` take a spec that is not a
``GeneratorSpec``, or makes its text table drop a field of the rows or its
aggregates count a failed row, or makes the CLI's report builder check violations at
a fixed epsilon or ``check --mode strict`` read the bicriteria verdict,
or breaks a fast path: ``normalize_width``'s integer
row test, the integer test of ``kc.high_set``, the rounding layer's scan of A (its integer rows, its width over every column and the
support of xbar it keeps), the slot reads of a vector of ``Fraction``s
(``model._parts``' list displays, which the scan, ``integers`` and ``nonnegative`` share: a
numerator read from the denominator's slot, a dropped sign or dropped
denominators), the estimator's kept trace terms, the surplus trim (tied
costs taken by descending index, a first pass that keeps a unit its rows
can spare),
``check_solution``'s integer multiplicity test, the oracle's cost
bound and value skip, which must leave its answer as it is, the guided
simplex, which must not keep a basis that fails its certificate or whose
point has a negative coordinate, the bounded dual simplex's flip rule,
which both arithmetics share (a flip
moves the basic values, a breakpoint whose flip would meet the row is not
passed, nor one without a bound, and a flipped variable enters from its
bound), or the exact run's own parts: the bound part of its duals and of
a Farkas ray, and the scaling of every value by the lcm of the bounds'
denominators.  For each one the script copies ``src``, ``tests`` and
``pyproject.toml`` to a temporary directory, replaces the mutant's ``old``
text (which must occur exactly once) with ``new``, and runs ``pytest -x``
on the mutant's named tests there.  A mutant is killed when pytest reports a failing test (exit
1); a pass, or any other exit, is a survivor.  Before the mutants, the
unmutated copy must pass every named test.

Usage::

    python scripts/mutants.py            # every mutant
    python scripts/mutants.py NAME ...   # the named mutants only

Prints one line per mutant and exits 1 if any survived.  Stdlib only; the
tests need pytest and hypothesis.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KC = "src/coverpack/kc.py"
ROUNDING = "src/coverpack/rounding.py"
INJECTED = "tests/test_kc.py::TestInjectedFaults"
DERANDOMIZED = "tests/test_rounding.py::test_derandomization_check_catches_a_faulty_estimator"
GRANULAR = "tests/test_rounding.py::test_bicriteria_checks_catch_a_faulty_granular_core"
AUDIT = "tests/test_oracle.py::TestKcValidity"
COVER_ROWS = "tests/test_rounding.py::test_cover_rows_alike_in_every_form"
TRACE = "tests/test_rounding.py::test_trace_out_is_phi_recomputed_from_scratch"
RATIONAL_ROWS = "tests/test_rounding.py::test_rational_row_outputs_pinned"
TRIM = "tests/test_rounding.py::test_trim_surplus_equals_the_reference_loop"
ORACLE = "src/coverpack/oracle.py"
ORACLE_PARITY = [
    "tests/test_oracle.py::TestOracleParity::test_edge_cases_the_bound_must_not_prune",
    "tests/test_oracle.py::TestOracleParity::test_knapsack_gap_equals_fraction_reference",
    "tests/test_oracle.py::TestOracleParity::test_desk_sizes_equal_fraction_reference",
]
# the fixed cases first: with -x they fail before hypothesis starts to shrink
CHECK_PARITY = [
    "tests/test_oracle.py::TestCheckSolutionParity::test_shortfall_of_the_least_unit_is_reported",
    "tests/test_oracle.py::TestCheckSolutionParity::"
    "test_violated_rows_of_every_family_reported_exactly",
    "tests/test_oracle.py::TestCheckSolutionParity::test_equals_fraction_reference",
]

CLI = "src/coverpack/cli.py"
CLI_REPORTS = "tests/test_cli.py::test_report_states_cost_and_violations_of_its_x"

SIMPLEX = "src/coverpack/simplex.py"
# the fixed cases first: with -x they fail before hypothesis starts to shrink
CERTIFICATE = [
    "tests/test_simplex.py::test_certificate_amounts_exact_over_mixed_denominators",
    "tests/test_simplex.py::test_certificate_check_equals_fraction_reference_on_fixed_cases",
    "tests/test_simplex.py::test_certificate_check_equals_fraction_reference",
]

# the flip rule both runs share: the hand-built flips first, then the pinned path and parity
FLIPS = [
    "tests/test_simplex.py::test_ratio_test_flips_a_bounded_breakpoint",
    "tests/test_simplex.py::test_ratio_test_stops_where_a_flip_would_meet_the_row",
    "tests/test_simplex.py::test_flipped_variable_enters_from_its_bound",
    "tests/test_simplex.py::test_float_pivot_path_pinned",
    "tests/test_simplex.py::test_guided_equals_cold_on_every_cut_loop_lp",
    "tests/test_simplex.py::test_guided_equals_cold_on_boxed_lps",
]

# the exact run's Farkas ray: the hand-built rays first, then infeasible boxes
RAY = [
    "tests/test_simplex.py::test_farkas_ray_pinned",
    "tests/test_simplex.py::test_ray_of_a_row_above_its_bound",
    "tests/test_simplex.py::test_ratio_test_passes_every_breakpoint_of_an_infeasible_row",
    "tests/test_simplex.py::test_infeasible_box_gives_a_certified_ray",
]

# rational bounds: the hand-built case first, then boxed LPs against the float run
SCALE = [
    "tests/test_simplex.py::test_rational_bounds_scale_every_value",
    "tests/test_simplex.py::test_guided_equals_cold_on_boxed_lps",
]

MODEL = "src/coverpack/model.py"
EVERY_ARGUMENT = "tests/test_model.py::test_every_argument_refused_in_its_readers_words"
CANDIDATES = "tests/test_model.py::test_candidate_vectors_are_sequences_of_nonnegative_entries"
# the fixed cases first: with -x they fail before hypothesis starts to shrink
READERS = [
    "tests/test_model.py::TestReadersEqualThePerEntryReference::test_fixed_cases",
    "tests/test_model.py::TestReadersEqualThePerEntryReference::test_equal_on_generated_data",
]

FRACTION_ROWS = "tests/test_rounding.py::test_cover_rows_of_fractions_equal_the_rows_as_ints"
PARTS = "tests/test_model.py::test_parts_and_its_readers_equal_the_property_reference"
BAD_AMONG_FRACTIONS = [
    "tests/test_model.py::test_a_bad_entry_among_fractions_refused_in_the_readers_words"
    f"[negative-Fraction-{reader}]"
    for reader in ("from_data-A", "vector", "width-A", "bicriteria_round")
]

#: name -> (file, old, new, the tests that must fail)
MUTANTS = {
    "cut-round-value-may-fall-by-1": (
        KC,
        "if objectives and sol.objective_value < objectives[-1]:",
        "if objectives and sol.objective_value < objectives[-1] - 1:",
        [INJECTED],
    ),
    "pinned-cost-bound-1+2eps": (
        KC,
        "if pinned_cost > (1 + eps) * relaxed_cost:",
        "if pinned_cost > (1 + 2 * eps) * relaxed_cost:",
        [INJECTED],
    ),
    "strict-cost-bound-8K": (
        KC,
        "if cost > (1 + eps + 4 * K) * relaxed_cost:",
        "if cost > (1 + eps + 8 * K) * relaxed_cost:",
        [INJECTED],
    ),
    "strict-check-reads-bicriteria": (
        KC,
        "if not violations.ok_strict:",
        "if not violations.ok_bicriteria:",
        [INJECTED],
    ),
    "high-set-leaves-out-the-threshold": (
        KC,
        "if u is not None and v * p * u.denominator >= u.numerator * q",
        "if u is not None and v * p * u.denominator > u.numerator * q",
        [
            "tests/test_kc.py::TestHighSet::test_threshold",
            "tests/test_kc.py::TestHighSet::test_equals_fraction_reference",
        ],
    ),
    "derandomized-cost-bound-3L": (
        ROUNDING,
        "> 2 * L.numerator * _cost(costs, X)",
        "> 3 * L.numerator * _cost(costs, X)",
        [DERANDOMIZED],
    ),
    "derandomized-coverage-unchecked": (
        ROUNDING,
        "if over_cost or min(slack) < 0:",
        "if over_cost:",
        [DERANDOMIZED],
    ),
    "bicriteria-ceiling-plus-1": (
        ROUNDING,
        "if any(xhat[j] > -(-top * X[j] // bottom) for j in range(len(xhat))):",
        "if any(xhat[j] > -(-top * X[j] // bottom) + 1 for j in range(len(xhat))):",
        [GRANULAR],
    ),
    "bicriteria-cost-bound-8K": (
        ROUNDING,
        "if _cost(costs, xhat) * D > 4 * K * _cost(costs, X):",
        "if _cost(costs, xhat) * D > 8 * K * _cost(costs, X):",
        [GRANULAR],
    ),
    "bicriteria-coverage-short-by-1": (
        ROUNDING,
        "if min(rows.slack(xhat)) < 0:",
        "if min(rows.slack(xhat)) < -1:",
        [GRANULAR],
    ),
    "lp-certificate-one-violation-passes": (
        ROUNDING,
        "    if failed:",
        "    if len(failed) > 1:",
        ["tests/test_kc.py::TestSolveCipStrict::test_fractional_bound_fopt_certified"],
    ),
    "bicriteria-check-reads-packing-only": (
        ROUNDING,
        "if not violations.ok_bicriteria:",
        "if violations.packing_relaxed:",
        [
            "tests/test_rounding.py::TestSolveCpipBicriteria::"
            "test_failed_final_check_is_a_guarantee_fault"
        ],
    ),
    "kc-rows-untruncated": (
        KC,
        "min(v, demand) if f else 0",
        "v if f else 0",
        [AUDIT],
    ),
    "kc-demand-ignores-pins": (
        KC,
        "demand = max(0, S[n] - sum(S[j] * dj for j, dj in pins))",
        "demand = S[n]",
        [AUDIT],
    ),
    "derandomized-takes-L-below-1": (
        ROUNDING,
        "_derandomize(xbar, costs, c_den, rows, _read_scale(L), trace_out)",
        '_derandomize(xbar, costs, c_den, rows, as_fraction(L, "L"), trace_out)',
        [
            f"tests/test_model.py::test_solver_argument_out_of_range[derandomized_round(L={L})]"
            for L in (0, -1)
        ],
    ),
    "estimator-overflow-escapes": (
        ROUNDING,
        "except OverflowError as exc:  # ln L, the width or a scaled coordinate",
        "except () as exc:",
        ["tests/test_model.py::test_estimator_float_range_is_a_limit"],
    ),
    "trace-term-not-refreshed": (
        ROUNDING,
        "terms[k] = math.exp(60.0 if e > 60.0 else e)",
        "pass",
        [TRACE],
    ),
    "scan-takes-numerators-under-an-integer-demand": (
        MODEL,
        "return (nums if D == 1 else",
        "return (nums if D == 1 or dens[-1] == 1 else",  # the scan puts the demand last
        [COVER_ROWS],
    ),
    "width-over-the-kept-columns-only": (
        ROUNDING,
        "            peak = max(entries or (0,))  # faster than default=0\n"
        "            if keep is not None:\n"
        "                kept = list(map(keep.__getitem__, support))\n"
        "                support = list(itertools.compress(support, kept))\n"
        "                entries = list(itertools.compress(entries, kept))\n",
        "            if keep is not None:\n"
        "                kept = list(map(keep.__getitem__, support))\n"
        "                support = list(itertools.compress(support, kept))\n"
        "                entries = list(itertools.compress(entries, kept))\n"
        "            peak = max(entries or (0,))  # faster than default=0\n",
        ["tests/test_rounding.py::test_an_entry_of_a_zero_column_sets_the_width", COVER_ROWS],
    ),
    "width-skips-the-shape-check": (
        ROUNDING,
        'as_sequence(a, "a", len(as_shape(A, "A", columns)))',
        'as_sequence(a, "a", len(A))',
        ["tests/test_rounding.py::test_width_refuses_what_the_roundings_refuse[ragged-rows]"],
    ),
    "cover-rows-take-a-negative-entry": (
        ROUNDING,
        "if entries and min(entries) < 0:  # a scaled entry keeps its sign",
        "if False:",
        ["tests/test_rounding.py::test_negative_entries_refused"],
    ),
    "support-drops-the-last-coordinate": (
        ROUNDING,
        "rows = CoverRows(A, a, X)",
        "rows = CoverRows(A, a, X[:-1] + [0])",
        [RATIONAL_ROWS, "tests/test_rounding.py::test_a_zero_column_changes_no_rounding"],
    ),
    "trim-ties-go-by-descending-index": (
        ROUNDING,
        "for j in sorted(support, key=costs.__getitem__, reverse=True):",
        "for j in sorted(reversed(support), key=costs.__getitem__, reverse=True):",
        [TRIM],
    ),
    "trim-first-pass-keeps-a-unit-a-row-can-spare": (
        ROUNDING,
        "if slack[k] < aij:",
        "if slack[k] <= aij:",
        [TRIM],
    ),
    "oracle-bound-deficit-doubled": (
        ORACLE,
        "map(mul, map(sub, need, cover), C)",
        "map(mul, map(sub, need, cover), map(add, C, C))",
        ORACLE_PARITY,
    ),
    "oracle-skip-one-value-too-high": (
        ORACLE,
        "low = max(0, -min(map(floordiv, slack, divisors[k]), default=0))",
        "low = max(0, 1 - min(map(floordiv, slack, divisors[k]), default=0))",
        ORACLE_PARITY,
    ),
    "check-shortfall-of-one-unit-passes": (
        ORACLE,
        "if short > 0:",
        "if short > 1:",
        CHECK_PARITY,
    ),
    "check-multiplicity-at-its-bound-is-a-violation": (
        ORACLE,
        "if u is None or v * u.denominator <= u.numerator * Dx:",
        "if u is None or v * u.denominator < u.numerator * Dx:",
        CHECK_PARITY,
    ),
    "check-packing-slack-subtracts-eps": (
        ORACLE,
        "((q + p) * S[n] + q * sum(S[:n]))",
        "((q - p) * S[n] + q * sum(S[:n]))",
        CHECK_PARITY,
    ),
    "check-packing-slack-without-beta": (
        ORACLE,
        "((q + p) * S[n] + q * sum(S[:n]))",
        "((q + p) * S[n])",
        CHECK_PARITY,
    ),
    "certificate-le-row-gap-sign-flipped": (
        SIMPLEX,
        "gap = lhs - A[n] * Dx if row.sense == GE else A[n] * Dx - lhs",
        "gap = lhs - A[n] * Dx if row.sense == GE else lhs - A[n] * Dx",
        CERTIFICATE,
    ),
    "certificate-le-row-dual-sign-flipped": (
        SIMPLEX,
        "if (y < 0) if row.sense == GE else (y > 0):",
        "if (y < 0) if row.sense == GE else (y < 0):",
        CERTIFICATE,
    ),
    "certificate-dual-excess-of-1-passes": (
        SIMPLEX,
        "if over > 0:",
        "if over > 1:",
        CERTIFICATE,
    ),
    "certificate-gap-checked-one-way": (
        SIMPLEX,
        "if primal_value != value:",
        "if primal_value > value:",
        CERTIFICATE,
    ),
    "certificate-zero-farkas-value-passes": (
        SIMPLEX,
        "elif value <= 0:",
        "elif value < 0:",
        CERTIFICATE,
    ),
    "guided-keeps-a-basis-that-fails-its-certificate": (
        SIMPLEX,
        "return None if verify_certificate(p, s) else s",
        "return s",
        ["tests/test_simplex.py::test_wrong_float_basis_falls_back_to_exact"],
    ),
    "guided-keeps-a-negative-point": (
        SIMPLEX,
        "if min(x, default=ZERO) < 0:",
        "if False:",
        ["tests/test_simplex.py::test_negative_point_falls_back_to_exact"],
    ),
    "flip-moves-no-basic-value": (
        SIMPLEX,
        "row[-1] -= row[q] * u",
        "row[-1] -= 0 * row[q] * u",
        FLIPS,
    ),
    "ratio-test-passes-the-breakpoint-that-meets-the-row": (
        SIMPLEX,
        "if u is None or slope - a * u <= tie:",
        "if u is None or slope - a * u < -tie:",
        FLIPS,
    ),
    "ratio-test-passes-an-unbounded-breakpoint": (
        SIMPLEX,
        "if u is None or slope - a * u <= tie:",
        "if u is not None and slope - a * u <= tie:",
        FLIPS,
    ),
    "variable-enters-from-its-bound-at-0": (
        SIMPLEX,
        "self.T[r][-1] += self.upper[enter] * p",
        "self.T[r][-1] += 0 * self.upper[enter] * p",
        FLIPS,
    ),
    "ray-and-duals-drop-their-bound-part": (
        SIMPLEX,
        "tuple(Fraction(v, den) if v < 0 else ZERO for v in w[:n])",
        "tuple(ZERO for v in w[:n])",
        RAY,
    ),
    "ray-keeps-the-basic-entry-of-a-row-above-its-bound": (
        SIMPLEX,
        "d if t.T[r][-1] < 0 else -d",
        "d",
        RAY,
    ),
    "values-not-scaled-by-the-bounds-lcm": (
        SIMPLEX,
        "new[-1] *= scale",
        "pass",
        SCALE,
    ),
    "point-read-unscaled": (
        SIMPLEX,
        "x[b] = Fraction(t.T[i][-1], t.den[i] * t.scale)",
        "x[b] = Fraction(t.T[i][-1], t.den[i])",
        SCALE,
    ),
    "nonnegative-skips-entry-0": (
        MODEL,
        "negative = min(_parts(values), default=0) < 0",
        "negative = min(_parts(values[1:]), default=0) < 0",
        ["tests/test_model.py::TestParse::test_from_data_refuses"],
    ),
    "sequence-reader-takes-a-set": (
        MODEL,
        "isinstance(values, (str, dict, set, frozenset))",
        "isinstance(values, (str, dict))",
        [EVERY_ARGUMENT],
    ),
    "integer-vector-takes-a-negative-entry": (
        MODEL,
        'as_int(v, f"x[{j}]", 0)',
        'as_int(v, f"x[{j}]")',
        [CANDIDATES],
    ),
    "integer-vector-fast-path-takes-a-bool": (
        MODEL,
        "if {type(v) for v in values} - {int} or",
        "if {type(v) for v in values} - {int, bool} or",
        [CANDIDATES],
    ),
    "document-field-error-not-a-parse-error": (
        MODEL,
        "inst = CpipInstance.from_data(**raw)\n    except InstanceError as exc:\n"
        "        raise ParseError(str(exc)) from exc",
        "inst = CpipInstance.from_data(**raw)\n    except InstanceError as exc:\n        raise",
        ["tests/test_model.py::TestParse::test_field_of_wrong_type_rejected"],
    ),
    "vector-int-path-takes-a-bool": (
        MODEL,
        "if kinds == {int} and min(values) >= 0",
        "if kinds <= {int, bool} and min(values) >= 0",
        READERS,
    ),
    "vector-int-path-skips-its-sign-check": (
        MODEL,
        "if kinds == {int} and min(values) >= 0 and max(values) < len(_SMALL):",
        "if kinds == {int} and max(values) < len(_SMALL):",
        READERS,
    ),
    "normalize-keeps-an-entry-above-its-demand": (
        MODEL,
        "if max(S) > demand:",
        "if max(S) > 2 * demand:",
        ["tests/test_model.py::TestNormalize::test_truncates_large_coefficients", *READERS],
    ),
    "fraction-slots-read-the-denominator-as-the-numerator": (
        MODEL,
        "nums = [v._numerator for v in values]",
        "nums = [v._denominator for v in values]",  # the numerators' display reads the other slot
        [FRACTION_ROWS],
    ),
    "fraction-slots-drop-the-sign": (
        MODEL,
        "nums = [v._numerator for v in values]",
        "nums = [abs(v._numerator) for v in values]",
        [*BAD_AMONG_FRACTIONS, PARTS],
    ),
    "fraction-slots-drop-the-d-scaling": (
        MODEL,
        "return (nums, [v._denominator for v in values]) if denominators else nums",
        "return (nums, [1] * len(nums)) if denominators else nums",
        [PARTS],
    ),
    "run-bench-takes-any-spec": (
        "src/coverpack/genbench.py",
        "if not isinstance(spec, GeneratorSpec):",
        "if False:",
        ["tests/test_model.py::test_solver_argument_out_of_range"],
    ),
    "bench-text-drops-a-field": (
        "src/coverpack/genbench.py",
        "names = [f.name for f in fields(BenchRow)]",
        'names = [f.name for f in fields(BenchRow) if f.name != "max_pack_excess"]',
        ["tests/test_genbench.py::TestRunBench::test_text_carries_every_field_of_the_machine_rows"],
    ),
    "bench-aggregates-count-error-rows": (
        "src/coverpack/genbench.py",
        "done = [row for row in result.rows if not row.error]",
        "done = result.rows",
        ["tests/test_genbench.py::TestRunBench::test_a_failed_row_counts_in_no_aggregate"],
    ),
    "cli-report-checks-at-epsilon-1": (
        CLI,
        "violations=check_solution(inst, x, at)",
        "violations=check_solution(inst, x, 1)",
        [CLI_REPORTS],
    ),
    "cli-check-strict-reads-bicriteria": (
        CLI,
        'ok = getattr(report.violations, f"ok_{args.mode}")',
        'ok = getattr(report.violations, "ok_bicriteria")',
        ["tests/test_cli.py::TestOracleAndCheck::test_check_good_and_bad"],
    ),
}


def tree_copy(dest: Path) -> None:
    """The parts of the repository the tests read, without bytecode."""
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def pytest_exit(tree: Path, tests: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL).returncode


def main(argv: list[str]) -> int:
    unknown = [name for name in argv if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}; known: {', '.join(MUTANTS)}")
        return 2
    names = argv or list(MUTANTS)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        tree_copy(clean)
        named = sorted({t for name in names for t in MUTANTS[name][3]})
        if pytest_exit(clean, named) != 0:
            print("the unmutated tree fails the named tests; no mutant can be judged")
            return 1
        survivors = []
        for k, name in enumerate(names):
            file, old, new, tests = MUTANTS[name]
            tree = Path(tmp) / f"mutant-{k}"
            tree_copy(tree)
            path = tree / file
            text = path.read_text()
            if text.count(old) != 1:
                print(f"STALE    {name}: {old!r} occurs {text.count(old)} times in {file}")
                survivors.append(name)
                continue
            path.write_text(text.replace(old, new))
            t0 = time.perf_counter()
            code = pytest_exit(tree, tests)
            verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
            print(f"{verdict:8} {name} ({file}, {time.perf_counter() - t0:.1f} s)")
            if code != 1:
                survivors.append(name)
            shutil.rmtree(tree)
    print(f"{len(names) - len(survivors)} of {len(names)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
