import hashlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

import coverpack
from coverpack import kc, rounding
from coverpack.cli import (
    EXIT_FAULT, EXIT_INFEASIBLE, EXIT_LIMIT, EXIT_OK, EXIT_USAGE, build_parser, main,
)
from coverpack.model import (
    CoverpackError,
    GuaranteeError,
    InfeasibleError,
    InstanceError,
    LimitError,
    ParseError,
    dot,
    normalize_width,
    number_out,
    parse_instance,
    report_dict,
    serialize_instance,
)
from coverpack.oracle import check_solution
from coverpack.simplex import CertificateViolation


GAP = '{"A": [["99/100", 1]], "a": [1], "c": [0, 1], "d": [1, null]}'


def run(argv, stdin: str | None = None, monkeypatch=None, capsys=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def write_gap(tmp_path, text=GAP):
    path = tmp_path / "inst.json"
    path.write_text(text)
    return str(path)


class TestSolve:
    def test_strict_on_gap(self, tmp_path, capsys, monkeypatch):
        code, out, _ = run(
            ["solve", "--mode", "strict", "--epsilon", "1",
             write_gap(tmp_path), "--format", "machine"],
            capsys=capsys,
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["cost"] == 1
        assert rep["guarantees_ok"] is True

    def test_lp_mode_reports_delta(self, tmp_path, capsys, monkeypatch):
        code, out, _ = run(
            ["solve", "--mode", "lp", write_gap(tmp_path), "--format", "machine"],
            capsys=capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["fopt"] == "1/100"

    def test_gen_piped_to_lp_kc(self, capsys, monkeypatch):
        code, doc, _ = run(["gen", "--family", "knapsack-gap", "--delta", "1/10"], capsys=capsys)
        assert code == EXIT_OK
        code, out, _ = run(
            ["solve", "--mode", "lp-kc", "--epsilon", "1", "-", "--format", "machine"],
            stdin=doc,
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["fopt_kc"] == 1

    @pytest.mark.parametrize("epsilon", ["1/4", "1"])
    def test_lp_kc_reports_the_strict_cut_loop(self, epsilon, tmp_path, capsys):
        # lp-kc runs the cut loop that the strict solver runs at this epsilon
        _, doc, _ = run(
            ["gen", "--family", "multiset-multicover", "--m", "10", "--n", "15", "--seed", "1"],
            capsys=capsys,
        )
        path = write_gap(tmp_path, doc)
        keys = ("fopt_kc", "lp_rounds", "cut_rows_added", "pin_sets_seen")
        loops = []
        for mode in ("lp-kc", "strict"):
            argv = ["solve", "--mode", mode, "--epsilon", epsilon, "--format", "machine", path]
            code, out, _ = run(argv, capsys=capsys)
            assert code == EXIT_OK
            loops.append({k: json.loads(out)[k] for k in keys})
        assert loops[0] == loops[1]
        if epsilon == "1/4":
            assert (loops[0]["lp_rounds"], loops[0]["cut_rows_added"]) == (3, 3)
            assert loops[0]["fopt_kc"] == 83

    def test_bicriteria_mode(self, tmp_path, capsys, monkeypatch):
        code, out, _ = run(
            ["solve", "--mode", "bicriteria", write_gap(tmp_path), "--format", "machine"],
            capsys=capsys,
        )
        assert code == EXIT_OK

    def test_oracle_is_its_own_subcommand(self, tmp_path, capsys, monkeypatch):
        code, _, err = run(["solve", "--mode", "oracle", write_gap(tmp_path)], capsys=capsys)
        assert code == EXIT_USAGE
        assert "invalid choice: 'oracle'" in err

    @pytest.mark.parametrize("mode", ["bicriteria", "strict"])
    @pytest.mark.parametrize(
        "doc, cost",
        [
            ('{"A": [[1, 1]], "a": [1], "c": ["1e400", 1], "d": [1, 1]}', 1),
            # rounds the residual system in strict mode too
            ('{"A": [[1, 1], [1, 0]], "a": [1, "1/2"], "c": ["1e400", "3e400"], '
             '"d": [5, 5]}', 10**400),
        ],
        ids=["one-huge-cost", "all-huge-costs"],
    )
    def test_huge_exact_cost_solves(self, mode, doc, cost, tmp_path, capsys, monkeypatch):
        # costs beyond the float range reach the estimator only as ratios
        code, out, _ = run(
            ["solve", "--mode", mode, write_gap(tmp_path, doc), "--format", "machine"],
            capsys=capsys,
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["guarantees_ok"] is True
        assert Fraction(rep["cost"]) == cost

    def test_infeasible_exits_one(self, tmp_path, capsys, monkeypatch):
        doc = '{"A": [[1]], "a": [2], "c": [1], "d": [1]}'
        code, _, err = run(
            ["solve", "--mode", "lp", write_gap(tmp_path, doc)], capsys=capsys
        )
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in err

    @pytest.mark.parametrize(
        "argv", [["solve", "--mode", "strict"], ["oracle"]], ids=["strict", "oracle"]
    )
    def test_infeasible_strict_and_oracle_exit_one(self, argv, tmp_path, capsys):
        # the cut loop's first round proves it by a checked Farkas ray, the
        # oracle by searching its whole box
        doc = '{"A": [[1]], "a": [2], "c": [1], "d": [1]}'
        code, out, err = run([*argv, write_gap(tmp_path, doc)], capsys=capsys)
        assert (code, out) == (EXIT_INFEASIBLE, "")
        assert err.startswith("infeasible: ")

    def test_malformed_document_exits_two(self, tmp_path, capsys, monkeypatch):
        code, _, err = run(
            ["solve", write_gap(tmp_path, '{"A": [[1], "a"')], capsys=capsys
        )
        assert code == EXIT_USAGE
        assert "error" in err

    @pytest.mark.parametrize("word", ["Infinity", "NaN"])
    def test_non_finite_number_exits_two(self, word, tmp_path, capsys, monkeypatch):
        doc = '{"A": [[%s, 1]], "a": [1], "c": [1, 1]}' % word
        code, _, err = run(
            ["solve", "--mode", "lp", write_gap(tmp_path, doc)], capsys=capsys
        )
        assert code == EXIT_USAGE
        assert "as a rational" in err

    @pytest.mark.parametrize("number", ["1e5000", '"1e5000"'])
    def test_huge_exponent_exits_two(self, number, tmp_path, capsys, monkeypatch):
        doc = '{"A": [[1, 1]], "a": [%s], "c": [1, 1]}' % number
        code, out, err = run(["solve", write_gap(tmp_path, doc)], capsys=capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert "error:" in err

    def test_non_utf8_document_exits_two(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "inst.json"
        path.write_bytes(b'{"A": [[1]], "a": [1], "c": ["\xff"]}')
        code, _, err = run(["solve", str(path)], capsys=capsys)
        assert code == EXIT_USAGE
        assert "UTF-8" in err

    def test_unknown_flag_exits_two(self, capsys, monkeypatch):
        code, _, _ = run(["solve", "--no-such-flag"], capsys=capsys)
        assert code == EXIT_USAGE

    def test_epsilon_validated(self, tmp_path, capsys, monkeypatch):
        code, _, err = run(
            ["solve", "--epsilon", "3", write_gap(tmp_path)], capsys=capsys
        )
        assert code == EXIT_USAGE
        assert "epsilon" in err

    @pytest.mark.parametrize("mode", ["strict", "bicriteria"])
    @pytest.mark.parametrize("eps", ["1e-20", "1e-300"])
    def test_epsilon_below_float_resolution_solves(
        self, mode, eps, tmp_path, capsys, monkeypatch
    ):
        # 1e-20: the float scale factor 1 + eps is 1.0; 1e-300: eps^2 underflows;
        # xbar is then rounded at K' = its own denominator and L' = 1 (it
        # used to exit 3 on the float scale factor)
        code, out, _ = run(
            ["solve", "--mode", mode, "--epsilon", eps, write_gap(tmp_path),
             "--format", "machine"],
            capsys=capsys,
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["guarantees_ok"] and rep["L"] == 1

    def test_granularity_beyond_float_resolution_exits_three(self, tmp_path, capsys):
        # granular_round takes K as given: at K W = 10^40 the float L' is 1.0
        code, out, err = run(
            ["round", "--op", "granular", "--granularity", str(10**40), write_gap(tmp_path)],
            capsys=capsys,
        )
        assert (code, out) == (EXIT_LIMIT, "")
        assert err.startswith("limit:") and "float scale factor" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--lambda", "1"],
            ["--max-rounds", "0"],
            ["--epsilon", "0"],
            ["--epsilon", "1/0"],
            ["--arithmetic", "float"],
            ["--tolerance", "1e-9"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_bad_or_removed_flag_exits_two(self, flags, tmp_path, capsys, monkeypatch):
        code, _, _ = run(["solve", write_gap(tmp_path), *flags], capsys=capsys)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("mode", ["lp", "lp-kc"])
    def test_lp_certificates_checked_at_zero(self, mode, tmp_path, capsys, monkeypatch):
        code, out, _ = run(
            ["solve", "--mode", mode, write_gap(tmp_path), "--format", "machine"],
            capsys=capsys,
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        # a failed certificate raises, so the report carries no flag for it
        assert "certificate_ok" not in rep
        assert "arithmetic" not in rep


def _subcommand_argv(subcommand, tmp_path):
    """A run of the subcommand on the gap instance that exits 0."""
    argv = [subcommand, write_gap(tmp_path)]
    if subcommand == "check":
        sol = tmp_path / "sol.json"
        sol.write_text('{"x": [1, 1]}')
        argv += ["--solution", str(sol)]
    return argv


#: every run that prints a SolveReport: the solve modes, the round ops, oracle and check
REPORT_RUNS = {
    **{f"solve-{m}": ("solve", "--mode", m) for m in ("strict", "bicriteria", "lp", "lp-kc")},
    **{
        f"round-{op}": ("round", "--op", op)
        for op in ("randomized", "derandomized", "granular", "bicriteria")
    },
    "oracle": ("oracle",),
    "check": ("check",),
}


def _read_text_line(line: str):
    key, _, value = line.partition(": ")
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:  # a string is printed as it is
        return key, value


@pytest.mark.parametrize("run_argv", REPORT_RUNS.values(), ids=REPORT_RUNS.keys())
def test_text_output_prints_the_machine_report(run_argv, tmp_path, capsys):
    # the text output used to print a hand-kept subset of the keys, in its own order
    argv = [*_subcommand_argv(run_argv[0], tmp_path), *run_argv[1:]]
    code, text, _ = run(argv, capsys=capsys)
    assert code == EXIT_OK
    code, machine, _ = run([*argv, "--format", "machine"], capsys=capsys)
    assert code == EXIT_OK
    got = [_read_text_line(line) for line in text.splitlines()]
    want = list(json.loads(machine).items())
    assert [key for key, _ in got] == [key for key, _ in want]
    # elapsed_s is a wall time: compared by key only
    assert [p for p in got if p[0] != "elapsed_s"] == [p for p in want if p[0] != "elapsed_s"]


#: a random CPIP whose rounded points break d and B by amounts that move with epsilon
SMALL_CPIP = ["gen", "--family", "random-cpip", "--m", "6", "--n", "8", "--r", "2", "--seed", "1"]


@pytest.mark.parametrize("run_argv", REPORT_RUNS.values(), ids=REPORT_RUNS.keys())
def test_report_states_cost_and_violations_of_its_x(run_argv, tmp_path, capsys):
    # every report states the exact cost c.x of the x it prints and that x's
    # violations at --epsilon, whichever layer found the x, and prints that
    # epsilon; the oracle takes none, and its optimum and the LP vertex print
    # none, since they meet B and d and so their violations are the same at 1/4
    code, doc, _ = run(SMALL_CPIP, capsys=capsys)
    assert code == EXIT_OK
    path = tmp_path / "inst.json"
    path.write_text(doc)
    exact = run_argv in (("oracle",), ("solve", "--mode", "lp"))
    given = [] if run_argv[0] == "oracle" else ["--epsilon", "1/4"]
    argv = [*run_argv, str(path), *given, "--format", "machine"]
    inst = parse_instance(doc)
    if run_argv[0] == "check":  # within d at epsilon 1, not at 1/4
        sol = tmp_path / "sol.json"
        sol.write_text('{"x": [0, 4, 2, 0, 0, 0, 1, 0]}')
        argv += ["--solution", str(sol)]
    else:  # the other subcommands read the program normalized
        inst = normalize_width(inst)
    code, out, _ = run(argv, capsys=capsys)
    assert code == (EXIT_INFEASIBLE if run_argv[0] == "check" else EXIT_OK)
    rep = json.loads(out)
    x = [Fraction(v) for v in rep["x"]]
    violations = check_solution(inst, x, Fraction(1, 4))
    assert rep["cost"] == number_out(dot(inst.c, x))
    assert rep["violations"] == report_dict(violations)
    assert rep.get("epsilon") == (None if exact else "1/4")
    if run_argv[0] == "check":
        assert (rep["guarantees_ok"], rep["status"]) == (False, "VIOLATED")


class TestRationalFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--epsilon"],
            ["bench", "--no-timing", "--epsilons"],
            ["bench", "--no-timing", "--deltas"],
            ["gen", "--family", "knapsack-gap", "--delta"],
        ],
        ids=lambda argv: argv[-1],
    )
    @pytest.mark.parametrize("value", ["1e-5000", "1e-2000000"])
    def test_exponent_over_the_bound_exits_two_at_once(self, argv, value, tmp_path, capsys):
        if argv[0] == "solve":
            argv = [argv[0], write_gap(tmp_path), *argv[1:]]
        start = perf_counter()
        code, out, err = run([*argv, value], capsys=capsys)
        assert perf_counter() - start < 1
        assert (code, out) == (EXIT_USAGE, "")
        assert f"argument {argv[-1]}: '{value}' is not" in err


class TestDigitLimit:
    """A number with more decimal digits than Python will print is bad input."""

    DIGITS = sys.get_int_max_str_digits()
    DOC = '{"A": [[1]], "a": [%s], "c": [1]}'

    @pytest.mark.parametrize("number", [f"1e{DIGITS}", f"1e-{DIGITS}"])
    @pytest.mark.parametrize("argv", [["solve", "--mode", "lp"], ["oracle"]], ids=" ".join)
    def test_document_number_exits_two(self, argv, number, tmp_path, capsys):
        code, out, err = run([*argv, write_gap(tmp_path, self.DOC % number)], capsys=capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"more than {self.DIGITS} decimal digits" in err

    @pytest.mark.parametrize("number", [f"1e{DIGITS}", f"1e-{DIGITS}"])
    def test_flag_exits_two(self, number, tmp_path, capsys):
        code, out, err = run(["solve", write_gap(tmp_path), "--epsilon", number], capsys=capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"argument --epsilon: '{number}' is not" in err

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_one_digit_fewer_solves(self, sign, tmp_path, capsys):
        number = f"1e{sign}{self.DIGITS - 1}"
        doc = '{"A": [[1]], "a": [1], "c": [%s]}' % number
        code, out, _ = run(
            ["solve", "--mode", "lp", "--format", "machine", write_gap(tmp_path, doc)],
            capsys=capsys,
        )
        assert code == EXIT_OK
        assert Fraction(json.loads(out)["fopt"]) == Fraction(number)


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize(
        "subcommand, flag, value",
        [
            ("solve", "--seed", "9"),
            ("round", "--lambda", "7"),
            ("round", "--max-rounds", "3"),
            ("oracle", "--seed", "9"),
            ("oracle", "--epsilon", "1/4"),
            ("oracle", "--lambda", "7"),
            ("oracle", "--max-rounds", "3"),
            ("check", "--seed", "9"),
            ("check", "--lambda", "7"),
            ("check", "--max-rounds", "3"),
        ],
    )
    def test_unread_flag_exits_two(self, subcommand, flag, value, tmp_path, capsys, monkeypatch):
        argv = _subcommand_argv(subcommand, tmp_path)
        assert run(argv, capsys=capsys)[0] == EXIT_OK
        code, _, err = run([*argv, flag, value], capsys=capsys)
        assert code == EXIT_USAGE
        assert f"unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize(
        "subcommand, flags",
        [
            ("solve", ["--mode", "lp-kc", "--epsilon", "1/4"]),
            ("solve", ["--mode", "strict", "--epsilon", "1/4"]),
            ("round", ["--op", "randomized", "--seed", "9"]),
            ("oracle", ["--max-points", "4"]),
        ],
    )
    def test_read_flag_accepted(self, subcommand, flags, tmp_path, capsys, monkeypatch):
        code, _, _ = run([*_subcommand_argv(subcommand, tmp_path), *flags], capsys=capsys)
        assert code == EXIT_OK

    @pytest.mark.parametrize(
        "argv, flag, value, key",
        [
            (["solve", "--mode", "lp"], "--epsilon", "1/4", "epsilon"),
            (["round", "--op", "derandomized"], "--seed", "9", "seed"),
            # no key: the same bytes show that its K is not taken from the flag
            (["round", "--op", "bicriteria"], "--granularity", "7", None),
        ],
    )
    def test_a_mode_that_reads_no_flag_ignores_it(self, argv, flag, value, key, tmp_path, capsys):
        # the subcommand takes the flag for another of its modes or ops
        argv = [*argv, write_gap(tmp_path), "--format", "machine"]
        code, out, _ = run(argv, capsys=capsys)
        assert code == EXIT_OK
        assert run([*argv, flag, value], capsys=capsys) == (EXIT_OK, out, "")
        if key is not None:
            assert key not in json.loads(out)


class TestExitCodes:
    @pytest.mark.parametrize(
        "exc, code",
        [
            (InfeasibleError("no point"), EXIT_INFEASIBLE),
            (LimitError("oracle search space over budget"), EXIT_LIMIT),
            # One row per budget LimitError covers; these two keep the ids
            # they had when each budget raised a class of its own.
            pytest.param(
                LimitError("pivot budget"), EXIT_LIMIT, id="IterationLimitError-3"
            ),
            pytest.param(
                LimitError("round cap"), EXIT_LIMIT, id="CutLoopLimitError-3"
            ),
            (ParseError("bad document"), EXIT_USAGE),
            (InstanceError("bad data"), EXIT_USAGE),
            (OSError("unreadable"), EXIT_USAGE),
            (GuaranteeError("cost bound"), EXIT_FAULT),
            (KeyError("internal"), EXIT_FAULT),
            (ValueError("internal"), EXIT_FAULT),
            (ZeroDivisionError("internal"), EXIT_FAULT),
            (OverflowError("internal"), EXIT_FAULT),
        ],
        ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
    )
    def test_each_failure_class(self, exc, code, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr("coverpack.cli.solve_cip_strict", fail)
        got, _, err = run(["solve", write_gap(tmp_path)], capsys=capsys)
        assert got == code
        assert str(exc) in err

    def test_four_failure_classes(self):
        modules = [coverpack] + [
            importlib.import_module(f"coverpack.{info.name}")
            for info in pkgutil.iter_modules(coverpack.__path__)
        ]
        found = {
            value.__name__
            for module in modules
            for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, CoverpackError)
        }
        assert found == {
            "CoverpackError", "InfeasibleError", "LimitError",
            "InstanceError", "ParseError", "GuaranteeError",
        }

    def test_cut_round_cap_exits_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(kc, "MAX_ROUNDS", 1)
        code, _, err = run(["solve", "--mode", "lp-kc", write_gap(tmp_path)], capsys=capsys)
        assert code == EXIT_LIMIT
        assert "after 1 rounds" in err

    @pytest.mark.parametrize("argv", [["oracle", "--max-points", "1000"], ["oracle"]])
    def test_oracle_over_budget_exits_three(self, argv, tmp_path, capsys, monkeypatch):
        _, doc, _ = run(
            ["gen", "--family", "random-cpip", "--m", "6", "--n", "12", "--seed", "1"],
            capsys=capsys,
        )
        code, out, err = run([*argv, write_gap(tmp_path, doc)], capsys=capsys)
        assert code == EXIT_LIMIT
        assert out == ""
        assert "2985984 points" in err  # over 1,000 and over the default 2,000,000

    @pytest.mark.parametrize("value", ["-5", "0", "1.5"])
    def test_oracle_max_points_must_be_positive(self, value, tmp_path, capsys, monkeypatch):
        code, _, err = run(["oracle", write_gap(tmp_path), "--max-points", value], capsys=capsys)
        assert code == EXIT_USAGE
        assert "not a positive integer" in err

    @pytest.mark.parametrize(
        "mode",
        ["strict", "bicriteria", "lp", "lp-kc"]
        + [f"round-{op}" for op in ("randomized", "derandomized", "granular", "bicriteria")],
    )
    def test_failed_certificate_is_a_fault(self, mode, tmp_path, capsys, monkeypatch):
        def one_violation(*args):
            return [CertificateViolation("duality_gap", 0, Fraction(1))]

        monkeypatch.setattr("coverpack.rounding.verify_certificate", one_violation)
        if mode.startswith("round-"):
            argv = ["round", "--op", mode.removeprefix("round-")]
        else:
            argv = ["solve", "--mode", mode]
        code, out, err = run([*argv, write_gap(tmp_path)], capsys=capsys)
        assert code == EXIT_FAULT
        assert out == ""
        assert "GuaranteeError" in err
        assert "LP certificate failed: duality_gap[0]: off by 1" in err

    def test_failed_farkas_ray_is_a_fault(self, tmp_path, capsys, monkeypatch):
        solve_lp = rounding.solve_lp

        def negated_ray(problem):
            s = solve_lp(problem)
            return replace(
                s,
                ray_rows=tuple(-y for y in s.ray_rows),
                ray_bounds=tuple(-z for z in s.ray_bounds),
            )

        monkeypatch.setattr(rounding, "solve_lp", negated_ray)
        doc = '{"A": [[1]], "a": [2], "c": [1], "d": [1]}'
        code, out, err = run(["solve", "--mode", "lp", write_gap(tmp_path, doc)], capsys=capsys)
        assert code == EXIT_FAULT
        assert out == ""
        assert "LP certificate failed: dual_sign_row[0]" in err
        assert "farkas_value[0]" in err


class TestGen:
    def test_round_trip(self, capsys, monkeypatch):
        code, doc, _ = run(
            ["gen", "--family", "random-cpip", "--m", "3", "--n", "4", "--seed", "7"],
            capsys=capsys,
        )
        assert code == EXIT_OK
        inst = parse_instance(doc)
        assert parse_instance(serialize_instance(inst)) == inst

    def test_reader_that_stops_early_is_no_error(self):
        # a closed pipe used to print "error: [Errno 32] Broken pipe" and exit 2;
        # the document, about 360 KB, is more than a pipe holds, so a write meets it
        argv = ["gen", "--family", "set-cover", "--m", "300", "--n", "400"]
        env = dict(os.environ, PYTHONPATH=str(Path(coverpack.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "coverpack.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (EXIT_OK, b"")

    def test_flags_types_and_defaults(self, capsys):
        # one flag per GeneratorSpec field after --family, each with the field's default
        assert main(["gen", "--help"]) == EXIT_OK
        flags = {word for word in capsys.readouterr().out.split() if word.startswith("--")}
        assert flags == {
            "--help", "--family", "--delta", "--m", "--n", "--r", "--density", "--d-max", "--seed"
        }
        defaults = build_parser().parse_args(["gen", "--family", "set-cover"])
        assert vars(defaults) == {
            "subcommand": "gen", "family": "set-cover", "m": 4, "n": 5, "r": 0,
            "density": 0.5, "d_max": 3, "seed": 0, "delta": None,
        }
        argv = ["--delta", "1/10", "--density", "0.25", "--m", "7", "--d-max", "2"]
        got = build_parser().parse_args(["gen", "--family", "set-cover", *argv])
        assert (got.delta, got.density, got.m, got.d_max) == (Fraction(1, 10), 0.25, 7, 2)
        assert type(got.delta) is Fraction and type(got.density) is float and type(got.m) is int

    def test_gap_needs_delta(self, capsys, monkeypatch):
        code, _, err = run(["gen", "--family", "knapsack-gap"], capsys=capsys)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "family, flag",
        [
            ("multiset-multicover", "--n"),
            ("multiset-multicover", "--m"),
            ("multiset-multicover", "--d-max"),
            ("set-cover", "--n"),
            ("random-cpip", "--m"),
            ("random-cpip", "--d-max"),
        ],
    )
    def test_empty_sizes_exit_two(self, family, flag, capsys, monkeypatch):
        code, _, err = run(["gen", "--family", family, flag, "0"], capsys=capsys)
        assert code == EXIT_USAGE
        assert "error" in err


class TestRound:
    @pytest.mark.parametrize("op", ["randomized", "derandomized", "granular", "bicriteria"])
    def test_ops_run(self, op, tmp_path, capsys, monkeypatch):
        code, out, _ = run(
            ["round", "--op", op, write_gap(tmp_path), "--format", "machine"],
            capsys=capsys,
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["mode"] == f"round-{op}"
        if op == "randomized":
            assert rep["seed"] == 0
            assert rep["rng"] == "python-random-mt19937"

    @pytest.mark.parametrize("op", ["randomized", "derandomized", "granular", "bicriteria"])
    def test_no_demanded_rows(self, op, tmp_path, capsys, monkeypatch):
        # with no demanded row every op rounds at L = 1 and answers x = 0
        path = write_gap(tmp_path, '{"A": [[1, 1]], "a": [0], "c": [1, 1], "d": [2, 2]}')
        code, out, _ = run(["round", "--op", op, path, "--format", "machine"], capsys=capsys)
        assert code == EXIT_OK
        rep = json.loads(out)
        assert (rep["x"], rep["cost"], rep["L"]) == ([0, 0], 0, 1)

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_granularity_below_one_refused_by_the_parser(self, value, tmp_path, capsys):
        for op in ("granular", "derandomized"):  # whichever op it is given to
            code, out, err = run(
                ["round", "--op", op, "--granularity", value, write_gap(tmp_path)], capsys=capsys
            )
            assert (code, out) == (EXIT_USAGE, "")
            assert f"argument --granularity: '{value}' is not a positive integer" in err

    def test_granular_report_is_exact(self, capsys, monkeypatch):
        code, doc, _ = run(
            ["gen", "--family", "random-cpip", "--m", "4", "--n", "6", "--r", "1",
             "--seed", "3"],
            capsys=capsys,
        )
        assert code == EXIT_OK
        code, out, _ = run(
            ["round", "--op", "granular", "-", "--format", "machine"],
            stdin=doc,
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        inst = parse_instance(doc)
        x = [Fraction(v) for v in rep["x"]]
        assert all((v * rep["K"]).denominator == 1 for v in x)
        assert not isinstance(rep["cost"], float)
        assert Fraction(rep["cost"]) == dot(inst.c, x)
        assert rep["violations"]["covering"] == []


class TestOracleAndCheck:
    def test_oracle_subcommand(self, tmp_path, capsys, monkeypatch):
        code, out, _ = run(
            ["oracle", write_gap(tmp_path), "--format", "machine"], capsys=capsys
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["opt"] == 1
        assert rep["x"] == [0, 1]

    def test_oracle_on_many_variables_capped_at_zero(self, tmp_path, capsys):
        # 1,200 variables but a box of 2 points: no recursion per variable
        n = 1200
        doc = json.dumps({"A": [[1] + [0] * (n - 1)], "a": [1], "c": [1] * n,
                          "d": [1] + [0] * (n - 1)})
        code, out, _ = run(
            ["oracle", write_gap(tmp_path, doc), "--format", "machine"], capsys=capsys
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        assert (rep["opt"], rep["oracle_space"]) == (1, 2)

    def test_oracle_box_deeper_than_the_recursion_limit_exits_three(self, tmp_path, capsys):
        # a point budget of 2^1100 admits the box of 1,100 raisable
        # variables, but the recursion cannot hold one level per variable
        n = 1100
        doc = json.dumps({"A": [[1] * n], "a": [1], "c": [1] * n, "d": [1] * n})
        code, out, err = run(
            ["oracle", write_gap(tmp_path, doc), "--max-points", str(2**n)], capsys=capsys
        )
        assert code == EXIT_LIMIT
        assert out == ""
        assert f"search space of {2**n} points is over budget" in err
        assert "recursion limit" in err

    def test_check_good_and_bad(self, tmp_path, capsys, monkeypatch):
        inst_path = write_gap(tmp_path)
        good = tmp_path / "good.json"
        good.write_text('{"x": [1, 1]}')
        code, _, _ = run(
            ["check", "--solution", str(good), inst_path], capsys=capsys
        )
        assert code == EXIT_OK
        bad = tmp_path / "bad.json"
        bad.write_text('{"x": [2, 1]}')  # violates d_1 = 1
        code, out, _ = run(
            ["check", "--solution", str(bad), inst_path, "--format", "machine"],
            capsys=capsys,
        )
        assert code == EXIT_INFEASIBLE
        assert json.loads(out)["status"] == "VIOLATED"

    @pytest.mark.parametrize("output", ["text", "machine"])
    @pytest.mark.parametrize(
        "x, code", [("[1, 1]", EXIT_OK), ("[2, 1]", EXIT_INFEASIBLE)], ids=["met", "violated"]
    )
    def test_check_verdict_stands_with_stdout_closed(self, x, code, output, tmp_path):
        # a reader such as "grep -q VIOLATED" may close the pipe before the
        # report is written; a violated point must still exit 1, not 0
        sol = tmp_path / "sol.json"
        sol.write_text(f'{{"x": {x}}}')
        argv = ["check", "--solution", str(sol), write_gap(tmp_path), "--format", output]
        env = dict(os.environ, PYTHONPATH=str(Path(coverpack.__file__).parents[1]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "coverpack.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (code, b"")

    def test_check_reads_document_as_given(self, tmp_path, capsys, monkeypatch):
        # row 0 has no demand; the violated row keeps its document number
        doc = '{"A": [[1, 1], [1, 0]], "a": [0, 1], "c": [1, 1], "d": [2, 2]}'
        path = write_gap(tmp_path, doc)
        sol = tmp_path / "sol.json"
        sol.write_text('{"x": [0, 1]}')
        code, out, _ = run(
            ["check", "--solution", str(sol), path, "--format", "machine"], capsys=capsys
        )
        assert code == EXIT_INFEASIBLE
        assert json.loads(out)["violations"]["covering"] == [[1, 1]]
        # the relaxed bound is ceil((1+eps) d) of the document's own d = 3/2
        path = write_gap(tmp_path, '{"A": [[1]], "a": [1], "c": [1], "d": ["3/2"]}')
        sol.write_text('{"x": [3]}')
        code, out, _ = run(
            ["check", "--solution", str(sol), "--mode", "bicriteria", path,
             "--format", "machine"],
            capsys=capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["violations"]["multiplicity_strict"] == [[0, "3/2"]]

    @pytest.mark.parametrize(
        "payload",
        [
            '{"x": [1.5, 1]}',
            '{"x": [1, "1/2"]}',
            '{"x": [-1, 1]}',
            '{"x": [1]}',
            '{"x": [1, 1, 1]}',
            '{"x": [true, 1]}',
            '{"x": [null, 1]}',
            '{"x": [Infinity, 1]}',
            '{"x": [NaN, 1]}',
            '{"x": 1}',
            '{"y": [1, 1]}',
            "[1, 1]",
            '{"x": [1, 1',
        ],
    )
    def test_check_rejects_bad_solution(self, payload, tmp_path, capsys, monkeypatch):
        sol = tmp_path / "sol.json"
        sol.write_text(payload)
        code, _, err = run(
            ["check", "--solution", str(sol), write_gap(tmp_path)], capsys=capsys
        )
        assert code == EXIT_USAGE
        assert "error" in err

    def test_check_reads_integral_entries_exactly(self, tmp_path, capsys, monkeypatch):
        sol = tmp_path / "sol.json"
        sol.write_text('{"x": [1.0, "2/2"]}')
        code, out, _ = run(
            ["check", "--solution", str(sol), write_gap(tmp_path), "--format", "machine"],
            capsys=capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["x"] == [1, 1]


class TestBench:
    def test_text_and_machine(self, capsys, monkeypatch):
        code, text, _ = run(
            ["bench", "--families", "knapsack-gap", "--deltas", "1/2,1/10",
             "--no-timing"],
            capsys=capsys,
        )
        assert code == EXIT_OK
        assert "strict_ratio_opt" in text.splitlines()[0].split()
        code, lines, _ = run(
            ["bench", "--families", "knapsack-gap", "--deltas", "1/2",
             "--no-timing", "--format", "machine"],
            capsys=capsys,
        )
        assert code == EXIT_OK
        rows = [json.loads(line) for line in lines.strip().splitlines()]
        assert rows[0]["strict_cost"] == 1

    @pytest.mark.parametrize("flag", ["--epsilons", "--deltas"])
    @pytest.mark.parametrize("value", ["abc", "1/4,", "1/0", "0", "3/2"])
    def test_unreadable_lists_exit_two(self, flag, value, capsys, monkeypatch):
        code, _, err = run(["bench", flag, value, "--no-timing"], capsys=capsys)
        assert code == EXIT_USAGE
        assert flag in err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_count_must_be_positive(self, value, capsys, monkeypatch):
        code, out, err = run(
            ["bench", "--families", "set-cover", "--count", value, "--no-timing"],
            capsys=capsys,
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "--count" in err and "not a positive integer" in err

    def test_fingerprint(self, capsys, monkeypatch):
        # Byte-identical bench output is the behaviour every refactor keeps:
        # a moved LP vertex or rounding choice changes this hash.
        code, out, _ = run(
            ["bench", "--families", "knapsack-gap,set-cover,multiset-multicover,random-cpip",
             "--epsilons", "1/4,1", "--no-timing", "--format", "machine"],
            capsys=capsys,
        )
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b945751ab90a966a7e141f56cdc40884e20ed6d3210ee2c7cb3f0f6357ba26bb"
        )
