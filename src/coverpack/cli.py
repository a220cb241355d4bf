"""Command-line entry point.

Subcommands over the JSON instance document format:

* ``solve``  -- full pipelines: strict (default), bicriteria, lp, lp-kc
* ``round``  -- individual rounding stages on the relaxation optimum
* ``oracle`` -- brute-force integer optimum
* ``gen``    -- emit a generated instance document
* ``bench``  -- run the benchmark harness over generated families
* ``check``  -- violation report for a candidate solution vector

Exit codes, one per failure class: 0 success, 1 infeasible
(``InfeasibleError``), 2 usage, document or other input errors
(``InstanceError``, ``OSError``), 3 a solver limit (``LimitError``: pivots,
cut rounds, oracle points or depth, or the float scale factor), 4 an internal
fault (``GuaranteeError``, a failed LP certificate among them, or any other
exception).  A reader of stdout that stops early changes no exit code and
prints nothing on stderr.  All randomness flows from --seed (default 0, never
wall clock), so every run is reproducible.  Each subcommand takes only the
flags it reads; any other flag exits 2.  Machine output is one JSON report per
line; text output prints the same fields and values, one per line (``bench``:
one column per field).  A report's cost and violations are those of the ``x``
it prints.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import fields, replace

from coverpack.genbench import FAMILIES, GeneratorSpec, _text_cell, generate, run_bench
from coverpack.kc import solve_cip_strict, solve_lp_kc
from coverpack.model import (
    CpipInstance,
    InfeasibleError,
    InstanceError,
    LimitError,
    ParseError,
    SolveReport,
    as_epsilon,
    as_fraction,
    as_lambda,
    dot,
    normalize_width,
    parse_instance,
    parse_solution,
    report_dict,
    serialize_instance,
)
from coverpack.oracle import brute_force_opt, check_solution
from coverpack.rounding import (
    RNG_NAME,
    bicriteria_round,
    compute_scale_factor,
    derandomized_round,
    granular_round,
    randomized_round,
    solve_cpip_bicriteria,
    solve_relaxation,
    width,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_FAULT = 4


def _typed(parse, need: str, ok=lambda value: True):
    """An argparse type: ``parse`` the text, then require ``ok`` of the value."""

    def convert(text: str):
        try:
            value = parse(text)
        except (ValueError, InstanceError) as exc:
            raise argparse.ArgumentTypeError(f"{text!r} is not {need}") from exc
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {need}")
        return value

    return convert


def _rationals(text: str) -> list:
    return [as_fraction(v) for v in text.split(",")]


_fraction = _typed(as_fraction, "a rational number")
_epsilon = _typed(as_epsilon, "an epsilon in (0, 1]")
_epsilons = _typed(
    lambda text: [as_epsilon(v) for v in text.split(",")], "a list of epsilons in (0, 1]"
)
_deltas = _typed(_rationals, "a list of deltas in (0, 1)", lambda vs: all(0 < v < 1 for v in vs))
_lambda = _typed(as_lambda, "a lambda above 1")
_positive_int = _typed(int, "a positive integer", lambda v: v >= 1)


def _add_common(sub):
    """The flags every instance subcommand reads; each adds only the others it reads."""
    sub.add_argument("input", nargs="?", default="-", help="instance path or - for stdin")
    sub.add_argument("--epsilon", type=_epsilon, default="1")
    sub.add_argument("--format", dest="output", choices=("text", "machine"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coverpack",
        description="Covering/packing integer programs: solve, round, check, generate, benchmark.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    solve = subs.add_parser("solve", help="run a solver pipeline")
    solve.add_argument(
        "--mode",
        choices=("strict", "bicriteria", "lp", "lp-kc"),
        default="strict",
    )
    solve.add_argument("--lambda", dest="lam", type=_lambda, default="2",
                       help="cut threshold for --mode lp-kc")
    solve.add_argument("--max-rounds", type=_positive_int, default=1000,
                       help="cut-round cap for --mode strict and lp-kc")
    _add_common(solve)

    rnd = subs.add_parser("round", help="round the relaxation optimum")
    rnd.add_argument(
        "--op",
        choices=("randomized", "derandomized", "granular", "bicriteria"),
        default="derandomized",
    )
    rnd.add_argument("--granularity", type=int, default=2, help="K for --op granular")
    rnd.add_argument("--seed", type=int, default=0, help="seed for --op randomized")
    _add_common(rnd)

    orc = subs.add_parser("oracle", help="brute-force integer optimum")
    orc.add_argument("--max-points", type=_positive_int, default=2_000_000)
    _add_common(orc)

    gen = subs.add_parser("gen", help="emit a generated instance")
    gen.add_argument("--family", required=True, choices=[f.lower().replace("_", "-") for f in FAMILIES])
    types = {"delta": _fraction, "density": float}  # every other field is an int
    for f in fields(GeneratorSpec)[1:]:  # one flag per field after family
        flag = "--" + f.name.replace("_", "-")
        gen.add_argument(flag, type=types.get(f.name, int), default=f.default)

    bench = subs.add_parser("bench", help="benchmark harness over generated families")
    bench.add_argument("--families", default="knapsack-gap",
                       help="comma-separated families")
    bench.add_argument("--count", type=_positive_int, default=3, help="instances per family")
    bench.add_argument("--epsilons", type=_epsilons, default="1",
                       help="comma-separated slack values")
    bench.add_argument("--deltas", type=_deltas, default="1/2,1/10,1/100",
                       help="gap-family deltas, comma-separated")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--format", dest="output", choices=("text", "machine"), default="text")
    bench.add_argument("--no-timing", action="store_true")

    check = subs.add_parser("check", help="violation report for a solution vector")
    check.add_argument("--solution", required=True, help='JSON file {"x": [...]}')
    check.add_argument("--mode", choices=("strict", "bicriteria"), default="strict")
    _add_common(check)

    return parser


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text") from exc


def _out(text: str) -> None:
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader stopped early: no error, and the exit code stands
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # what is left goes here


def _emit(report: SolveReport, output: str) -> None:
    """Print the report's fields: one JSON line, or one ``key: value`` line each."""
    d = report_dict(report)
    text = "\n".join(f"{k}: {_text_cell(v)}" for k, v in d.items())
    _out(json.dumps(d) if output == "machine" else text)


def _report(mode: str, inst: CpipInstance, x, at, **fields) -> SolveReport:
    """The report on the point ``x``: its cost c.x and its violations at slack ``at``."""
    return SolveReport(
        mode=mode, cost=dot(inst.c, x), x=x, violations=check_solution(inst, x, at), **fields
    )


def _lp_report(inst: CpipInstance, args) -> SolveReport:
    sol = solve_relaxation(inst)
    return _report("lp", inst, sol.primal, args.epsilon, fopt=sol.objective_value,
                   epsilon=args.epsilon)


def _lp_kc_report(inst: CpipInstance, args) -> SolveReport:
    loop = solve_lp_kc(inst, args.lam, max_rounds=args.max_rounds)
    return _report(
        "lp-kc",
        inst,
        loop.x,
        args.epsilon,
        fopt_kc=loop.round_objectives[-1],
        lam=args.lam,
        epsilon=args.epsilon,
        cut_rows_added=loop.cut_rows_added,
        lp_rounds=len(loop.round_objectives),
        pin_sets_seen=loop.pin_sets_seen,
    )


def _oracle_report(inst: CpipInstance, args) -> SolveReport:
    res = brute_force_opt(inst, max_points=args.max_points)
    if res.status == "BUDGET_EXCEEDED":
        raise LimitError(
            f"oracle search space of {res.space_size} points is over budget "
            "(--max-points, or the recursion limit on the variables it enumerates)"
        )
    if res.status == "INFEASIBLE":
        raise InfeasibleError("no integer solution in the search box")
    return _report("oracle", inst, res.x, args.epsilon, opt=res.cost, epsilon=args.epsilon,
                   oracle_bounds=res.bounds, oracle_space=res.space_size)


def _round_report(inst: CpipInstance, args) -> SolveReport:
    sol = solve_relaxation(inst)
    rows = [S for S, _ in inst.int_rows[: inst.m]]  # as the solvers round them: scale-free
    A, a = [S[:-1] for S in rows], [S[-1] for S in rows]
    xbar, c, op = sol.primal, inst.c, args.op
    K = args.granularity if op == "granular" else None
    if op == "bicriteria":  # it reports the K' and L' it rounded at
        info: dict = {}
        x = bicriteria_round(xbar, A, a, c, inst.d, args.epsilon, info_out=info)
        K, L = info["K"], info["L"]
    else:
        if op == "granular":  # it checks K before the rule below reads it
            x = granular_round(xbar, A, a, c, K)
        # the scale factor the op rounds at: scale(m, K W) with K = 1 but for
        # granular, and 1 where no row is demanded
        L = compute_scale_factor(inst.m, (K or 1) * width(A, a)) if inst.m else 1
        if op == "randomized":
            x = randomized_round(xbar, L, args.seed)
        elif op == "derandomized":
            x = derandomized_round(xbar, A, a, c, L)
    randomized = op == "randomized"
    return _report(
        f"round-{op}",
        inst,
        x,
        args.epsilon,
        fopt=sol.objective_value,
        epsilon=args.epsilon if op == "bicriteria" else None,
        K=K,
        L=L,
        seed=args.seed if randomized else None,
        rng=RNG_NAME if randomized else None,
    )


def _solve_report(inst: CpipInstance, args) -> SolveReport:
    if args.mode == "strict":
        _, report = solve_cip_strict(inst, args.epsilon, max_rounds=args.max_rounds)
    elif args.mode == "bicriteria":
        _, report = solve_cpip_bicriteria(inst, args.epsilon)
    elif args.mode == "lp":
        report = _lp_report(inst, args)
    else:
        report = _lp_kc_report(inst, args)
    return report


def _cmd_gen(args) -> int:
    family = args.family.upper().replace("-", "_")
    given = {f.name: getattr(args, f.name) for f in fields(GeneratorSpec)[1:]}
    spec = GeneratorSpec(family, **given)
    _out(serialize_instance(generate(spec)))
    return EXIT_OK


def _cmd_bench(args) -> int:
    families = [f.strip().upper().replace("-", "_") for f in args.families.split(",")]
    specs = []
    for fam in families:
        if fam == "KNAPSACK_GAP":
            specs.extend(GeneratorSpec(family=fam, delta=dv) for dv in args.deltas)
        else:
            specs.extend(
                GeneratorSpec(family=fam, seed=args.seed + k, m=3 + k % 3, n=4 + k % 3, r=1)
                for k in range(args.count)
            )
    result = run_bench(specs, args.epsilons, include_timing=not args.no_timing)
    _out(result.to_jsonl() if args.output == "machine" else result.to_text())
    return EXIT_OK


def _cmd_check(args) -> int:
    # the document as given: its own row numbers and its own d
    inst = parse_instance(_read_text(args.input))
    x = parse_solution(_read_text(args.solution), inst.n)
    report = _report(f"check-{args.mode}", inst, x, args.epsilon, epsilon=args.epsilon)
    ok = getattr(report.violations, f"ok_{args.mode}")
    _emit(replace(report, guarantees_ok=ok, status="OK" if ok else "VIOLATED"), args.output)
    return EXIT_OK if ok else EXIT_INFEASIBLE


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.subcommand == "gen":
            return _cmd_gen(args)
        if args.subcommand == "bench":
            return _cmd_bench(args)
        if args.subcommand == "check":
            return _cmd_check(args)
        inst = normalize_width(parse_instance(_read_text(args.input)))
        if args.subcommand == "solve":
            report = _solve_report(inst, args)
        elif args.subcommand == "oracle":
            report = _oracle_report(inst, args)
        else:
            report = _round_report(inst, args)
        _emit(report, args.output)
        return EXIT_OK
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except LimitError as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (InstanceError, OSError) as exc:  # ParseError is an InstanceError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # anything unclassified is a fault, never a verdict
        traceback.print_exc()
        print(f"internal fault ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())
