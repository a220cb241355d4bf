"""Command-line entry point.

Subcommands over the JSON instance document format:

* ``solve``  -- full pipelines: strict (default), bicriteria, lp, lp-kc, oracle
* ``round``  -- individual rounding stages on the relaxation optimum
* ``oracle`` -- brute-force integer optimum
* ``gen``    -- emit a generated instance document
* ``bench``  -- run the benchmark harness over generated families
* ``check``  -- violation report for a candidate solution vector

Exit codes: 0 success, 1 infeasible, 2 usage or document errors, 3 a
solver limit (pivot budget or cut rounds), 4 an internal fault (a
rounding, estimator, guarantee or numerical failure).  All
randomness flows from --seed (default 0, never wall clock), so every run
is reproducible.  Machine output is one JSON report per line.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from coverpack.genbench import FAMILIES, GeneratorSpec, generate, run_bench
from coverpack.kc import CutLoopLimitError, solve_cip_strict, solve_lp_kc
from coverpack.model import (
    CoverpackError,
    CpipInstance,
    InstanceError,
    IntegerVector,
    ParseError,
    dot,
    metrics,
    normalize_width,
    parse_instance,
    serialize_instance,
)
from coverpack.oracle import (
    OracleBudget,
    SolveReport,
    brute_force_opt,
    check_solution,
)
from coverpack.rounding import (
    RNG_NAME,
    bicriteria_round,
    compute_scale_factor,
    derandomized_round,
    granular_round,
    randomized_round,
)
from coverpack.simplex import (
    InfeasibleError,
    IterationLimitError,
    lp_from_instance,
    solve_lp,
    verify_certificate,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_FAULT = 4


@dataclass(frozen=True)
class CliConfig:
    """Validated global options shared by the subcommands."""

    subcommand: str
    input: str = "-"
    mode: str = "strict"
    epsilon: Fraction = Fraction(1)
    lam: Fraction = Fraction(2)
    seed: int = 0
    arithmetic: str = "rational"
    tolerance: float = 1e-9
    output: str = "text"
    max_rounds: int = 1000

    def __post_init__(self):
        if not (0 < self.epsilon <= 1):
            raise InstanceError(f"epsilon {self.epsilon} outside (0, 1]")
        if self.lam <= 1:
            raise InstanceError(f"lambda {self.lam} must exceed 1")
        if self.tolerance <= 0:
            raise InstanceError(f"tolerance {self.tolerance} must be positive")
        if self.max_rounds < 1:
            raise InstanceError("max-rounds must be >= 1")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _add_common(sub):
    sub.add_argument("input", nargs="?", default="-", help="instance path or - for stdin")
    sub.add_argument("--epsilon", type=_fraction, default=Fraction(1))
    sub.add_argument("--lambda", dest="lam", type=_fraction, default=Fraction(2))
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--arithmetic", choices=("rational", "float"), default="rational")
    sub.add_argument("--tolerance", type=float, default=1e-9)
    sub.add_argument("--format", dest="output", choices=("text", "machine"), default="text")
    sub.add_argument("--max-rounds", type=int, default=1000)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coverpack",
        description="Covering/packing integer programs: solve, round, check, generate, benchmark.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    solve = subs.add_parser("solve", help="run a solver pipeline")
    solve.add_argument(
        "--mode",
        choices=("strict", "bicriteria", "lp", "lp-kc", "oracle"),
        default="strict",
    )
    _add_common(solve)

    rnd = subs.add_parser("round", help="round the relaxation optimum")
    rnd.add_argument(
        "--op",
        choices=("randomized", "derandomized", "granular", "bicriteria"),
        default="derandomized",
    )
    rnd.add_argument("--granularity", type=int, default=2, help="K for --op granular")
    _add_common(rnd)

    orc = subs.add_parser("oracle", help="brute-force integer optimum")
    orc.add_argument("--max-points", type=int, default=2_000_000)
    _add_common(orc)

    gen = subs.add_parser("gen", help="emit a generated instance")
    gen.add_argument("--family", required=True, choices=[f.lower().replace("_", "-") for f in FAMILIES])
    gen.add_argument("--delta", type=_fraction, default=None)
    gen.add_argument("--m", type=int, default=4)
    gen.add_argument("--n", type=int, default=5)
    gen.add_argument("--r", type=int, default=0)
    gen.add_argument("--density", type=float, default=0.5)
    gen.add_argument("--d-max", type=int, default=3)
    gen.add_argument("--seed", type=int, default=0)

    bench = subs.add_parser("bench", help="benchmark harness over generated families")
    bench.add_argument("--families", default="knapsack-gap",
                       help="comma-separated families")
    bench.add_argument("--count", type=int, default=3, help="instances per family")
    bench.add_argument("--epsilons", default="1", help="comma-separated slack values")
    bench.add_argument("--deltas", default="1/2,1/10,1/100",
                       help="gap-family deltas, comma-separated")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--format", dest="output", choices=("text", "machine"), default="text")
    bench.add_argument("--no-timing", action="store_true")

    check = subs.add_parser("check", help="violation report for a solution vector")
    check.add_argument("--solution", required=True, help='JSON file {"x": [...]}')
    check.add_argument("--mode", choices=("strict", "bicriteria"), default="strict")
    _add_common(check)

    return parser


def _read_instance(path: str) -> CpipInstance:
    doc = sys.stdin.read() if path == "-" else open(path, "r", encoding="utf-8").read()
    return parse_instance(doc)


def _emit(report: SolveReport, output: str) -> None:
    if output == "machine":
        print(report.to_json())
        return
    d = report.to_dict()
    print(f"mode: {d.get('mode')}   status: {d.get('status')}")
    for key in ("cost", "fopt", "fopt_kc", "opt", "ratio_cost_fopt", "ratio_cost_opt"):
        if key in d:
            print(f"{key}: {d[key]}")
    for key in ("epsilon", "lam", "K", "L", "seed", "rng", "arithmetic",
                "pinned", "cut_rows_added", "lp_rounds", "certificate_ok"):
        if key in d:
            print(f"{key}: {d[key]}")
    if report.x is not None:
        print(f"x: {[v if isinstance(v, int) else str(v) for v in report.x]}")
    if report.violations is not None:
        v = report.violations
        print(
            "guarantees: covering_ok=%s packing_ok=%s mult_strict_ok=%s mult_relaxed_ok=%s"
            % (
                not v.covering,
                not v.packing_relaxed,
                not v.multiplicity_strict,
                not v.multiplicity_relaxed,
            )
        )
    if report.elapsed_s is not None:
        print(f"elapsed_s: {report.elapsed_s:.4f}")


def _lp_report(inst: CpipInstance, cfg: CliConfig) -> SolveReport:
    problem = lp_from_instance(inst)
    sol = solve_lp(problem)
    if sol.status == "INFEASIBLE":
        raise InfeasibleError("standard relaxation is infeasible", sol)
    cert = verify_certificate(problem, sol, cfg.tolerance)
    return SolveReport(
        mode="lp",
        arithmetic=cfg.arithmetic,
        fopt=sol.objective_value,
        cost=sol.objective_value,
        epsilon=cfg.epsilon,
        x=sol.primal.values,
        violations=check_solution(inst, sol.primal.values, cfg.epsilon),
        certificate_ok=not cert,
        status=sol.status,
    )


def _lp_kc_report(inst: CpipInstance, cfg: CliConfig) -> SolveReport:
    info: dict = {}
    x = solve_lp_kc(inst, cfg.lam, max_rounds=cfg.max_rounds, info=info)
    cert = verify_certificate(info["problem"], info["solution"], cfg.tolerance)
    return SolveReport(
        mode="lp-kc",
        arithmetic=cfg.arithmetic,
        fopt_kc=info["objective"],
        cost=info["objective"],
        lam=cfg.lam,
        epsilon=cfg.epsilon,
        x=x.values,
        violations=check_solution(inst, x.values, cfg.epsilon),
        cut_rows_added=info["cut_rows_added"],
        lp_rounds=info["rounds"],
        pin_sets_seen=info["pin_sets_seen"],
        certificate_ok=not cert,
    )


def _oracle_report(inst: CpipInstance, cfg: CliConfig, max_points: int) -> SolveReport:
    res = brute_force_opt(inst, OracleBudget(max_points=max_points))
    report = SolveReport(
        mode="oracle",
        arithmetic=cfg.arithmetic,
        status=res.status,
        cost=res.cost,
        opt=res.cost,
        epsilon=cfg.epsilon,
        x=res.x.values if res.x is not None else None,
        violations=check_solution(inst, res.x, cfg.epsilon) if res.x is not None else None,
        oracle_bounds=res.bounds,
        oracle_space=res.space_size,
    )
    if res.status == "INFEASIBLE":
        raise InfeasibleError("no integer solution in the search box", None)
    return report


def _round_report(inst: CpipInstance, cfg: CliConfig, op: str, K: int) -> SolveReport:
    problem = lp_from_instance(inst)
    sol = solve_lp(problem)
    if sol.status == "INFEASIBLE":
        raise InfeasibleError("standard relaxation is infeasible", sol)
    xbar = sol.primal
    met = metrics(inst)
    L = compute_scale_factor(inst.m, met.width)
    seed = rng = None
    info: dict = {}
    if op == "randomized":
        xhat = randomized_round(xbar, L, cfg.seed)
        seed, rng = cfg.seed, RNG_NAME
        values = xhat.values
    elif op == "derandomized":
        xhat = derandomized_round(xbar, inst.A, inst.a, inst.c, L)
        values = xhat.values
    elif op == "granular":
        xg = granular_round(xbar, inst.A, inst.a, inst.c, K, info_out=info)
        values = tuple(float(v) for v in xg.values)
        L = info.get("L", L)
    else:
        xhat = bicriteria_round(
            xbar, inst.A, inst.a, inst.c, inst.d, cfg.epsilon, info_out=info
        )
        values = xhat.values
        L = info.get("L", L)
    report = SolveReport(
        mode=f"round-{op}",
        arithmetic=cfg.arithmetic,
        fopt=sol.objective_value,
        cost=dot(inst.c, values),
        epsilon=cfg.epsilon if op == "bicriteria" else None,
        K=info.get("K", K if op == "granular" else None),
        L=L,
        seed=seed,
        rng=rng,
        x=values if op != "granular" else None,
        notes=(f"values: {[str(v) for v in values]}",) if op == "granular" else (),
    )
    if op in ("derandomized", "bicriteria", "randomized"):
        report.violations = check_solution(inst, values, cfg.epsilon)
    return report


def _solve_report(inst: CpipInstance, cfg: CliConfig) -> SolveReport:
    if cfg.mode == "strict":
        _, report = solve_cip_strict(
            inst, cfg.epsilon, arithmetic=cfg.arithmetic, max_rounds=cfg.max_rounds
        )
    elif cfg.mode == "bicriteria":
        from coverpack.rounding import solve_cpip_bicriteria

        _, report = solve_cpip_bicriteria(inst, cfg.epsilon, arithmetic=cfg.arithmetic)
    elif cfg.mode == "lp":
        report = _lp_report(inst, cfg)
    elif cfg.mode == "lp-kc":
        report = _lp_kc_report(inst, cfg)
    else:
        report = _oracle_report(inst, cfg, 2_000_000)
    return report


def _cmd_gen(args) -> int:
    family = args.family.upper().replace("-", "_")
    spec = GeneratorSpec(
        family=family,
        m=args.m,
        n=args.n,
        r=args.r,
        density=args.density,
        d_max=args.d_max,
        seed=args.seed,
        delta=args.delta,
    )
    print(serialize_instance(generate(spec)))
    return EXIT_OK


def _cmd_bench(args) -> int:
    families = [f.strip().upper().replace("-", "_") for f in args.families.split(",")]
    epsilons = [Fraction(e) for e in args.epsilons.split(",")]
    deltas = [Fraction(dv) for dv in args.deltas.split(",")]
    specs = []
    for fam in families:
        if fam == "KNAPSACK_GAP":
            specs.extend(GeneratorSpec(family=fam, delta=dv) for dv in deltas)
        else:
            specs.extend(
                GeneratorSpec(family=fam, seed=args.seed + k, m=3 + k % 3, n=4 + k % 3, r=1)
                for k in range(args.count)
            )
    result = run_bench(specs, epsilons, args.seed, include_timing=not args.no_timing)
    print(result.to_jsonl() if args.output == "machine" else result.to_text())
    return EXIT_OK


def _cmd_check(args, cfg: CliConfig) -> int:
    inst = normalize_width(_read_instance(cfg.input))
    with open(args.solution, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    x = IntegerVector.of(payload["x"])
    violations = check_solution(inst, x, cfg.epsilon)
    ok = violations.ok_strict if args.mode == "strict" else violations.ok_bicriteria
    report = SolveReport(
        mode=f"check-{args.mode}",
        arithmetic=cfg.arithmetic,
        cost=dot(inst.c, x.values),
        x=x.values,
        violations=violations,
        guarantees_ok=ok,
        epsilon=cfg.epsilon,
        status="OK" if ok else "VIOLATED",
    )
    _emit(report, cfg.output)
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
        cfg = CliConfig(
            subcommand=args.subcommand,
            input=args.input,
            mode=getattr(args, "mode", "strict"),
            epsilon=args.epsilon,
            lam=args.lam,
            seed=args.seed,
            arithmetic=args.arithmetic,
            tolerance=args.tolerance,
            output=args.output,
            max_rounds=args.max_rounds,
        )
        if args.subcommand == "check":
            return _cmd_check(args, cfg)
        inst = normalize_width(_read_instance(cfg.input))
        if args.subcommand == "solve":
            report = _solve_report(inst, cfg)
        elif args.subcommand == "oracle":
            report = _oracle_report(inst, cfg, args.max_points)
        else:
            report = _round_report(inst, cfg, args.op, args.granularity)
        _emit(report, cfg.output)
        return EXIT_OK
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (IterationLimitError, CutLoopLimitError) as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (ParseError, InstanceError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CoverpackError as exc:
        print(f"internal fault ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())
