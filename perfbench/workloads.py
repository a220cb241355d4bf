"""The benchmark's workloads: corpora built from a seed, timed ops, exact re-checks.

A corpus is a list of rounds and a round is a list of ops.  Every round
of a workload has the same shape (the same sizes in the same order) and
its own instances, so a corpus of whole rounds always holds the same
mix.  One op is one call, or one fixed chain of calls, into
coverpack's public functions.  Its ``run`` does only the timed work; its
``check`` re-checks the answer exactly, outside the timed region.

Functions that the tracer wraps are called through their module
attributes (``kc.solve_cip_strict``), so a traced run sees them; the
re-checks use ``check_solution`` as imported here, which the tracer does
not touch.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil
from time import perf_counter
from typing import Callable

from coverpack import kc, model, oracle, rounding
from coverpack.genbench import (
    gen_multiset_multicover,
    gen_random_cpip,
    gen_set_cover,
    knapsack_gap,
)
from coverpack.model import CpipInstance, dot, serialize_instance
from coverpack.oracle import check_solution

EPS = Fraction(1, 4)


class GateError(Exception):
    """An answer failed one of the benchmark's exact re-checks."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise GateError(what)


def q(v) -> str | None:
    """Canonical text of an exact number, for the output digest."""
    if v is None:
        return None
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


@dataclass
class Checked:
    """What the re-check of one op found."""

    outputs: dict
    #: (cost, certified bound the guarantee uses) per answer
    ratios: list[tuple[Fraction, Fraction]]
    #: strict cost / oracle optimum, when an oracle ran and opt > 0
    opt_ratio: Fraction | None = None


@dataclass
class Op:
    key: str
    kind: str
    #: timed work; records the time of each pipeline it calls into ``stages``
    run: Callable[[dict], object]
    check: Callable[[object], Checked]


@dataclass
class Corpus:
    rounds: list[list[Op]]
    #: instance shape -> number of instances of that shape in the corpus
    sizes: dict[str, int] = field(default_factory=dict)
    fingerprint: str = ""


def _timed(stages: dict, name: str, fn, *args, **kwargs):
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    stages[name] = perf_counter() - t0
    return out


def check_strict(inst, eps, x, rep) -> Checked:
    require(check_solution(inst, x, eps).ok_strict, "strict answer fails check_solution")
    require(rep.certificate_ok is True, "strict: LP certificate not ok")
    require(rep.guarantees_ok is True, "strict: guarantees not ok")
    cost = dot(inst.c, x.values)
    require(cost == rep.cost, "strict: reported cost differs from c.x")
    require(rep.fopt is not None and rep.fopt <= rep.fopt_kc, "strict: fopt > fopt_kc")
    require(
        cost <= (1 + eps + 4 * rep.K) * rep.fopt_kc, "strict: cost above (1+eps+4K) fopt_kc"
    )
    return Checked(
        outputs={
            "x": list(x.values),
            "cost": q(cost),
            "fopt": q(rep.fopt),
            "fopt_kc": q(rep.fopt_kc),
            "K": rep.K,
        },
        ratios=[(cost, rep.fopt_kc)],
    )


def check_bicriteria(inst, eps, x, rep) -> Checked:
    require(
        check_solution(inst, x, eps).ok_bicriteria, "bicriteria answer fails check_solution"
    )
    require(rep.certificate_ok is True, "bicriteria: LP certificate not ok")
    require(rep.guarantees_ok is True, "bicriteria: guarantees not ok")
    cost = dot(inst.c, x.values)
    require(cost == rep.cost, "bicriteria: reported cost differs from c.x")
    require(cost <= 4 * rep.K * rep.fopt, "bicriteria: cost above 4K fopt")
    return Checked(
        outputs={"x": list(x.values), "cost": q(cost), "fopt": q(rep.fopt), "K": rep.K},
        ratios=[(cost, rep.fopt)],
    )


def check_rounding(A, a, c, xbar, x, cost_cap, multiplier, what) -> tuple[Fraction, Fraction]:
    """Coverage, cost <= cost_cap and x <= ceil(multiplier * xbar), exactly."""
    require(all(dot(A[i], x) >= a[i] for i in range(len(a))), f"{what}: lost coverage")
    cost = dot(c, x)
    require(cost <= cost_cap, f"{what}: cost above its bound")
    require(
        all(x[j] <= ceil(multiplier * xbar[j]) for j in range(len(xbar))),
        f"{what}: x above ceil({multiplier} xbar)",
    )
    return cost, dot(c, xbar)


def relabel(inst, rng: random.Random):
    """The same program with its covering and packing rows in an order drawn from ``rng``."""
    rows, packs = rng.sample(range(inst.m), inst.m), rng.sample(range(inst.r), inst.r)
    return CpipInstance.from_data(
        A=[inst.A[i] for i in rows],
        a=[inst.a[i] for i in rows],
        c=inst.c,
        d=inst.d,
        B=[inst.B[i] for i in packs],
        b=[inst.b[i] for i in packs],
    )


@dataclass(frozen=True)
class Rung:
    """One instance shape of a workload and how many of it each round holds."""

    shape: str
    #: the base instance for a generator seed
    make: Callable[[int], CpipInstance]
    per_round: int
    #: part of the one-round corpus the self-test runs
    smallest: bool = False


# -- strict-ladder ---------------------------------------------------------


def strict_ops(key: str, inst) -> list[Op]:
    def run_strict(stages):
        return _timed(stages, "strict", kc.solve_cip_strict, inst, EPS)

    def run_bicriteria(stages):
        return _timed(stages, "bicriteria", rounding.solve_cpip_bicriteria, inst, EPS)

    return [
        Op(f"{key}/strict", "strict", run_strict, lambda res: check_strict(inst, EPS, *res)),
        Op(
            f"{key}/bicriteria",
            "bicriteria",
            run_bicriteria,
            lambda res: check_bicriteria(inst, EPS, *res),
        ),
    ]


# Several small rungs per large one keep the op-latency median inside one
# rung instead of between two.
LADDER = (
    Rung("random-cpip 10x15 r=2", lambda s: gen_random_cpip(10, 15, 2, s), 3, True),
    Rung("random-cpip 20x30 r=3", lambda s: gen_random_cpip(20, 30, 3, s), 1),
)


# -- round-setcover --------------------------------------------------------


def rounding_ops(key: str, inst) -> list[Op]:
    A, a, c, d = inst.A, inst.a, inst.c, inst.d
    support = min(sum(1 for v in row if v > 0) for row in A)
    # every row has at least `support` sets, so this is a fractional cover
    # with every coordinate fractional and no LP solved
    xbar = tuple(Fraction(1, support) for _ in c)
    L = rounding.compute_scale_factor(len(a), 1)

    def run_bicriteria_round(stages):
        info: dict = {}
        x = _timed(
            stages, "bicriteria_round", rounding.bicriteria_round,
            xbar, A, a, c, d, EPS, info_out=info,
        )
        return x, info

    def check_bicriteria_round(res):
        x, info = res
        K = info["K"]
        cost, bound = check_rounding(
            A, a, c, xbar, x.values, 4 * K * dot(c, xbar), 1 + EPS, "bicriteria_round"
        )
        return Checked({"x": list(x.values), "cost": q(cost), "K": K}, [(cost, bound)])

    def run_derandomized(stages):
        trace_out: list = []
        x = _timed(
            stages, "derandomized", rounding.derandomized_round,
            xbar, A, a, c, L, trace_out=trace_out,
        )
        return x, trace_out

    def check_derandomized(res):
        x, trace_out = res
        require(bool(trace_out) and trace_out[0] < 1, "derandomized: estimator started >= 1")
        cost, bound = check_rounding(
            A, a, c, xbar, x.values, 2 * L * dot(c, xbar), L, "derandomized_round"
        )
        return Checked({"x": list(x.values), "cost": q(cost), "L": q(L)}, [(cost, bound)])

    return [
        Op(f"{key}/bicriteria_round", "bicriteria_round", run_bicriteria_round,
           check_bicriteria_round),
        Op(f"{key}/derandomized", "derandomized", run_derandomized, check_derandomized),
    ]


SETCOVER = (
    Rung("set-cover 50x100", lambda s: gen_set_cover(50, 100, 0.1, s), 5, True),
    Rung("set-cover 100x200", lambda s: gen_set_cover(100, 200, 0.1, s), 1),
)


# -- desk-oracle -----------------------------------------------------------

DESK_EPSILONS = (Fraction(1, 4), Fraction(1))


def pipeline_ops(key: str, inst) -> list[Op]:
    doc = serialize_instance(inst)
    return [_pipeline_op(f"{key}/eps={eps}", doc, eps) for eps in DESK_EPSILONS]


def _pipeline_op(key: str, doc: str, eps: Fraction) -> Op:
    def run(stages):
        inst = _timed(stages, "parse", model.parse_instance, doc)
        inst = _timed(stages, "normalize", model.normalize_width, inst)
        strict = _timed(stages, "strict", kc.solve_cip_strict, inst, eps)
        bic = _timed(stages, "bicriteria", rounding.solve_cpip_bicriteria, inst, eps)
        found = _timed(stages, "oracle", oracle.brute_force_opt, inst)
        return inst, strict, bic, found

    def check(res):
        inst, (xs, rs), (xb, rb), found = res
        s = check_strict(inst, eps, xs, rs)
        b = check_bicriteria(inst, eps, xb, rb)
        require(found.status == "OPTIMAL", f"oracle returned {found.status}")
        opt = found.cost
        require(rs.fopt == rb.fopt, "strict and bicriteria disagree on fopt")
        require(rs.fopt_kc <= opt, "fopt_kc > opt")
        # the strict answer may use the packing slack, and then it is not
        # feasible for the program whose optimum the oracle computed
        packs = all(dot(inst.B[i], xs.values) <= inst.b[i] for i in range(inst.r))
        require(not packs or opt <= rs.cost, "strict cost below the integer optimum")
        return Checked(
            outputs={"strict": s.outputs, "bicriteria": b.outputs, "opt": q(opt)},
            ratios=s.ratios + b.ratios,
            opt_ratio=rs.cost / opt if opt > 0 else None,
        )

    return Op(key, "pipeline", run, check)


def _desk_rungs():
    rungs = [
        Rung(f"knapsack-gap delta={d}", lambda s, d=d: knapsack_gap(d), 1, d == Fraction(1, 10))
        for d in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000))
    ]
    families = (
        ("set-cover", lambda m, n, s: gen_set_cover(m, n, 0.4, s),
         ((6, 9), (7, 10), (8, 12)), 4),
        ("multiset-multicover", lambda m, n, s: gen_multiset_multicover(m, n, s, d_max=2, r=1),
         ((4, 6), (5, 7), (6, 8)), 4),
        ("random-cpip", lambda m, n, s: gen_random_cpip(m, n, 2, s),
         ((4, 6), (5, 7), (6, 7), (7, 8)), 3),
    )
    for family, gen, sizes, per_round in families:
        for k, (m, n) in enumerate(sizes):
            rungs.append(
                Rung(f"{family} {m}x{n}", lambda s, m=m, n=n, gen=gen: gen(m, n, s),
                     per_round, k == 0)
            )
    return tuple(rungs)


@dataclass(frozen=True)
class Workload:
    name: str
    rungs: tuple[Rung, ...]
    #: the ops one instance gives, keyed under a prefix
    make_ops: Callable[[str, CpipInstance], list[Op]]
    #: seconds one pass over one round takes, measured on a 2-vCPU x86-64
    #: virtual machine with CPython 3.11; sets how many rounds a corpus
    #: holds for a given run length
    round_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("strict-ladder", LADDER, strict_ops, 3.0),
        Workload("round-setcover", SETCOVER, rounding_ops, 7.3),
        Workload("desk-oracle", _desk_rungs(), pipeline_ops, 9.4),
    )
}


def build(workload: Workload, seed: int, rounds: int, smallest: bool = False) -> Corpus:
    """The corpus for ``seed``: the same seed always gives the same inputs.

    Round r holds generator seeds r * per_round + i of every rung, so the
    base instances are fixed and the seed draws the order of the covering
    and packing rows of each.  A fresh random instance at 20x30 takes from
    0.7x to 1.5x the median time, too wide for the few that fit in a run to
    average out.  A row order changes the simplex's pivot path but not the
    program; a column order would also change how well the oracle prunes,
    which moves its time by more than the benchmark's bounds.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    rungs = [g for g in workload.rungs if g.smallest] if smallest else workload.rungs
    corpus = Corpus(rounds=[])
    digest = hashlib.sha256()
    for r in range(rounds):
        ops = []
        for rung in rungs:
            for i in range(1 if smallest else rung.per_round):
                inst = relabel(rung.make(r * rung.per_round + i), rng)
                ops += workload.make_ops(f"r{r}/{rung.shape}#{i}", inst)
                corpus.sizes[rung.shape] = corpus.sizes.get(rung.shape, 0) + 1
                digest.update(serialize_instance(inst).encode())
        corpus.rounds.append(ops)
    corpus.fingerprint = digest.hexdigest()
    return corpus
