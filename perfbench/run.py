#!/usr/bin/env python3
"""coverpack benchmark: one workload, one seed, one closed-loop caller.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload strict-ladder --seed 1 --seconds 30 --trace 0

The run builds its corpus from the seed (set-up, timed several times and
reported as the median), then makes PASSES passes over the corpus in one
thread, each op starting when the previous one returned.  ``--seconds``
sizes the corpus so that the passes take about that long on the machine
the benchmark was tuned on.  An op's latency is the fastest of its
passes, in reference seconds (see REF_LOOP_S).  Every answer is
re-checked exactly, and a repeat must give the same answer as the first
pass.  With ``--trace 1`` the run makes one pass instead, each op once
untraced and once traced, in alternating order; the traced runs give the
per-layer numbers and the difference gives the tracing overhead.

Everything is printed on stdout by name, with its unit; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics named in BENCHMARK.json (end-to-end ones untraced, per-layer ones
traced).  The full results, with the environment, and the trace are
written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

#: share of --seconds the untraced passes are sized to take
FILL = 0.9
#: passes over the corpus in an untraced run; an op's latency is the
#: fastest of its passes, since other load on the machine only adds time
PASSES = 3
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
#: Times in the metrics are reference seconds.  On a shared host the speed
#: of every op changed by up to 1.8x for minutes at a time, and a fixed
#: loop of exact-rational arithmetic slowed alike.  A time t measured while
#: that loop takes r seconds is reported as t * REF_LOOP_S / r: the time the
#: work takes on a host where the loop takes REF_LOOP_S.
REF_LOOP_S = 0.002


def reference_loop() -> None:
    """Fixed exact-rational work that does not use coverpack."""
    s, x = Fraction(0), Fraction(1, 3)
    for i in range(1, 400):
        s += x * Fraction(i, i + 1)
        if s > 100:
            s -= 100


def reference_s() -> float:
    """The reference loop's time now: the faster of two runs."""
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        reference_loop()
        best = min(best, perf_counter() - t0)
    return best


def timed(fn):
    """Run ``fn``; return its result, its seconds, and the reference-seconds scale."""
    r0 = reference_s()
    t0 = perf_counter()
    out = fn()
    elapsed = perf_counter() - t0
    return out, elapsed, 2 * REF_LOOP_S / (r0 + reference_s())


class SetupError(Exception):
    """The checkout does not hold what the benchmark needs."""


def import_coverpack():
    """Import coverpack from this checkout's src/, never from elsewhere."""
    if not (SRC / "coverpack" / "__init__.py").is_file():
        raise SetupError(f"no coverpack sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import coverpack

    if Path(coverpack.__file__).resolve().parent != SRC / "coverpack":
        raise SetupError(f"imported coverpack from {coverpack.__file__}, not {SRC}")
    return coverpack


def source_commit() -> str | None:
    """The checkout's git commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """Hash of the coverpack sources, which names the code when git is absent."""
    h = hashlib.sha256()
    for path in sorted((SRC / "coverpack").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": nproc,
        "seed": seed,
        "coverpack_commit": source_commit(),
        "coverpack_source_sha256": source_sha256(),
    }


def set_up(build):
    """Call ``build`` repeatedly; return the corpus and the median build time.

    Builds at least SETUP_REPEATS times and for at least SETUP_SECONDS, so
    that a set-up of a few milliseconds is still a median of many.  The
    times are (reference seconds, seconds).
    """
    ref, raw, corpus = [], [], None
    while len(raw) < SETUP_REPEATS or sum(raw) < SETUP_SECONDS:
        built, elapsed, scale = timed(build)
        raw.append(elapsed)
        ref.append(elapsed * scale)
        if corpus is not None and built.fingerprint != corpus.fingerprint:
            raise SetupError("corpus build is not deterministic")
        corpus = built
    return corpus, (statistics.median(ref), statistics.median(raw))


class Tally:
    """Outcomes of the ops of one kind of execution (untraced or traced)."""

    def __init__(self):
        self.kinds: dict[str, str] = {}
        #: op key -> latency of each execution, in reference seconds
        self.runs: dict[str, list[float]] = {}
        #: op key -> latency of each execution, in seconds
        self.raw: dict[str, list[float]] = {}
        #: op key -> reference-seconds scale of its last execution
        self.scales: dict[str, float] = {}
        #: op key -> pipeline stage -> time of each execution, in reference seconds
        self.stages: dict[str, dict[str, list[float]]] = {}
        self.outputs: dict[str, str] = {}
        self.checked: dict[str, object] = {}
        self.failures: Counter = Counter()
        self.failure_examples: list[str] = []
        self.attempted = 0

    def fail(self, key: str, cls: str, message: str) -> None:
        self.failures[cls] += 1
        if len(self.failure_examples) < 10:
            self.failure_examples.append(f"{key}: {cls}: {message}")

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def latencies(self, raw: bool = False) -> list[float]:
        """Each op's fastest execution."""
        return [min(v) for v in (self.raw if raw else self.runs).values()]

    def stage_latencies(self, name: str) -> list[float]:
        return [min(st[name]) for st in self.stages.values() if name in st]

    def digest(self, keys) -> str:
        h = hashlib.sha256()
        for key in keys:
            h.update(key.encode() + b"\0" + self.outputs.get(key, "FAILED").encode() + b"\n")
        return h.hexdigest()


def execute(op, tally: Tally, tracer=None) -> float:
    """Run one op, time it, re-check its answer; return its reference latency."""
    tally.attempted += 1
    stages: dict = {}

    def call():
        if tracer is None:
            return op.run(stages)
        with tracer.op(op.key):
            return op.run(stages)

    try:
        result, raw, scale = timed(call)
    except Exception as exc:  # a failed op is counted, never fatal
        tally.fail(op.key, type(exc).__name__, str(exc))
        return 0.0
    elapsed = raw * scale
    try:
        checked = op.check(result)
    except Exception as exc:
        tally.fail(op.key, type(exc).__name__, str(exc))
        return elapsed
    text = json.dumps(checked.outputs, sort_keys=True)
    if tally.outputs.setdefault(op.key, text) != text:
        tally.fail(op.key, "NonDeterministic", "output differs from the first pass")
        return elapsed
    tally.checked.setdefault(op.key, checked)
    tally.kinds[op.key] = op.kind
    tally.runs.setdefault(op.key, []).append(elapsed)
    tally.raw.setdefault(op.key, []).append(raw)
    tally.scales[op.key] = scale
    for name, seconds in stages.items():
        tally.stages.setdefault(op.key, {}).setdefault(name, []).append(seconds * scale)
    return elapsed


def measure(corpus) -> Tally:
    """PASSES whole passes over the corpus, in corpus order."""
    tally = Tally()
    for _ in range(PASSES):
        for ops in corpus.rounds:
            for op in ops:
                execute(op, tally)
    return tally


def measure_traced(spans, corpus):
    """One pass; each op untraced and traced, alternating which goes first."""
    plain, traced = Tally(), Tally()
    tracer = spans.Tracer()
    plain_s = traced_s = 0.0
    ops = [op for ops in corpus.rounds for op in ops]
    for k, op in enumerate(ops):
        for side in (("plain", "traced") if k % 2 == 0 else ("traced", "plain")):
            if side == "plain":
                plain_s += execute(op, plain)
            else:
                with tracer.installed():
                    traced_s += execute(op, traced, tracer)
    overhead = (traced_s - plain_s) / plain_s if plain_s else 0.0
    return plain, traced, tracer, overhead


def end_to_end(tally: Tally, setup_s: tuple[float, float]) -> tuple[dict, dict]:
    """(gated metrics, extra report entries) for an untraced run."""
    lat, raw = tally.latencies(), tally.latencies(raw=True)
    ratios = [c / b for ch in tally.checked.values() for c, b in ch.ratios if b != 0]
    skipped = sum(1 for ch in tally.checked.values() for _, b in ch.ratios if b == 0)
    gated = {
        "setup_s": (setup_s[0], "s"),
        "ops_per_s": (len(lat) / sum(lat) if lat else 0.0, "1/s"),
        "op_s_p50": (statistics.median(lat) if lat else 0.0, "s"),
        "cost_ratio_mean": (float(sum(ratios) / len(ratios)) if ratios else 0.0, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "raw.setup_s": (setup_s[1], "s"),
        "raw.ops_per_s": (len(raw) / sum(raw) if raw else 0.0, "1/s"),
        "raw.op_s_p50": (statistics.median(raw) if raw else 0.0, "s"),
        "reference_loop_s": (
            statistics.median(REF_LOOP_S / s for s in tally.scales.values())
            if tally.scales else 0.0,
            "s",
        ),
        "failed_frac": (tally.failed / tally.attempted if tally.attempted else 0.0, "frac"),
        "cost_ratio_rows": (len(ratios), "count"),
        "cost_ratio_skipped_zero_bound": (skipped, "count"),
    }
    # the highest percentile, up to p90, with at least ten ops beyond it
    tail = min(90, int(100 * (1 - 10 / len(lat)))) if lat else 0
    if tail > 50:
        extra[f"op_s_p{tail}"] = (
            statistics.quantiles(lat, n=100, method="inclusive")[tail - 1], "s"
        )
    for stage in ("strict", "bicriteria"):
        if tally.stage_latencies(stage):
            extra[f"{stage}_s_p50"] = (statistics.median(tally.stage_latencies(stage)), "s")
    opt = [ch.opt_ratio for ch in tally.checked.values() if ch.opt_ratio is not None]
    if opt:
        extra["opt_ratio_max"] = (float(max(opt)), "1")
    return gated, extra


def samples(tally: Tally) -> dict:
    """Ops measured, by kind, and executions per op."""
    out = {"ops": len(tally.runs)}
    for kind in tally.kinds.values():
        out[f"ops:{kind}"] = out.get(f"ops:{kind}", 0) + 1
    out["executions"] = sum(len(v) for v in tally.runs.values())
    return out


def parse_args(names, argv):
    p = argparse.ArgumentParser(description="coverpack benchmark (one workload, one run)")
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def run(argv=None, *, smallest: bool = False, write_files: bool = True) -> dict:
    """One benchmark run; returns the result line plus the full report.

    ``smallest`` builds one round at the smallest size of each workload,
    for the self-test.
    """
    import spans
    import workloads

    args = parse_args(sorted(workloads.WORKLOADS), argv)
    workload = workloads.WORKLOADS[args.workload]
    rounds = 1 if smallest else max(
        1, int(args.seconds * FILL / (PASSES * workload.round_s))
    )
    corpus, setup_s = set_up(
        lambda: workloads.build(workload, args.seed, rounds, smallest)
    )
    keys = [op.key for ops in corpus.rounds for op in ops]

    report = {
        "workload": workload.name,
        "loop": "closed, one caller",
        "environment": environment(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "ops_per_pass": len(keys),
        "sizes": corpus.sizes,
        "corpus_fingerprint": corpus.fingerprint,
    }
    if args.trace == 0:
        tally = measure(corpus)
        metrics, extra = end_to_end(tally, setup_s)
        tallies = [tally]
        report.update(passes=PASSES, samples=samples(tally), digest=tally.digest(keys))
    else:
        plain, traced, tracer, overhead = measure_traced(spans, corpus)
        metrics = spans.per_layer(tracer, overhead, traced.scales)
        extra = {"setup_s": (setup_s[0], "s"), "raw.setup_s": (setup_s[1], "s")}
        tallies = [plain, traced]
        report.update(
            passes=1,
            samples=samples(traced),
            digest=plain.digest(keys),
            traced_digest=traced.digest(keys),
        )
        if write_files:
            RESULTS.mkdir(exist_ok=True)
            trace_path = RESULTS / f"trace-{workload.name}-seed{args.seed}.json"
            trace_path.write_text(json.dumps(tracer.to_json()))
            report["trace_file"] = str(trace_path.relative_to(ROOT))

    failures = sum((t.failures for t in tallies), Counter())
    report.update(
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        report_only={k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        attempted=sum(t.attempted for t in tallies),
        failed=sum(failures.values()),
        failures_by_class=dict(failures),
        failure_examples=[e for t in tallies for e in t.failure_examples],
    )
    report["correct"] = report["failed"] == 0 and report["digest"] == report.get(
        "traced_digest", report["digest"]
    )
    if write_files:
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(report, indent=1, default=str))
    return report


def print_report(report: dict) -> None:
    env = report["environment"]
    print(
        f"# coverpack benchmark: workload {report['workload']} ({report['loop']}), "
        f"seed {env['seed']}, trace {report['trace']}"
    )
    print(
        f"# python {env['python']} on {env['platform']}, nproc {env['nproc']}, "
        f"coverpack {env['coverpack_commit'] or 'sources ' + env['coverpack_source_sha256'][:12]}"
    )
    sizes = ", ".join(f"{shape} x{count}" for shape, count in report["sizes"].items())
    print(f"# corpus: {report['rounds']} rounds, {report['ops_per_pass']} ops per pass; {sizes}")
    print(f"# samples: {json.dumps(report['samples'])}, passes {report['passes']}")
    for section in ("metrics", "report_only"):
        for name, m in report[section].items():
            print(f"{name} = {m['value']:.9g} {m['unit']}")
    print(f"# digest {report['digest']}")
    if "traced_digest" in report:
        print(f"# traced digest {report['traced_digest']}")
    print(
        f"# attempted {report['attempted']}, failed {report['failed']}"
        + (f" by class {json.dumps(report['failures_by_class'])}" if report["failed"] else "")
    )
    for line in report["failure_examples"]:
        print(f"# failure: {line}")


def result_line(report: dict) -> str:
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": report["metrics"],
        }
    )


def main() -> int:
    try:
        import_coverpack()
        sys.path.insert(0, str(BENCH_DIR))
        report = run()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_report(report)
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
