"""Span recording around coverpack's public functions, from outside the package.

The tracer wraps functions at the module attributes through which they
are called: the names that ``coverpack.kc`` and ``coverpack.rounding``
import from other modules, and the entry points the benchmark calls
itself.  Nothing inside coverpack changes; with the tracer not installed
the original functions run untouched.

Each span records its name, start, end, parent span and the op it
belongs to, plus references to the call's arguments and return value so
that counts can be read from public return values after the run.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

from coverpack import kc, model, oracle, rounding

#: (module, attribute) pairs wrapped while tracing; the span takes the
#: attribute's name.  Functions are looked up where their callers look
#: them up, so calls made inside coverpack are seen too.
PATCH_POINTS = (
    (kc, "solve_cip_strict"),
    (kc, "solve_lp_kc"),
    (kc, "solve_lp"),
    (kc, "verify_certificate"),
    (kc, "bicriteria_round"),
    (kc, "check_solution"),
    (rounding, "solve_cpip_bicriteria"),
    (rounding, "solve_lp"),
    (rounding, "verify_certificate"),
    (rounding, "bicriteria_round"),
    (rounding, "granular_round"),
    (rounding, "derandomized_round"),
    (rounding, "check_solution"),
    (oracle, "brute_force_opt"),
    (model, "parse_instance"),
    (model, "normalize_width"),
)

#: Layer (coverpack module) each span's self time is charged to.  Root
#: ``op`` spans charge their self time to the benchmark itself.
LAYER_OF = {
    "solve_lp": "simplex",
    "verify_certificate": "simplex",
    "solve_lp_kc": "kc",
    "solve_cip_strict": "kc",
    "solve_cpip_bicriteria": "rounding",
    "bicriteria_round": "rounding",
    "granular_round": "rounding",
    "derandomized_round": "rounding",
    "brute_force_opt": "oracle",
    "check_solution": "oracle",
    "parse_instance": "model",
    "normalize_width": "model",
}


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "args", "kwargs", "result", "child_s")

    def __init__(self, name, parent, op, args, kwargs):
        self.name = name
        self.parent = parent
        self.op = op
        self.args = args
        self.kwargs = kwargs
        self.result = None
        self.start = self.end = 0.0
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: str | None = None

    def _enter(self, name, args, kwargs) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1, self._op, args, kwargs)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = self._enter(name, args, kwargs)
            try:
                span.result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            return span.result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every patch point for the duration of the block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr in PATCH_POINTS]
        try:
            for mod, attr, fn in saved:
                setattr(mod, attr, self.wrap(attr, fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    @contextmanager
    def op(self, key: str):
        """Root span for one benchmark op; spans inside it share its key."""
        self._op = key
        span = self._enter("op", (), {})
        try:
            yield span
        finally:
            self._exit(span)
            self._op = None

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def has_ancestor(self, span: Span, name: str) -> bool:
        p = span.parent
        while p >= 0:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def to_json(self) -> dict:
        """Spans as plain records; times are seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [s.name, round(s.start - t0, 9), round(s.end - t0, 9), s.parent, s.op]
                for s in self.spans
            ],
        }


def _den_bits(values) -> int:
    return max((v.denominator.bit_length() for v in values), default=0)


def _tableau_cells(p) -> int:
    """Cells of the dense tableau solve_lp builds for ``p`` (rhs column included).

    Internal rows are the user rows plus one bound row per finite upper
    bound; columns are the variables, one slack per internal row, one
    artificial per row that is >= after rows with negative rhs are flipped,
    and the rhs.
    """
    bound_rows = sum(1 for u in p.var_bounds if u is not None)
    rows = len(p.rows) + bound_rows
    artificials = sum(1 for r in p.rows if (r.sense == ">=") != (r.rhs < 0))
    return rows * (len(p.objective) + rows + artificials + 1)


def per_layer(
    tracer: Tracer, overhead_frac: float, scales: dict[str, float]
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    Times are sums of span durations (``_s``) or self times (``_self_s``),
    each scaled to reference seconds by its op's entry in ``scales``;
    counts come from the calls' public return values and output arguments.
    """
    def total(name):
        return sum(s.duration * scales.get(s.op, 1.0) for s in tracer.named(name))

    def self_total(name):
        return sum(s.self_s * scales.get(s.op, 1.0) for s in tracer.named(name))

    op_s = total("op")
    layer_s = {layer: 0.0 for layer in ("simplex", "kc", "rounding", "oracle", "model")}
    for s in tracer.spans:
        if s.name in LAYER_OF:
            layer_s[LAYER_OF[s.name]] += s.self_s * scales.get(s.op, 1.0)

    lps = tracer.named("solve_lp")
    sols = [s.result for s in lps if s.result is not None]
    pivots = sum(sol.iterations for sol in sols)
    den_bits = 0
    for sol in sols:
        if sol.status == "OPTIMAL":
            den_bits = max(
                den_bits,
                _den_bits(sol.primal.values),
                _den_bits(sol.dual_rows),
                _den_bits(sol.dual_bounds),
            )

    stricts = tracer.named("solve_cip_strict")
    reports = [s.result[1] for s in stricts if s.result is not None]
    strict_lp_calls = sum(1 for s in lps if tracer.has_ancestor(s, "solve_cip_strict"))
    pinned = sum(len(r.pinned) for r in reports)
    strict_vars = sum(len(r.x) for r in reports)

    derands = tracer.named("derandomized_round")
    decisions = 0
    phi0 = []
    for s in derands:
        xbar, L = s.args[0], s.args[4]
        decisions += sum(1 for v in xbar if (L * v).denominator != 1)
        trace_out = s.kwargs.get("trace_out")
        if trace_out:
            phi0.append(trace_out[0])
    ks = [
        s.kwargs["info_out"]["K"]
        for s in tracer.named("bicriteria_round")
        if s.kwargs.get("info_out")
    ]

    oracles = [s.result for s in tracer.named("brute_force_opt") if s.result is not None]

    def share(layer):
        return layer_s[layer] / op_s if op_s else 0.0

    return {
        "simplex.solve_lp_s": (total("solve_lp"), "s"),
        "simplex.solve_lp_calls": (len(lps), "count"),
        "simplex.pivots": (pivots, "count"),
        "simplex.pivots_per_call": (pivots / len(lps) if lps else 0.0, "count/call"),
        "simplex.tableau_cells": (sum(_tableau_cells(s.args[0]) for s in lps), "count"),
        "simplex.den_bits_max": (den_bits, "bits"),
        "simplex.verify_s": (total("verify_certificate"), "s"),
        "simplex.share": (share("simplex"), "frac"),
        "kc.solve_lp_kc_self_s": (self_total("solve_lp_kc"), "s"),
        "kc.strict_self_s": (self_total("solve_cip_strict"), "s"),
        "kc.rounds": (sum(r.lp_rounds for r in reports), "count"),
        "kc.cut_rows_added": (sum(r.cut_rows_added for r in reports), "count"),
        "kc.lp_calls_per_strict": (
            strict_lp_calls / len(stricts) if stricts else 0.0, "count/call"
        ),
        "kc.pinned_frac": (pinned / strict_vars if strict_vars else 0.0, "frac"),
        "kc.share": (share("kc"), "frac"),
        "rounding.derandomized_s": (total("derandomized_round"), "s"),
        "rounding.granular_self_s": (self_total("granular_round"), "s"),
        "rounding.bicriteria_round_self_s": (self_total("bicriteria_round"), "s"),
        "rounding.decisions": (decisions, "count"),
        "rounding.K": (sum(ks) / len(ks) if ks else 0.0, "1"),
        "rounding.phi0": (sum(phi0) / len(phi0) if phi0 else 0.0, "1"),
        "rounding.share": (share("rounding"), "frac"),
        "oracle.brute_force_s": (total("brute_force_opt"), "s"),
        "oracle.space_points": (sum(r.space_size for r in oracles), "count"),
        "oracle.budget_exceeded_frac": (
            sum(1 for r in oracles if r.status == "BUDGET_EXCEEDED") / len(oracles)
            if oracles else 0.0,
            "frac",
        ),
        "oracle.check_solution_s": (total("check_solution"), "s"),
        "oracle.share": (share("oracle"), "frac"),
        "model.parse_s": (total("parse_instance"), "s"),
        "model.normalize_s": (total("normalize_width"), "s"),
        "model.share": (share("model"), "frac"),
        "trace.overhead_frac": (overhead_frac, "frac"),
    }
