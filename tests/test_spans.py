"""The benchmark tracer's contract with the package: the names it wraps resolve,
and a traced strict solve shows each cut round's LP."""

import importlib.util
from pathlib import Path

from coverpack import kc
from coverpack.genbench import knapsack_gap
from conftest import F

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_spans", _PATH)
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


def test_every_patch_point_resolves():
    missing = [
        (mod.__name__, attr)
        for mod, attr in spans.PATCH_POINTS
        if not callable(getattr(mod, attr, None))
    ]
    assert missing == []
    assert {attr for _, attr in spans.PATCH_POINTS} <= set(spans.LAYER_OF)


def test_traced_strict_solve_records_each_cut_round():
    # knapsack-gap at delta = 1/10 takes two cut rounds at eps = 1/4
    originals = [getattr(mod, attr) for mod, attr in spans.PATCH_POINTS]
    tracer = spans.Tracer()
    with tracer.installed(), tracer.op("strict"):
        _, report = kc.solve_cip_strict(knapsack_gap(F(1, 10)), F(1, 4))
    assert report.lp_rounds == 2
    for name in ("solve_lp", "verify_certificate"):
        recorded = tracer.named(name)
        assert len(recorded) == report.lp_rounds
        assert all(tracer.has_ancestor(s, "solve_lp_kc") for s in recorded)
    assert [s.result.objective_value for s in tracer.named("solve_lp")] == [
        report.fopt, report.fopt_kc
    ]
    assert [getattr(mod, attr) for mod, attr in spans.PATCH_POINTS] == originals
