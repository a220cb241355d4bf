import json
from dataclasses import fields, replace

import pytest

from coverpack import genbench
from coverpack.genbench import (
    BenchResult,
    BenchRow,
    GeneratorSpec,
    gen_multiset_multicover,
    gen_random_cpip,
    gen_set_cover,
    generate,
    knapsack_gap,
    run_bench,
)
from coverpack.kc import solve_cip_strict
from coverpack.model import InstanceError, normalize_width
from coverpack.oracle import brute_force_opt
from coverpack.rounding import solve_cpip_bicriteria
from coverpack.simplex import lp_from_instance, solve_lp
from conftest import F


class TestKnapsackGap:
    def test_fractional_vs_integer_optima(self):
        inst = knapsack_gap(F(1, 2))
        assert solve_lp(lp_from_instance(inst)).objective_value == F(1, 2)
        assert brute_force_opt(inst).cost == 1

    def test_gap_grows_like_inverse_delta(self):
        inst = knapsack_gap(F(1, 100))
        fopt = solve_lp(lp_from_instance(inst)).objective_value
        assert brute_force_opt(inst).cost / fopt == 100

    def test_pinned_cut_is_delta_row(self):
        from coverpack.kc import kc_system

        delta = F(3, 10)
        inst = knapsack_gap(delta)
        system = kc_system(inst, {0})
        # 0 x1 + delta x2 >= delta, over the row's denominator 10
        assert system.rows == (((0, 3, 3), 10),)
        assert [F(v, 10) for v in system.rows[0][0]] == [0, delta, delta]

    def test_delta_range_validated(self):
        for bad in (0, 1, F(3, 2)):
            with pytest.raises(InstanceError):
                knapsack_gap(bad)


class TestSetCover:
    def test_full_density_covers_with_cheapest_set(self):
        inst = gen_set_cover(4, 5, density=1.0, seed=3)
        assert all(v == 1 for row in inst.A for v in row)
        fopt = solve_lp(lp_from_instance(inst)).objective_value
        assert fopt == min(inst.c)

    def test_reproducible(self):
        assert gen_set_cover(5, 6, 0.4, seed=9) == gen_set_cover(5, 6, 0.4, seed=9)

    def test_every_element_covered(self):
        for seed in range(50):
            inst = gen_set_cover(6, 7, density=0.3, seed=seed)
            assert all(any(v == 1 for v in row) for row in inst.A)
            assert inst.d == tuple(F(1) for _ in range(inst.n))


class TestGenerators:
    def test_random_cpip_always_lp_feasible(self):
        for seed in range(30):
            inst = gen_random_cpip(4, 5, 2, seed=seed)
            assert solve_lp(lp_from_instance(inst)).status == "OPTIMAL"

    def test_random_cpip_emitted_normalized(self):
        from coverpack.model import is_width_normalized

        for seed in range(10):
            assert is_width_normalized(gen_random_cpip(3, 4, 1, seed=seed))

    def test_pure_covering_when_r_zero(self):
        inst = gen_random_cpip(3, 4, 0, seed=2)
        assert inst.r == 0

    def test_scalar_instance_full_pipeline(self):
        inst = gen_random_cpip(1, 1, 0, seed=0)
        xb, _ = solve_cpip_bicriteria(inst, 1)
        xs, rep = solve_cip_strict(inst, 1)
        oracle = brute_force_opt(inst)
        assert oracle.status == "OPTIMAL"
        assert rep.cost >= oracle.cost

    def test_multiset_max_multiplicity_hit(self):
        for seed in range(10):
            inst = gen_multiset_multicover(3, 5, seed=seed, d_max=2)
            assert max(v for v in inst.d) == 2
            assert all(v == int(v) for row in inst.A for v in row)


class TestRunBench:
    def test_gap_sweep_strict_ratio_is_one(self):
        specs = [
            GeneratorSpec("KNAPSACK_GAP", delta=dv)
            for dv in (F(1, 2), F(1, 10), F(1, 100), F(1, 1000))
        ]
        result = run_bench(specs, [F(1)], include_timing=False)
        assert len(result.rows) == 4
        for row in result.rows:
            assert row.error is None
            assert row.strict_ratio_opt == 1.0
        assert result.aggregates["strict_vs_opt_max"] == 1.0

    def test_empty_spec_set(self):
        result = run_bench([], [F(1)])
        assert result.rows == []
        assert result.to_text()  # header renders fine

    def test_same_seed_bit_identical_without_timing(self):
        specs = [
            GeneratorSpec("RANDOM_CPIP", m=3, n=4, r=1, seed=5),
            GeneratorSpec("SET_COVER", m=4, n=5, density=0.5, seed=6),
        ]
        a = run_bench(specs, [F(1, 2)], include_timing=False)
        b = run_bench(specs, [F(1, 2)], include_timing=False)
        assert a.to_jsonl() == b.to_jsonl()
        assert a.to_text() == b.to_text()

    def test_failures_recorded_not_raised(self):
        # delta missing, or a size that is not an int (once a TypeError):
        # generation fails in the generator's readers, harness keeps going
        specs = [
            GeneratorSpec("KNAPSACK_GAP"),
            GeneratorSpec("SET_COVER", m="a"),
            GeneratorSpec("KNAPSACK_GAP", delta=F(1, 2)),
        ]
        result = run_bench(specs, [F(1)], include_timing=False)
        assert [row.error for row in result.rows] == [
            "InstanceError: delta: expected a number, got None",
            "InstanceError: num_elements = 'a' must be an int >= 1",
            None,
        ]

    def test_text_renders_an_error_row_and_an_oracle_over_budget(self):
        # a missing delta fails its row; a 589,824-point box is over the oracle's budget
        specs = [
            GeneratorSpec("KNAPSACK_GAP", delta=None),
            GeneratorSpec("RANDOM_CPIP", m=4, n=10, r=2, seed=0),
        ]
        box = normalize_width(generate(specs[1]))
        assert brute_force_opt(box, max_points=genbench.ORACLE_MAX_POINTS).space_size > (
            genbench.ORACLE_MAX_POINTS
        )
        result = run_bench(specs, [F(1)], include_timing=False)
        names = [f.name for f in fields(BenchRow)]
        header, error, over = result.to_text().splitlines()[:3]
        assert header.split() == names
        # the error row's long cell widens no column: the header is as with a short error
        short = BenchResult([replace(result.rows[0], error="x"), result.rows[1]])
        assert header == short.to_text().splitlines()[0]
        cells = error.split(None, len(names) - 1)
        # the 1x2, r = 0 shape that knapsack_gap always builds, not the spec's defaults
        assert cells[:6] == ["knapsack_gap-0", "KNAPSACK_GAP", "1", "2", "0", "1"]
        assert set(cells[6:-1]) == {"-"}
        assert cells[-1] == "InstanceError: delta: expected a number, got None"
        # opt, strict_ratio_opt and time_ms: the "-" of a value not found
        cells = over.split()
        assert len(cells) == len(names)
        got = dict(zip(names, cells))
        assert got["opt"] == got["strict_ratio_opt"] == got["time_ms"] == got["error"] == "-"
        assert result.rows[1].opt is None and result.rows[1].strict_cost is not None

    def test_text_carries_every_field_of_the_machine_rows(self):
        # an error row, packing rows (max_pack_excess) and timed rows, at two epsilons
        specs = [
            GeneratorSpec("KNAPSACK_GAP", delta=None),
            GeneratorSpec("KNAPSACK_GAP", delta=F(1, 10)),
            GeneratorSpec("MULTISET_MULTICOVER", m=3, n=4, r=1, seed=6),
            GeneratorSpec("RANDOM_CPIP", m=3, n=4, r=1, seed=9),
        ]
        result = run_bench(specs, [F(1, 4), F(1)])
        names = [f.name for f in fields(BenchRow)]
        table, aggregates = result.to_text().split("\n\n")
        header, *lines = table.splitlines()
        assert header.split() == names
        *machine, last = map(json.loads, result.to_jsonl().splitlines())
        assert len(lines) == len(machine) == len(result.rows) == 8
        for line, row in zip(lines, machine):
            cells = line.split(None, len(names) - 1)
            assert len(cells) == len(names)
            for name, cell in zip(names, cells):
                want = row.get(name)
                if want is None:
                    assert cell == "-"
                else:
                    assert cell == want if isinstance(want, str) else json.loads(cell) == want
        assert {"max_pack_excess", "L", "time_ms", "error"} <= {k for r in machine for k in r}
        assert aggregates.splitlines() == [f"{k}: {v}" for k, v in last["aggregates"].items()]

    def test_a_failed_row_counts_in_no_aggregate(self, monkeypatch):
        # the first strict solve fails after its row's bicriteria ratio was set
        specs = [GeneratorSpec("RANDOM_CPIP", m=3, n=4, r=1, seed=s) for s in (9, 5)]
        calls = []

        def strict_failing_once(inst, eps):
            calls.append(inst)
            if len(calls) == 1:
                raise RuntimeError("strict failed")
            return solve_cip_strict(inst, eps)

        monkeypatch.setattr(genbench, "solve_cip_strict", strict_failing_once)
        result = run_bench(specs, [F(1)], include_timing=False)
        failed, kept = result.rows
        assert failed.error == "RuntimeError: strict failed"
        assert failed.bicriteria_ratio_fopt != kept.bicriteria_ratio_fopt
        assert result.aggregates == run_bench(specs[1:], [F(1)], include_timing=False).aggregates

    @pytest.mark.parametrize("stage", ["generate", "normalize_width", "solve_cpip_bicriteria"])
    def test_a_failed_row_reports_the_sizes_of_its_instance(self, stage, monkeypatch):
        # a knapsack-gap instance is 1x2 with r = 0, whatever the spec's m, n and r
        # say; a failed generate or normalize_width left the spec's 4, 5 and 0 in the row
        def failing(*args):
            raise RuntimeError(f"{stage} failed")

        monkeypatch.setattr(genbench, stage, failing)
        spec = GeneratorSpec("KNAPSACK_GAP", delta=F(1, 2))
        assert (spec.m, spec.n, spec.r) == (4, 5, 0)
        (row,) = run_bench([spec], [1]).rows
        assert (row.m, row.n, row.r, row.error) == (1, 2, 0, f"RuntimeError: {stage} failed")

    @pytest.mark.parametrize("eps", [2, 0, F(-1, 2), "x"])
    def test_epsilon_refused_before_any_instance(self, eps, monkeypatch):
        # an epsilon of 2 used to reach every row's error text, after each
        # instance was generated and normalized
        generated = []
        monkeypatch.setattr(genbench, "generate", lambda spec: generated.append(spec))
        spec = GeneratorSpec("KNAPSACK_GAP", delta=F(1, 2))
        with pytest.raises(InstanceError, match="epsilon"):
            run_bench([spec], [F(1), eps], include_timing=False)
        assert generated == []

    def test_unknown_family_rejected(self):
        with pytest.raises(InstanceError):
            GeneratorSpec("NO_SUCH_FAMILY")

    def test_generate_dispatch(self):
        for fam in ("SET_COVER", "MULTISET_MULTICOVER", "RANDOM_CPIP"):
            inst = generate(GeneratorSpec(fam, m=3, n=4, seed=1))
            assert inst.n >= 1


@pytest.mark.parametrize("density", [0, -0.5, 1.5])
def test_spec_density_outside_unit_interval_rejected(density):
    with pytest.raises(InstanceError, match=r"density .* outside \(0, 1\]"):
        GeneratorSpec(family="SET_COVER", density=density)
