#!/usr/bin/env python3
"""Self-test of the benchmark code, at the smallest size of each workload.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it checks that:

* the metrics printed untraced are exactly BENCHMARK.json's end-to-end
  metrics, and the traced ones exactly its per-layer metrics, with the
  same units;
* every op passes its exact re-check;
* two runs with the same seed give the same corpus and output digest,
  and the traced run gives the same digest as the untraced ones;
* a different seed gives a different corpus.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import run

SEED, OTHER_SEED = 11, 12


def main() -> int:
    run.import_coverpack()
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    expect(
        sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
        "BENCHMARK.json names every workload and no other",
    )
    for name in workloads.WORKLOADS:
        def once(seed, trace):
            argv = ["--workload", name, "--seed", str(seed), "--seconds", "1",
                    "--trace", str(trace)]
            report = run.run(argv, smallest=True, write_files=False)
            line = json.loads(run.result_line(report))
            units = {k: m["unit"] for k, m in line["metrics"].items()}
            expect(units == wanted[trace], f"{name} trace {trace}: metric names and units")
            expect(
                line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                f"{name} trace {trace}: every op passes its re-check",
            )
            return report

        first, second = once(SEED, 0), once(SEED, 0)
        traced, other = once(SEED, 1), once(OTHER_SEED, 0)
        expect(
            first["corpus_fingerprint"] == second["corpus_fingerprint"]
            and first["digest"] == second["digest"],
            f"{name}: same seed, same corpus and digest",
        )
        expect(
            traced["digest"] == traced["traced_digest"] == first["digest"],
            f"{name}: traced run gives the untraced digest",
        )
        expect(
            other["corpus_fingerprint"] != first["corpus_fingerprint"],
            f"{name}: another seed changes the corpus",
        )
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
