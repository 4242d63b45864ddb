"""Self-tests of the benchmark itself; run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that the tracer wraps every alias, that tracing does not change
any answer, that the corpus seed changes the inputs but not the mix,
that a wrong or raising case is caught and counted, and that
BENCHMARK.json names exactly the metrics run.py prints.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

import run

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def test_tracer_covers_every_alias(w) -> None:
    import dimfox.groupring as groupring
    import dimfox.intlinalg as intlinalg
    import dimfox.verify as verify
    from tracer import LAYERS, Tracer

    originals = (verify.span_product, groupring.span_product, intlinalg.IntLattice.add)
    tracer = Tracer()
    tracer.install()
    try:
        check(not tracer.unwrapped_aliases(), f"no dimfox alias of a wrapped function is left unwrapped "
                                              f"{tracer.unwrapped_aliases()}")
        check(verify.span_product is groupring.span_product is not originals[0],
              "verify.span_product and groupring.span_product are the same wrapper")
        layers = {name.split(".")[0] for name in tracer.names}
        check(set(LAYERS) <= layers, f"every layer has wrapped functions: {sorted(layers)}")
    finally:
        tracer.uninstall()
    restored = (verify.span_product, groupring.span_product, intlinalg.IntLattice.add)
    check(all(a is b for a, b in zip(originals, restored)), "uninstall restores the original functions")


def test_trace_keeps_answers(w) -> None:
    from tracer import Tracer

    for workload, count in (("corpus", 60), ("homology", 60), ("large", 4)):
        items = sorted(w.build_items(workload, 7), key=lambda it: str(it["id"]))[:count]
        loop = run.Loop(w, items)
        plain, _ = loop.run_round()
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = loop.run_round()
        finally:
            tracer.uninstall()
        check(plain == traced and not loop.problems,
              f"{workload}: traced and untraced results_sha256 agree on {len(items)} items")


def test_corpus_seed_changes_inputs_not_mix(w) -> None:
    a, b = w.build_items("corpus", 1), w.build_items("corpus", 2)
    check(w.items_digest(a) != w.items_digest(b), "corpus: another seed gives other inputs")
    check(w.kind_counts(a) == w.kind_counts(b), "corpus: per-kind case counts do not depend on the seed")
    strata = [Counter(w._stratum(it["case"]) for it in items) for items in (a, b)]
    check(strata[0] == strata[1], "corpus: per-stratum case counts do not depend on the seed")
    check(w.items_digest(a) == w.items_digest(w.build_items("corpus", 1)), "corpus: the same seed gives the same inputs")


def test_wrong_or_raising_case_is_caught(w) -> None:
    import dimfox.verify as verify

    flagship = w.case_item({**w.FLAGSHIP, "id": 0})
    bad_group = w.case_item({"kind": "dim3", "group": "no-such-group:3", "K": [], "series": "gamma", "m": 0, "id": 1})
    small = w.case_item({"kind": "dim3", "group": "cyclic:4", "K": [1], "series": "gamma", "m": 0, "id": 2})
    real = verify.run_case

    def lying(case):
        report = real(case)
        if case["kind"] == "counterexample":
            report["lhs"] = ["1"]
        return report

    verify.run_case = lying
    try:
        loop = run.Loop(w, [flagship, bad_group, small])
        loop.run_round()
    finally:
        verify.run_case = real
    check(loop.attempted == 3 and loop.failed == 2, f"a wrong flagship slice and a raising case are both failures "
                                                   f"(attempted {loop.attempted}, failed {loop.failed})")
    check(any("item 1: raised" in p for p in loop.problems), "the raising case is recorded with its id and error")
    check(len(loop.times[2]) == 1, "the loop keeps running after a raising case")


def test_benchmark_json_names_match(w) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END],
          "BENCHMARK.json end_to_end names match run.py")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics(),
          "BENCHMARK.json per_layer names and units match run.py")
    check([x["name"] for x in spec["workloads"]] == list(w.WORKLOADS), "BENCHMARK.json workloads match workloads.py")


def main() -> int:
    w = run.import_program()
    for test in (
        test_tracer_covers_every_alias,
        test_trace_keeps_answers,
        test_corpus_seed_changes_inputs_not_mix,
        test_wrong_or_raising_case_is_caught,
        test_benchmark_json_names_match,
    ):
        test(w)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
