"""Seeded inputs for the three benchmark workloads and the checked call into dimfox.

A workload is one *round*: a fixed list of items built from the seed.
An item is either a `verify.run_case` case dict or a lemma check on an
`FgAb`; dimfox receives nothing else.  The runner repeats the round in a
closed loop, so every run of a seed sees the same items in the same mix.

Known answers are checked here, next to the call, so a run that posts
numbers has also shown that every verdict is right.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter, defaultdict

import dimfox.abelian as abelian
import dimfox.verify as verify
from dimfox.abelian import FgAb, all_invariant_shapes
from dimfox.groups import (
    build_group,
    centre,
    commutator_subgroup,
    cyclic_subgroups,
    generated_subgroup,
    join,
    lower_central_series,
    make_counterexample,
    power_subgroup,
    whole_group,
)

WORKLOADS = ("corpus", "large", "homology")

# corpus: items per round, drawn from the default campaign by stratified
# sampling, so each stratum (kind, group, series, weight, modulus, |K|, |H|)
# keeps the same count on every seed and only the chosen cases change.
# The subgroup orders are in the stratum because they set a case's cost:
# without them the median case time moved three times as much between
# seeds (simulated from the measured cost of every case in the campaign).
CORPUS_ROUND = 1000

# large: (group, kind, modulus, draws) slots.  K and H are drawn from the
# group's cyclic subgroups once, with LARGE_DRAW_SEED; the run's seed then
# conjugates each case by a seeded element of its group (K and H by the same
# one).  A conjugated case is the same case up to an automorphism of the
# group, so it is the same work on other element labels: the seed changes
# the inputs dimfox sees but not how much work they are, while drawing K
# and H afresh per seed moved a round's cost by up to a quarter.  Cases on
# abelian groups have no other conjugates and are the same on every seed.
# The dim3 cases are the slowest.  The round stays near 7 s on a quiet host
# so that three rounds and the flagship verdicts between them fit in a run.
LARGE_SLOTS = (
    ("class2:2,1", "fox", 0, 2),
    ("class2:2,1", "fox", 3, 2),
    ("class2:2,1", "fox", 4, 2),
    ("dihedral:32", "fox", 0, 1),
    ("dihedral:32", "fox", 3, 1),
    ("dihedral:32", "fox", 4, 1),
    ("class2:2,1", "dim3", 0, 1),
    ("class2:2,1", "dim3", 4, 1),
    ("dihedral:32", "dim3", 0, 1),
    ("cyclic:9 x cyclic:9", "dim3", 0, 1),
    ("cyclic:4 x quaternion:8", "dim3", 0, 1),
    ("cyclic:3 x dihedral:6", "fox", 3, 1),
)
# Left out: cyclic:2 x class2:2,1 (order 128).  One dim3 case takes about
# 4 s over Z/4 and 16 s over Z, too long to repeat three times in a run.

LARGE_DRAW_SEED = 1

FLAGSHIP = {"kind": "counterexample", "p": 2, "r": 1, "s": 1}
FLAGSHIP_SLICE = ["1", "c2"]  # D_3 of the order-64 group over Z is {1, [x,y]^2}

WEDGE_MAX_ORDER = 32  # Lemma 2.7 on every shape with |A| <= 32
TORSION_MAX_ORDER = 64  # Lemma 2.8 on every shape with |A| <= 64
TORSION_MAX_M = 12
LEMMA_PASSES = 4  # a lemma check takes a fraction of a millisecond; time it 4 times a round


def case_item(case: dict) -> dict:
    ring = "Z" if case.get("m", 0) == 0 else "Zm"  # counterexample and four_term run over Z
    return {"id": case["id"], "op": "case", "ring": ring, "case": case}


def _stratum(case: dict) -> tuple:
    return (case["kind"], case.get("group", ""), case.get("series", ""), case.get("n", -1), case.get("m", -1))


def _allocate(sizes: dict, total: int) -> dict:
    """Largest-remainder split of `total` in proportion to `sizes`; seed-free."""
    n = sum(sizes.values())
    quota = {k: total * v / n for k, v in sizes.items()}
    alloc = {k: int(q) for k, q in quota.items()}
    rest = total - sum(alloc.values())
    for k in sorted(quota, key=lambda k: (alloc[k] - quota[k], k))[:rest]:
        alloc[k] += 1
    return alloc


def corpus_items(seed: int) -> list[dict]:
    cases = verify.build_cases(verify.CorpusConfig())
    groups, orders = {}, {}

    def order(spec: str, gens) -> int:
        key = (spec, tuple(gens))
        if key not in orders:
            if spec not in groups:
                groups[spec] = build_group(spec)
            orders[key] = len(generated_subgroup(groups[spec], list(gens)))
        return orders[key]

    strata = defaultdict(list)
    for case in cases:
        sizes = (order(case["group"], case["K"]), order(case["group"], case["H"]) if "H" in case else 0) \
            if "group" in case else ()
        strata[_stratum(case) + sizes].append(case)
    alloc = _allocate({k: len(v) for k, v in strata.items()}, CORPUS_ROUND)
    rng = random.Random(seed)
    chosen = []
    for key in sorted(strata):
        chosen += rng.sample(strata[key], alloc[key])
    rng.shuffle(chosen)
    return [case_item(c) for c in chosen]


def _gens(sub) -> list[int]:
    return [int(g) for g in sub.generators]


def _conjugate(G, g: int, gens: list[int]) -> list[int]:
    return [int(G.conj(g, a)) for a in gens]


def large_items(seed: int) -> list[dict]:
    draw = random.Random(LARGE_DRAW_SEED)
    rng = random.Random(seed)
    groups = {g: build_group(g) for g in sorted({slot[0] for slot in LARGE_SLOTS})}
    subs = {g: cyclic_subgroups(G) for g, G in groups.items()}
    cases = [dict(FLAGSHIP)]
    for spec, kind, m, draws in LARGE_SLOTS:
        G = groups[spec]
        for _ in range(draws):
            g = rng.randrange(G.order)
            case = {"kind": kind, "group": spec, "K": _conjugate(G, g, _gens(draw.choice(subs[spec]))), "m": m}
            if kind == "dim3":
                case["series"] = "gamma"
            else:
                case.update(H=_conjugate(G, g, _gens(draw.choice(subs[spec]))), n=2)
            cases.append(case)
    rng.shuffle(cases)
    for i, case in enumerate(cases):
        case["id"] = i
    return [case_item(c) for c in cases]


def exactness_pairs() -> list[tuple[str, list[int]]]:
    """The (G, K) pairs of the four-term and polynomial-sequence criteria."""
    G = build_group("class2:2,1")
    pairs = [("class2:2,1", [int(G.comm(*G.generators))])]
    for spec in ("dihedral:4", "quaternion:8"):
        pairs.append((spec, _gens(centre(build_group(spec)))))
        pairs.append((spec, [1]))
    pairs.append(("dihedral:3", [1]))
    for spec in ("cyclic:4", "cyclic:6", "cyclic:2 x cyclic:4", "elementary-abelian:2,3"):
        G = build_group(spec)
        pairs.append((spec, []))
        pairs.append((spec, _gens(power_subgroup(G, whole_group(G), 2))))
    return pairs


def _spread(rng: random.Random, values, count: int) -> list:
    """`count` picks from `values`: each run of len(values) consecutive picks is
    a seeded permutation of them.  The shapes come in order of size, so every
    value meets small and large shapes alike on every seed; drawing each pick
    independently moved the median lemma check by a tenth between seeds."""
    values = list(values)
    out = []
    while len(out) < count:
        out += rng.sample(values, len(values))
    return out[:count]


def homology_items(seed: int) -> list[dict]:
    rng = random.Random(seed)
    cases = []
    for spec, K in exactness_pairs():
        cases.append({"kind": "four_term", "group": spec, "K": K, "series": "gamma"})
        for m in (0, 2, 3):
            cases.append({"kind": "polynomial", "group": spec, "K": K, "series": "gamma", "m": m})
    items = []
    for i, case in enumerate(cases):
        case["id"] = i
        items.append(case_item(case))
    wedge_shapes = all_invariant_shapes(WEDGE_MAX_ORDER)
    for shape, gens in zip(wedge_shapes, _spread(rng, (1, 2), len(wedge_shapes))):
        B = [[rng.randrange(d) for d in shape] for _ in range(gens)]
        items.append({"id": len(items), "op": "wedge", "ring": None, "shape": list(shape), "B": B,
                      "passes": LEMMA_PASSES})
    torsion_shapes = all_invariant_shapes(TORSION_MAX_ORDER)
    for shape, m in zip(torsion_shapes, _spread(rng, range(TORSION_MAX_M + 1), len(torsion_shapes))):
        items.append({"id": len(items), "op": "torsion_square", "ring": None, "shape": list(shape), "m": m,
                      "passes": LEMMA_PASSES})
    rng.shuffle(items)
    return items


def build_items(workload: str, seed: int) -> list[dict]:
    items = {"corpus": corpus_items, "large": large_items, "homology": homology_items}[workload](seed)
    for item in items:
        if "shape" in item:
            item["A"] = FgAb(tuple(item["shape"]))
    return items


def items_digest(items: list[dict]) -> str:
    """sha256 of the round's inputs, so separate interpreters can be compared."""
    plain = [{k: v for k, v in it.items() if k != "A"} for it in items]
    return hashlib.sha256(json.dumps(plain, sort_keys=True).encode()).hexdigest()


def kind_counts(items: list[dict]) -> Counter:
    return Counter((it["op"], it.get("case", {}).get("kind"), it.get("case", {}).get("n")) for it in items)


def flagship_facts() -> list[str]:
    """Known answers about the order-64 group that the flagship verdict rests on."""
    G, K, z = make_counterexample(FLAGSHIP["p"], FLAGSHIP["r"], FLAGSHIP["s"])
    problems = []
    if G.order != 64:
        problems.append(f"flagship group has order {G.order}, expected 64")
    k2g3 = join(G, [commutator_subgroup(G, K, K), lower_central_series(G).term(3)])
    if not k2g3.is_trivial():
        problems.append(f"K_2G_3 of the flagship is {sorted(k2g3.member_names())}, expected 1")
    if G.names[z] not in FLAGSHIP_SLICE:
        problems.append(f"flagship z is {G.names[z]}, expected in {FLAGSHIP_SLICE}")
    return problems


def _flagship_problem(report: dict) -> str | None:
    extra = report.get("extra", {})
    if report["lhs"] != FLAGSHIP_SLICE or report["rhs"] != FLAGSHIP_SLICE:
        return f"flagship slice {report['lhs']} / formula {report['rhs']}, expected {FLAGSHIP_SLICE}"
    if not (report.get("counterexample") and extra.get("z_in_brute")):
        return "flagship counterexample flag or z_in_brute not set"
    return None


def execute(item: dict) -> tuple[dict, str | None]:
    """Run one item through dimfox; return its result record and any problem.

    Functions are looked up on their modules at call time so that an
    installed tracer sees the call.
    """
    op = item["op"]
    if op == "case":
        report = verify.run_case(item["case"])
        record = {"case": report["case"], "lhs": report["lhs"], "rhs": report["rhs"], "equal": report["equal"]}
        problem = None
        if not (report["equal"] and all(report["containments"].values())):
            bad = sorted(k for k, v in report["containments"].items() if not v)
            problem = f"verdict not ok: equal={report['equal']} failed={bad}"
        elif item["case"]["kind"] == "counterexample":
            problem = _flagship_problem(report)
        return record, problem
    if op == "wedge":
        result = abelian.check_wedge_kernel_identity(item["A"], item["B"])
        lhs, rhs = [result.detail["lhs_rank"]], [result.detail["rhs_rank"]]
    elif op == "torsion_square":
        result = abelian.check_torsion_square_kernel(item["A"], item["m"])
        lhs, rhs = [result.detail["kernel_size"]], [result.detail["formula_size"]]
    else:
        raise ValueError(f"unknown item op {op!r}")
    case = {k: item[k] for k in ("op", "shape", "B", "m") if k in item}
    record = {"case": case, "lhs": lhs, "rhs": rhs, "equal": result.ok}
    return record, None if result.ok else f"lemma check failed: {result.detail}"


def results_digest(records: dict) -> str:
    """sha256 over each item's (case, lhs, rhs, equal), in item-id order."""
    body = json.dumps([records[k] for k in sorted(records)], sort_keys=True, default=str)
    return hashlib.sha256(body.encode()).hexdigest()
