"""Acceptance suite: one test per exit criterion, exact set equality throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines with timings.  All subgroup comparisons are exact; the
only tolerances are the stated wall-clock budgets.
"""

import time

from dimfox.abelian import (
    DEFAULT_ENUM_CAP,
    AbelianError,
    FgAb,
    all_invariant_shapes,
    check_torsion_square_kernel,
    check_wedge_kernel_identity,
)
from dimfox.formulas import (
    FormulaContext,
    corollary_hypotheses,
    dim3_formula,
    fox0_formula,
    fox1_formula,
    fox2_formula,
    fox2_generator_family,
    remark_lower_bound,
)
from dimfox.groupring import (
    CoeffRing,
    dim_subgroup_brute,
    fox_subgroup_brute,
    nseries_ideal_power,
)
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
    trivial_subgroup,
    whole_group,
)
from dimfox.verify import DEFAULT_GROUPS, resolve_series, verify_four_term, verify_polynomial_sequence

MODULE_T0 = time.time()

Z = CoeffRing.integers()



def corpus_groups():
    out = []
    for spec in DEFAULT_GROUPS:
        G = build_group(spec)
        if G.order <= 16:
            out.append((spec, G))
    return out


def report(num: int, desc: str, ok: bool, t0: float, detail: str = ""):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} ({time.time() - t0:5.1f}s)  {desc}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_counterexample_reproduction():
    t0 = time.time()
    G, K, z = make_counterexample(2, 1, 1)
    N = lower_central_series(G)
    brute = dim_subgroup_brute(G, K, N, Z)
    ctx = FormulaContext(G, K, Z, N)
    formula = dim3_formula(ctx).result
    k2g3 = join(G, [commutator_subgroup(G, K, K), N.term(3)])
    elapsed = time.time() - t0
    ok = (
        G.order == 64
        and z in brute
        and z != G.identity
        and k2g3.is_trivial()
        and brute == formula
        and elapsed <= 60.0
    )
    report(
        1,
        "order-64 counterexample: z in brute D3 over Z, K2G3 trivial, brute = formula",
        ok,
        t0,
        f"|D3|={len(brute)} runtime={elapsed:.1f}s<=60s",
    )


def test_criterion_02_trivial_k_specialization():
    t0 = time.time()
    checked = 0
    ok = True
    for spec, G in corpus_groups():
        N = lower_central_series(G)
        K = trivial_subgroup(G)
        for m in (0, 2, 3, 4, 6):
            ring = CoeffRing.parse(m)
            brute = dim_subgroup_brute(G, K, N, ring)
            formula = dim3_formula(FormulaContext(G, K, ring, N)).result
            if brute != formula:
                ok = False
            checked += 1
    elapsed = time.time() - t0
    report(
        2,
        "trivial-K specialization, all groups of order <= 16, m in {0,2,3,4,6}",
        ok and elapsed <= 300,
        t0,
        f"{checked} cases, runtime {elapsed:.1f}s<=300s",
    )


def _series_for_criterion_3(spec, G):
    tags = ["gamma", "double"]
    if G.is_abelian() and G.order % 2 == 0:
        tags.append("pow2")
    if G.is_abelian() and G.order % 3 == 0:
        tags.append("pow3")
    series = [(t, resolve_series(G, t)) for t in tags]
    if spec == "quaternion:8":
        series.append(("x;x2;1", resolve_series(G, "x;x2;1")))
    return series


def test_criterion_03_general_brute_equals_formula():
    t0 = time.time()
    checked = 0
    nongamma = set()
    ok = True
    for spec, G in corpus_groups():
        gamma = lower_central_series(G)
        for tag, N in _series_for_criterion_3(spec, G):
            if tag != "gamma" and tuple(t.members for t in N.chain) != tuple(
                t.members for t in gamma.chain
            ):
                nongamma.add((spec, tag))
            for K in cyclic_subgroups(G):
                for m in (0, 2, 3, 4):
                    ring = CoeffRing.parse(m)
                    brute = dim_subgroup_brute(G, K, N, ring)
                    formula = dim3_formula(FormulaContext(G, K, ring, N)).result
                    if brute != formula:
                        ok = False
                    checked += 1
    elapsed = time.time() - t0
    ok = ok and len(nongamma) >= 3 and elapsed <= 600
    report(
        3,
        "brute = formula for every cyclic K, lower-central plus non-trivial series",
        ok,
        t0,
        f"{checked} cases, {len(nongamma)} non-gamma series, runtime {elapsed:.1f}s<=600s",
    )


def test_criterion_04_sigma_route_crosscheck():
    t0 = time.time()
    checked = 0
    ok = True
    for spec, G in corpus_groups():
        for K in cyclic_subgroups(G):
            for m in (2, 3, 4, 6):
                f = dim3_formula(FormulaContext(G, K, CoeffRing.parse(m)))
                if not f.routes_agree:
                    ok = False
                checked += 1
    report(
        4,
        "sigma-decomposition route equals the per-modulus route for Z/m",
        ok,
        t0,
        f"{checked} cases",
    )


def test_criterion_05_collapse_conditions():
    t0 = time.time()
    checked = applicable = 0
    ok = True
    for spec, G in corpus_groups():
        N = lower_central_series(G)
        for K in cyclic_subgroups(G):
            hyps = corollary_hypotheses(G, K)
            if hyps["central_commutator"] or hyps["central_complement"] or hyps["cyclic_quotient"]:
                applicable += 1
                brute = dim_subgroup_brute(G, K, N, Z)
                k2g3 = join(G, [commutator_subgroup(G, K, K), N.term(3)])
                if brute != k2g3:
                    ok = False
            checked += 1
    G, K, _ = make_counterexample(2, 1, 1)
    hyps = corollary_hypotheses(G, K)
    ok = ok and not any(hyps.values()) and applicable > 0
    report(
        5,
        "sufficient conditions force collapse; the counterexample meets none",
        ok,
        t0,
        f"{checked} pairs, {applicable} with a hypothesis holding",
    )


def test_criterion_06_fox_weights_0_and_1():
    t0 = time.time()
    checked = 0
    ok = True
    rings = [Z, CoeffRing.mod(2), CoeffRing.mod(3), CoeffRing.mod(4), CoeffRing.mod(6)]
    for spec, G in corpus_groups():
        hs = cyclic_subgroups(G)
        if not whole_group(G) in hs:
            hs = hs + [whole_group(G)]
        K = trivial_subgroup(G)
        for H in hs:
            for ring in rings:
                ctx = FormulaContext(G, K, ring, H=H)
                b0 = fox_subgroup_brute(G, H, K, 0, ring)
                if b0 != H or fox0_formula(ctx) != H:
                    ok = False
                b1 = fox_subgroup_brute(G, H, K, 1, ring)
                if b1 != fox1_formula(ctx):
                    ok = False
                checked += 1
    elapsed = time.time() - t0
    report(
        6,
        "weight-0 slice is exactly H; weight-1 formula matches brute, 5 rings",
        ok and elapsed <= 600,
        t0,
        f"{checked} cases, runtime {elapsed:.1f}s",
    )


def test_criterion_07_fox_weight_2():
    t0 = time.time()
    checked = family_checked = 0
    ok = True
    for spec, G in corpus_groups():
        subs = cyclic_subgroups(G)
        hs = subs if whole_group(G) in subs else subs + [whole_group(G)]
        for H in hs:
            for K in subs:
                for m in (0, 2, 3, 4):
                    ring = CoeffRing.parse(m)
                    ctx = FormulaContext(G, K, ring, H=H)
                    brute = fox_subgroup_brute(G, H, K, 2, ring)
                    formula = fox2_formula(ctx)
                    if brute != formula:
                        ok = False
                    if not brute.contains_subgroup(remark_lower_bound(ctx)):
                        ok = False
                    if len(H) <= 8:
                        fam = fox2_generator_family(ctx)
                        if fam != brute or fam != formula:
                            ok = False
                        family_checked += 1
                    checked += 1
    elapsed = time.time() - t0
    report(
        7,
        "weight-2 formula = brute on all (G, H, K); generator family agrees for |H| <= 8",
        ok and elapsed <= 600,
        t0,
        f"{checked} cases, {family_checked} with direct family, runtime {elapsed:.1f}s",
    )


def test_criterion_08_torsion_square_kernel():
    t0 = time.time()
    checked = 0
    ok = True
    for shape in all_invariant_shapes(64):
        A = FgAb(shape)
        for m in range(13):
            if not check_torsion_square_kernel(A, m).ok:
                ok = False
            checked += 1
    elapsed = time.time() - t0
    report(
        8,
        "quadratic-map kernel matches its closed form, |A| <= 64, m in 0..12",
        ok and elapsed <= 60,
        t0,
        f"{checked} checks, runtime {elapsed:.1f}s<=60s",
    )


def fgab_subgroups(A: FgAb, cap: int = DEFAULT_ENUM_CAP) -> list[frozenset]:
    """All subgroups of a finite group, as element sets.

    Join closure of the cyclic subgroups; deterministic order by size
    then sorted members.  Each subgroup found keeps the generators it was
    spanned from, and a join is spanned from those and one more cyclic
    generator, not from every member.
    """
    if not A.is_finite:
        raise AbelianError("subgroup enumeration needs a finite group")
    cyclics: dict[frozenset, tuple] = {}
    for a in A.elements(cap):
        cyclics.setdefault(A.span([a], cap), a)
    found = {c: [a] for c, a in cyclics.items()}
    frontier = list(found)
    while frontier:
        nxt = []
        for s in frontier:
            for c, a in cyclics.items():
                if c <= s:
                    continue
                j = A.span(found[s] + [a], cap)
                if j not in found:
                    found[j] = found[s] + [a]
                    nxt.append(j)
        frontier = nxt
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def test_criterion_09_wedge_kernel_identity():
    t0 = time.time()
    checked = 0
    ok = True
    for shape in all_invariant_shapes(32):
        A = FgAb(shape)
        for sub in fgab_subgroups(A):
            gens = [list(g) for g in sorted(sub)]
            if not check_wedge_kernel_identity(A, gens).ok:
                ok = False
            checked += 1
    assert checked == 1029
    report(
        9,
        "wedge/tensor kernel identity for every subgroup of every A, |A| <= 32",
        ok,
        t0,
        f"{checked} pairs",
    )


def four_term_cases():
    cases = []
    G64, _, _ = make_counterexample(2, 1, 1)
    c = G64.comm(*G64.generators)
    cases.append(("class2:2,1 K=<c>", G64, generated_subgroup(G64, [c])))
    D4 = build_group("dihedral:4")
    cases.append(("dihedral:4 K=centre", D4, centre(D4)))
    cases.append(("dihedral:4 K=<r>", D4, generated_subgroup(D4, [1])))
    Q8 = build_group("quaternion:8")
    cases.append(("quaternion:8 K=centre", Q8, centre(Q8)))
    cases.append(("quaternion:8 K=<x>", Q8, generated_subgroup(Q8, [1])))
    S3 = build_group("dihedral:3")
    cases.append(("dihedral:3 K=rotations", S3, generated_subgroup(S3, [1])))
    for spec in ("cyclic:4", "cyclic:6", "cyclic:2 x cyclic:4", "elementary-abelian:2,3"):
        G = build_group(spec)
        cases.append((f"{spec} K=1", G, trivial_subgroup(G)))
        cases.append((f"{spec} K=G2..", G, power_subgroup(G, whole_group(G), 2)))
    return cases


def test_criterion_10_four_term_exactness():
    t0 = time.time()
    cases = four_term_cases()
    ok = len(cases) >= 10
    for label, G, K in cases:
        r = verify_four_term(G, K, lower_central_series(G))
        if not r.equal:
            ok = False
    report(
        10,
        "four-term sequence exact at all three checkable spots",
        ok,
        t0,
        f"{len(cases)} cases",
    )


def test_criterion_11_polynomial_sequence():
    t0 = time.time()
    cases = four_term_cases()
    ok = True
    count = 0
    for label, G, K in cases:
        for ring in (Z, CoeffRing.mod(2), CoeffRing.mod(3)):
            r = verify_polynomial_sequence(G, K, lower_central_series(G), ring)
            if not r.equal:
                ok = False
            count += 1
    report(
        11,
        "relative polynomial sequence: middle/right exactness and derivation law",
        ok,
        t0,
        f"{count} case-ring pairs",
    )


def test_criterion_12_property_suite():
    t0 = time.time()
    ok = True
    # filtration containments and slice closure on a corpus sample
    for spec in ("cyclic:6", "dihedral:4", "quaternion:8", "cyclic:2 x cyclic:4", "dihedral:3"):
        G = build_group(spec)
        N = lower_central_series(G)
        for ring in (Z, CoeffRing.mod(2), CoeffRing.mod(4)):
            prev = None
            for n in (1, 2, 3, 4):
                span = nseries_ideal_power(G, N, n, ring)
                if prev is not None:
                    for row in span.canonical():
                        if not prev.contains_row(row):
                            ok = False
                prev = span
    # containment chain and collapse consistency, slice closure implied
    for spec, G in corpus_groups()[:12]:
        N = lower_central_series(G)
        for K in cyclic_subgroups(G)[:4]:
            for m in (0, 2, 3):
                ring = CoeffRing.parse(m)
                ctx = FormulaContext(G, K, ring, N)
                formula = dim3_formula(ctx).result
                brute = dim_subgroup_brute(G, K, N, ring)
                k2n3 = join(G, [commutator_subgroup(G, K, K), N.term(3)])
                if not formula.contains_subgroup(k2n3):
                    ok = False
                if brute != formula:
                    ok = False
    # weight-2 relative Fox with H = G against the third dimension subgroup
    for spec in ("cyclic:4", "dihedral:4", "quaternion:8", "cyclic:2 x cyclic:4"):
        G = build_group(spec)
        N = lower_central_series(G)
        for K in cyclic_subgroups(G):
            if not K.is_normal():
                continue
            for m in (0, 2, 3):
                ring = CoeffRing.parse(m)
                ctx = FormulaContext(G, K, ring, H=whole_group(G))
                if fox2_formula(ctx) != dim_subgroup_brute(G, K, N, ring):
                    ok = False
    # basis independence of the finitely-generated enumeration
    from test_formulas import _section_from_basis

    for spec, m in (("cyclic:2 x cyclic:4", 2), ("elementary-abelian:2,3", 2)):
        G = build_group(spec)
        H = whole_group(G)
        K = trivial_subgroup(G)
        ctx = FormulaContext(G, K, CoeffRing.parse(m), H=H)
        base = fox2_formula(ctx)
        from dimfox.groups import abelian_quotient

        h2 = commutator_subgroup(G, H, H)
        h2hm = join(G, [h2, power_subgroup(G, H, m)])
        sec = abelian_quotient(G, H, h2hm)
        reps, inv = list(sec.reps), list(sec.invariants)
        if len(reps) >= 2 and inv[0] == inv[1]:
            reps[0], reps[1] = reps[1], reps[0]
        shuffled = _section_from_basis(G, H, h2hm, reps, inv)
        if fox2_formula(ctx, decomposition=shuffled) != base:
            ok = False
    total = time.time() - MODULE_T0
    ok = ok and total <= 900
    report(
        12,
        "property sweep (filtration, containments, H=G consistency, basis choice)",
        ok,
        t0,
        f"whole acceptance module: {total:.0f}s <= 900s",
    )
