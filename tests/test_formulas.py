"""Closed-form subgroup expressions against brute force and literal semantics."""

import random
from collections import Counter
from itertools import product as iproduct
from math import gcd

import numpy as np
import pytest

import dimfox.formulas as formulas
from dimfox.abelian import Presentation, diagonal_rows
from dimfox.formulas import (
    EnumerationCapError,
    FormulaContext,
    U_subgroup,
    V_subgroup,
    W_subgroup,
    Z2_subgroup,
    corollary_hypotheses,
    dim3_formula,
    dim3_per_modulus,
    dim3_sigma_route,
    fox0_formula,
    fox1_formula,
    fox2_formula,
    fox2_generator_family,
    remark_lower_bound,
)
from dimfox.groupring import CoeffRing, dim_subgroup_brute, fox_subgroup_brute
from dimfox.groups import (
    FiniteGroup,
    GroupError,
    abelian_quotient,
    build_group,
    centre,
    commutator_subgroup,
    cyclic_subgroups,
    generated_subgroup,
    is_prime,
    join,
    lower_central_series,
    make_counterexample,
    p_torsion_mod,
    power_subgroup,
    subgroup_exponent,
    subgroup_from_members,
    trivial_subgroup,
    whole_group,
)
from dimfox.verify import DEFAULT_GROUPS, CorpusConfig, _series_tags, build_cases, resolve_series, run_case

Z = CoeffRing.integers()



def test_U_subgroup_examples():
    C6 = build_group("cyclic:6")
    ctx = FormulaContext(C6, trivial_subgroup(C6), Z)
    assert U_subgroup(ctx, 0).is_trivial()
    D4 = build_group("dihedral:4")
    ctxd = FormulaContext(D4, whole_group(D4), Z)
    g2 = commutator_subgroup(D4, whole_group(D4), whole_group(D4))
    assert U_subgroup(ctxd, 0) == g2
    G, K, z = make_counterexample(2, 1, 1)
    ctxg = FormulaContext(G, K, Z)
    U0 = U_subgroup(ctxg, 0)
    assert z in U0
    x, y = G.generators
    assert G.power(x, 2) in K.members and G.power(G.power(y, 2), 1) in K.members
    assert G.comm(x, G.power(y, 2)) == z


def test_U_and_friends_are_normal_subgroups():
    for spec in ["dihedral:4", "quaternion:8", "dihedral:3"]:
        G = build_group(spec)
        for K in cyclic_subgroups(G)[:4]:
            ctx = FormulaContext(G, K, Z)
            for m in (0, 2):
                assert U_subgroup(ctx, m).is_normal()
            assert V_subgroup(ctx, 2).is_normal()
            assert Z2_subgroup(FormulaContext(G, K, CoeffRing.mod(4))).is_normal()


def test_U_monotone_in_divisibility():
    for spec in ["cyclic:6", "dihedral:4", "cyclic:2 x cyclic:4"]:
        G = build_group(spec)
        for K in cyclic_subgroups(G)[:3]:
            ctx = FormulaContext(G, K, Z)
            for m, mm in [(2, 4), (2, 6), (3, 6), (1, 5)]:
                big = U_subgroup(ctx, m)
                small = U_subgroup(ctx, mm)
                assert big.contains_subgroup(small), (spec, m, mm)
                # generator-condition containment
                assert ctx.KN2Gm(m).contains_subgroup(ctx.KN2Gm(mm))


def test_V_subgroup_examples():
    C4 = build_group("cyclic:4")
    ctx = FormulaContext(C4, trivial_subgroup(C4), Z)
    assert V_subgroup(ctx, 2).members == frozenset({0, 2})
    assert V_subgroup(ctx, 4).members == frozenset({0, 2})
    ctx_full = FormulaContext(C4, whole_group(C4), Z)
    assert V_subgroup(ctx_full, 2).is_whole()
    with pytest.raises(GroupError):
        V_subgroup(ctx, 3)


def test_Z2_subgroup_examples():
    C4 = build_group("cyclic:4")
    # integers: 2 not in sigma
    ctx = FormulaContext(C4, trivial_subgroup(C4), Z)
    assert Z2_subgroup(ctx).is_trivial()
    # Z/3: e(2) = 0, the factor collapses onto the 2-torsion part
    ctx3 = FormulaContext(C4, trivial_subgroup(C4), CoeffRing.mod(3))
    from dimfox.groups import p_torsion_mod

    u0n3 = join(C4, [U_subgroup(ctx3, 0), ctx3.N.term(3)])
    assert Z2_subgroup(ctx3) == p_torsion_mod(C4, u0n3, 2)
    # Z/4: the assembled sigma route must match brute force
    ctx4 = FormulaContext(C4, trivial_subgroup(C4), CoeffRing.mod(4))
    brute = dim_subgroup_brute(C4, trivial_subgroup(C4), ctx4.N, CoeffRing.mod(4))
    assert dim3_sigma_route(ctx4) == brute


def _printed_V(ctx, q, k):
    """{a : a^k in K N_2 G^q}, element by element."""
    G = ctx.G
    target = ctx.KN2Gm(q).members
    return subgroup_from_members(G, [a for a in G.elements() if G.power(a, k) in target])


def printed_per_modulus(ctx):
    """The paper's per-modulus formula as printed: U_m N_3 G^(2m) V^m for
    even m, with the G^(2m) term that dim3_per_modulus proves redundant."""
    G, m = ctx.G, ctx.m
    if m == 0:
        return ctx.U0N3()
    n3 = ctx.N.term(3)
    if m % 2:
        return join(G, [U_subgroup(ctx, m), n3, power_subgroup(G, whole_group(G), m)])
    V = _printed_V(ctx, m, m // 2)
    return join(G, [U_subgroup(ctx, m), n3, power_subgroup(G, whole_group(G), 2 * m), power_subgroup(G, V, m)])


def printed_sigma_route(ctx, literal_exponent=False):
    """The paper's sigma-decomposition formula as printed: Z_2 joins
    U_q N_3 G^(2q) V^q, q = 2^e(2), with V read through the power
    2^(e(2)-1), or through the printed exponent e(2) - 1 itself with
    literal_exponent."""
    G = ctx.G
    u0n3 = ctx.U0N3()
    n3 = ctx.N.term(3)
    parts = [u0n3]
    for p in range(2, G.order + 1):
        e = ctx.ring.sigma_exponent(p)
        if G.order % p or not is_prime(p) or e is None:
            continue
        q = p**e
        bulk = [U_subgroup(ctx, q), n3, power_subgroup(G, whole_group(G), q)]
        if p == 2:
            k = 0 if e == 0 else (e - 1) if literal_exponent else 2 ** (e - 1)
            bulk[2:] = [power_subgroup(G, whole_group(G), 2 * q), power_subgroup(G, _printed_V(ctx, q, k), q)]
        tors = p_torsion_mod(G, u0n3, p)
        parts.append(subgroup_from_members(G, tors.members & join(G, bulk).members))
    return join(G, parts)


def test_dim3_formulas_match_the_printed_forms():
    """Dropping G^(2m) and G^(2q) changes no formula: dim3_per_modulus and
    dim3_sigma_route equal the paper's printed joins over the default
    groups, each cyclic K, each series tag of the corpus, Z/m for m in
    {2, 4, 6, 8} and the sigma rings with e(2) in {0, 1, 2, 3}."""
    rings = [CoeffRing.mod(m) for m in (2, 4, 6, 8)] + [CoeffRing.abstract({2: e}) for e in range(4)]
    count = 0
    for spec in DEFAULT_GROUPS:
        G = build_group(spec)
        for tag in _series_tags(G):
            N = resolve_series(G, tag)
            for K in cyclic_subgroups(G):
                for ring in rings:
                    ctx = FormulaContext(G, K, ring, N)
                    assert dim3_sigma_route(ctx) == printed_sigma_route(ctx), (spec, tag, K.generators, ring)
                    count += 1
                    if ring.is_concrete:
                        assert dim3_per_modulus(ctx) == printed_per_modulus(ctx), (spec, tag, K.generators, ring)
                        count += 1
    assert count == 6060


@pytest.mark.parametrize("spec", ["cyclic:4", "cyclic:6", "cyclic:9", "dihedral:4", "quaternion:8", "dihedral:3"])
@pytest.mark.parametrize("m", [0, 2, 3, 4, 6])
def test_dim3_formula_vs_brute(spec, m):
    G = build_group(spec)
    ring = CoeffRing.parse(m)
    for K in cyclic_subgroups(G):
        ctx = FormulaContext(G, K, ring)
        f = dim3_formula(ctx)
        assert f.routes_agree, (spec, m)
        brute = dim_subgroup_brute(G, K, ctx.N, ring)
        assert brute == f.result, (spec, m, sorted(K.members))


def test_dim3_counterexample():
    G, K, z = make_counterexample(2, 1, 1)
    ctx = FormulaContext(G, K, Z)
    f = dim3_formula(ctx)
    assert z in f.result
    k2g3 = join(G, [commutator_subgroup(G, K, K), ctx.N.term(3)])
    assert k2g3.is_trivial() and len(f.result) == 2


def test_dim3_abstract_ring():
    # localization-style descriptor: sigma = {3} with e(3) = 0
    C6 = build_group("cyclic:6")
    ring = CoeffRing.abstract({3: 0})
    ctx = FormulaContext(C6, trivial_subgroup(C6), ring)
    f = dim3_formula(ctx)
    assert f.result == dim3_sigma_route(ctx)  # the only route for abstract rings
    # factor for p = 3, e = 0: U_1 N_3 G^1 = G, so the 3-torsion enters
    assert f.result.members == frozenset({0, 2, 4})


def test_k2n3_always_inside_formula():
    for spec in ["cyclic:6", "dihedral:4", "quaternion:8"]:
        G = build_group(spec)
        for K in cyclic_subgroups(G):
            for m in (0, 2, 3, 4):
                ctx = FormulaContext(G, K, CoeffRing.parse(m))
                k2n3 = join(
                    G, [commutator_subgroup(G, K, K), ctx.N.term(3)]
                )
                assert dim3_formula(ctx).result.contains_subgroup(k2n3)


def test_fox0_and_fox1():
    C6 = build_group("cyclic:6")
    W = whole_group(C6)
    ctx = FormulaContext(C6, trivial_subgroup(C6), CoeffRing.mod(4), H=W)
    assert fox0_formula(ctx) == W
    f1 = fox1_formula(ctx)
    assert f1.members == frozenset({0, 2, 4})  # H_2 H^4 in additive C6
    ctx2 = FormulaContext(
        build_group("cyclic:2"),
        trivial_subgroup(build_group("cyclic:2")),
        CoeffRing.mod(2),
    )
    # H = C2: H_2 H^2 is trivial
    assert fox1_formula(ctx2).is_trivial()
    ctxz = FormulaContext(C6, trivial_subgroup(C6), Z, H=W)
    assert fox1_formula(ctxz).is_trivial()  # abelian: H_2 = 1


def test_fox1_abstract_ring():
    C6 = build_group("cyclic:6")
    ring = CoeffRing.abstract({2: 1})  # p = 2 stabilizes at exponent 1
    ctx = FormulaContext(C6, trivial_subgroup(C6), ring, H=whole_group(C6))
    # H_2 * (2-torsion of C6)^2 = squares of {0, 3} = trivial
    assert fox1_formula(ctx).is_trivial()
    ring0 = CoeffRing.abstract({2: 0})
    ctx0 = FormulaContext(C6, trivial_subgroup(C6), ring0, H=whole_group(C6))
    assert fox1_formula(ctx0).members == frozenset({0, 3})


def test_modulus_formulas_refuse_a_sigma_ring():
    """FormulaContext.m is the one check in front of every formula that
    reads a modulus m."""
    D4 = build_group("dihedral:4")
    W = whole_group(D4)
    ctx = FormulaContext(D4, trivial_subgroup(D4), CoeffRing.abstract({2: 1}), H=W)
    for formula in (dim3_per_modulus, fox2_formula, fox2_generator_family, remark_lower_bound):
        with pytest.raises(GroupError, match=r"needs Z or Z/m, not sigma \{2: 1\}"):
            formula(ctx)
    # the sigma route and fox1 read sigma only
    assert dim3_formula(ctx).result == dim3_sigma_route(ctx)
    assert fox1_formula(ctx).contains_subgroup(ctx.H2())


def test_fox1_over_Z_is_H2():
    """Over Z no e(p) is finite, so fox1 is H_2."""
    for spec in ["dihedral:4", "quaternion:8", "class2:3,1"]:
        G = build_group(spec)
        for H in cyclic_subgroups(G) + [whole_group(G)]:
            ctx = FormulaContext(G, trivial_subgroup(G), Z, H=H)
            assert fox1_formula(ctx) == commutator_subgroup(G, H, H)


@pytest.mark.parametrize("spec", ["cyclic:4", "cyclic:6", "dihedral:4", "quaternion:8", "cyclic:2 x cyclic:2"])
@pytest.mark.parametrize("m", [0, 2, 3, 4])
def test_fox2_formula_vs_brute(spec, m):
    G = build_group(spec)
    ring = CoeffRing.parse(m)
    subs = cyclic_subgroups(G)
    for H in subs:
        for K in subs:
            ctx = FormulaContext(G, K, ring, H=H)
            brute = fox_subgroup_brute(G, H, K, 2, ring)
            assert fox2_formula(ctx) == brute
            assert brute.contains_subgroup(remark_lower_bound(ctx))


def test_fox2_counterexample_contains_z():
    G, K, z = make_counterexample(2, 1, 1)
    ctx = FormulaContext(G, K, Z, H=whole_group(G))
    f2 = fox2_formula(ctx)
    assert z in f2
    brute = fox_subgroup_brute(G, whole_group(G), K, 2, Z)
    assert f2 == brute


def test_fox2_basis_independence():
    """Different decompositions of H/(H_2 H^m) give the same subgroup."""
    rng = random.Random(6)
    for spec, m in [("cyclic:2 x cyclic:4", 2), ("elementary-abelian:2,3", 2), ("dihedral:4", 4)]:
        G = build_group(spec)
        H = whole_group(G)
        K = trivial_subgroup(G)
        ctx = FormulaContext(G, K, CoeffRing.parse(m), H=H)
        base = fox2_formula(ctx)
        h2 = commutator_subgroup(G, H, H)
        h2hm = join(G, [h2, power_subgroup(G, H, m)])
        sec = abelian_quotient(G, H, h2hm)
        # shuffle the basis: reorder factors with equal invariant, and
        # translate one rep by another of dividing order
        reps = list(sec.reps)
        inv = list(sec.invariants)
        if len(reps) >= 2 and inv[0] == inv[1]:
            reps[0], reps[1] = reps[1], reps[0]
        if len(reps) >= 2 and inv[-1] % inv[0] == 0:
            reps[-1] = G.mul(reps[-1], reps[0])
        from dimfox.groups import AbelianSection
        import numpy as np

        # rebuild a valid section for the altered basis by brute recoordination
        shuffled = _section_from_basis(G, H, h2hm, reps, inv)
        alt = fox2_formula(ctx, decomposition=shuffled)
        assert alt == base, spec


def _subgroup_as_group(G, A):
    """A as a standalone group plus the list mapping new indices to old."""
    elems = sorted(A.members)
    back = np.full(G.order, -1, dtype=np.int64)
    back[elems] = np.arange(len(elems))
    table = back[np.asarray(G.table)[np.ix_(elems, elems)]].tolist()
    names = [G.names[g] for g in elems]
    gens = [int(back[g]) for g in A.generators if back[g] >= 0]
    H = FiniteGroup(table, names, gens, spec=f"sub:{G.spec}", check=False)
    return H, elems


def _section_from_basis(G, H, S, reps, invariants):
    """AbelianSection for a given (valid) basis of H/S."""
    from dimfox.groups import AbelianSection, quotient_group, Subgroup

    Hgrp, elems = _subgroup_as_group(G, H)
    back = {g: i for i, g in enumerate(elems)}
    Ssub = Subgroup(Hgrp, frozenset(back[s] for s in S.members))
    Q, proj, _ = quotient_group(Hgrp, Ssub)
    coords = {}

    def fill(i, elem, acc):
        if i == len(reps):
            assert elem not in coords, "basis is not a direct decomposition"
            coords[elem] = tuple(acc)
            return
        x = elem
        for c in range(invariants[i]):
            fill(i + 1, x, acc + [c])
            x = Q.mul(x, int(proj[back[reps[i]]]))

    fill(0, Q.identity, [])
    assert len(coords) == Q.order
    parent_proj = np.full(G.order, -1, dtype=np.int64)
    for g in H.members:
        parent_proj[g] = proj[back[g]]
    return AbelianSection(tuple(invariants), tuple(reps), parent_proj, coords)


def test_fox2_generator_family_matches_brute():
    for spec in ["cyclic:8", "dihedral:4", "quaternion:8", "cyclic:2 x cyclic:4"]:
        G = build_group(spec)
        subs = [s for s in cyclic_subgroups(G) if len(s) <= 8]
        for H in subs + [whole_group(G)]:
            if len(H) > 8:
                continue
            for K in subs[:4]:
                for m in (0, 2, 3):
                    ctx = FormulaContext(G, K, CoeffRing.parse(m), H=H)
                    fam = fox2_generator_family(ctx)
                    brute = fox_subgroup_brute(G, H, K, 2, CoeffRing.parse(m))
                    assert fam == brute, (spec, len(H), m)


def test_fox2_generator_family_matches_literal_enumeration():
    """The folded scan against raw tuple-space enumeration on tiny inputs."""
    for spec, mods in [("cyclic:4", (0, 2, 3, 4)), ("dihedral:3", (0, 2, 3)), ("cyclic:2 x cyclic:2", (0, 2))]:
        G = build_group(spec)
        subs = [s for s in cyclic_subgroups(G) if len(s) <= 2]
        for H in subs:
            for K in subs:
                for m in mods:
                    ctx = FormulaContext(G, K, CoeffRing.parse(m), H=H)
                    assert fox2_generator_family(ctx) == _literal_family(ctx), (
                        spec,
                        sorted(H.members),
                        sorted(K.members),
                        m,
                    )


def _literal_family(ctx):
    G, H, m = ctx.G, ctx.H, ctx.m
    helems = sorted(H.members)
    E = subgroup_exponent(H)
    C = m * (m - 1) // 2
    h2 = commutator_subgroup(G, H, H)
    h2hm = join(G, [h2, power_subgroup(G, H, m)])
    seeds = set()
    pairs = list(iproduct(helems, helems))
    for a in iproduct(range(E), repeat=len(pairs)):
        A = dict(zip(pairs, a))
        for b in iproduct(range(E), repeat=len(helems)):
            B = dict(zip(helems, b))
            ok = True
            for k in helems:
                found = False
                for dk in range(0, E + 1):
                    if G.power(k, dk) not in h2hm.members:
                        continue
                    target = ctx.KG2Gm(dk).members
                    w = G.identity
                    for h in helems:
                        w = G.mul(w, G.power(h, A[(h, k)] - A[(k, h)] + C * B[h] * B[k]))
                    if w in target:
                        found = True
                        break
                if not found:
                    ok = False
                    break
            if not ok:
                continue
            gen = G.identity
            for hk in pairs:
                gen = G.mul(gen, G.power(G.comm(*hk), A[hk]))
            g = G.identity
            for l in helems:
                g = G.mul(g, G.power(l, B[l]))
            seeds.add(G.mul(gen, G.power(g, m)))
    return generated_subgroup(G, seeds)


def _per_target_family(ctx, elem_order=None):
    """The generator family with one b-scan per target and a budget check
    per exponent, kept as the reference for fox2_generator_family.  It reads
    the caps from dimfox.formulas at call time, so a monkeypatched cap
    applies to both."""
    G, H, m = ctx.G, ctx.H, ctx.m
    helems = sorted(H.members)
    if len(helems) > formulas.FOX_FAMILY_CAP:
        raise EnumerationCapError(f"generator family capped at |H| <= {formulas.FOX_FAMILY_CAP}")
    E = subgroup_exponent(H)
    C = m * (m - 1) // 2
    h2 = ctx.H2()
    h2elems = sorted(h2.members)
    if not commutator_subgroup(G, h2, h2).is_trivial():
        raise EnumerationCapError("commutator letters do not commute; |H| too large")
    h2hm = ctx.H2Hm(m).members
    powers = G.power_rows()
    ex = len(powers)
    d_of = {k: next(t for t in range(1, ex + 1) if powers[t % ex][k] in h2hm) for k in helems}
    sections = {}
    for k in helems:
        if d_of[k] not in sections:
            sections[d_of[k]] = abelian_quotient(G, whole_group(G), ctx.KG2Gm(d_of[k]))
    h2_section = abelian_quotient(G, h2, trivial_subgroup(G)) if len(h2) > 1 else None
    h2_dims = list(h2_section.invariants) if h2_section else []
    block_dims = list(h2_dims)
    block_at = {}
    for k in helems:
        if sections[d_of[k]].invariants:
            block_at[k] = len(block_dims)
            block_dims.extend(sections[d_of[k]].invariants)
    total_dim = len(block_dims)

    def cond_coords(k, g):
        return sections[d_of[k]].coords(g)

    relations = diagonal_rows(block_dims)
    for h in helems:
        for k in helems:
            if h == k:
                continue
            row = [0] * total_dim
            if h2_section is not None:
                for i, x in enumerate(h2_section.coords(G.comm(h, k))):
                    row[i] = x
            if k in block_at:
                for i, x in enumerate(cond_coords(k, h)):
                    row[block_at[k] + i] += x
            if h in block_at:
                for i, x in enumerate(cond_coords(h, k)):
                    row[block_at[h] + i] -= x
            relations.append(row)
    pres = Presentation(relations, total_dim)
    Cgrp = pres.group
    if Cgrp.is_finite and Cgrp.size > formulas.FAMILY_STATE_CAP:
        raise EnumerationCapError("obstruction quotient too large")
    order = list(elem_order) if elem_order is not None else helems
    seeds = set()
    for g_target in helems:
        contrib = {}
        for k in helems:
            row = [0] * total_dim
            if k in block_at and C:
                for i, x in enumerate(cond_coords(k, g_target)):
                    row[block_at[k] + i] = C * x
            contrib[k] = pres.push(row)
        states = {(G.identity, Cgrp.zero()): None}
        for l in order:
            nxt = {}
            obs = Cgrp.zero()
            for t in range(E):
                lp = powers[t][l]
                for p, o in states:
                    nxt[(G.mul(p, lp), Cgrp.add(o, obs))] = None
                obs = Cgrp.add(obs, contrib[l])
                if len(nxt) > formulas.FAMILY_STATE_CAP:
                    raise EnumerationCapError("state budget exceeded")
            states = nxt
        gm = G.power(g_target, m)
        for p, o in states:
            if p != g_target:
                continue
            for w in h2elems:
                row = [0] * total_dim
                if h2_section is not None:
                    for i, x in enumerate(h2_section.coords(w)):
                        row[i] = x
                if pres.push(row) == o:
                    seeds.add(G.mul(w, gm))
    return generated_subgroup(G, seeds)


def _family_outcome(family, ctx):
    """A family's members, or the message of its refusal."""
    try:
        return family(ctx).members
    except EnumerationCapError as exc:
        return str(exc)


def _default_weight2_contexts(keep):
    """A FormulaContext for each default-corpus weight-2 Fox case that
    keep(case, G) selects."""
    groups = {}
    for case in build_cases(CorpusConfig()):
        if case["kind"] != "fox" or case["n"] != 2:
            continue
        G = groups.setdefault(case["group"], build_group(case["group"]))
        if keep(case, G):
            K, H = generated_subgroup(G, case["K"]), generated_subgroup(G, case["H"])
            yield case, FormulaContext(G, K, CoeffRing.parse(case["m"]), H=H)


def _check_family_matches_per_target_scan(monkeypatch, keep, refusing_keep, caps=(4, 16, 64)):
    """The shipped family equals the per-target reference on every selected
    default weight-2 case; with FAMILY_STATE_CAP at each of caps, on the
    cases refusing_keep selects, both refuse the same inputs with the same
    message.  Returns the number of cases checked and, per cap, of refusals."""
    checked = 0
    for case, ctx in _default_weight2_contexts(keep):
        assert _family_outcome(fox2_generator_family, ctx) == _family_outcome(_per_target_family, ctx), case
        checked += 1
    refused = {}
    for cap in caps:
        monkeypatch.setattr(formulas, "FAMILY_STATE_CAP", cap)
        refused[cap] = Counter()
        for case, ctx in _default_weight2_contexts(refusing_keep):
            new = _family_outcome(fox2_generator_family, ctx)
            assert new == _family_outcome(_per_target_family, ctx), (cap, case)
            refused[cap][new if isinstance(new, str) else "ran"] += 1
    return checked, refused


def test_fox2_generator_family_matches_per_target_scan_up_to_order_8(monkeypatch):
    checked, refused = _check_family_matches_per_target_scan(
        monkeypatch, lambda case, G: G.order <= 8, lambda case, G: G.order <= 8 and case["id"] % 3 == 0
    )
    assert checked > 500, checked
    # at cap 4 both refusals are reached, and some case still runs
    assert set(refused[4]) == {"state budget exceeded", "obstruction quotient too large", "ran"}, refused


@pytest.mark.slow
def test_fox2_generator_family_matches_per_target_scan_on_default_corpus(monkeypatch):
    checked, refused = _check_family_matches_per_target_scan(
        monkeypatch, lambda case, G: True, lambda case, G: case["id"] % 3 == 0
    )
    assert checked == 6188, checked
    assert refused[4]["state budget exceeded"] and refused[4]["obstruction quotient too large"], refused


def test_fox2_generator_family_order_invariance():
    """A different scan order for the formal products changes nothing."""
    G = build_group("dihedral:4")
    H = whole_group(G)
    for K in cyclic_subgroups(G)[:3]:
        for m in (0, 2):
            ctx = FormulaContext(G, K, CoeffRing.parse(m), H=H)
            base = fox2_generator_family(ctx)
            alt_order = sorted(H.members, reverse=True)
            alt = fox2_generator_family(ctx, elem_order=alt_order)
            assert base == alt


def test_fox2_generator_family_cap():
    G = build_group("cyclic:16")
    ctx = FormulaContext(G, trivial_subgroup(G), Z, H=whole_group(G))
    with pytest.raises(EnumerationCapError, match=r"generator family capped at \|H\| <= 8$"):
        fox2_generator_family(ctx)


@pytest.mark.parametrize(
    "K_is_whole,message",
    [
        # K = G: the obstruction quotient is trivial, and the scan reaches all 4 elements of C4
        (True, "state budget exceeded"),
        # K = 1: the obstruction quotient has 4 elements
        (False, "obstruction quotient too large"),
    ],
)
def test_fox2_generator_family_state_budget(monkeypatch, K_is_whole, message):
    """On cyclic:4 with H = G over Z, the family runs with FAMILY_STATE_CAP
    at 4 and refuses at 3, with the message of its budget branch."""
    G = build_group("cyclic:4")
    K = whole_group(G) if K_is_whole else trivial_subgroup(G)
    monkeypatch.setattr(formulas, "FAMILY_STATE_CAP", 4)
    ctx = FormulaContext(G, K, Z, H=whole_group(G))
    assert fox2_generator_family(ctx) == fox_subgroup_brute(G, whole_group(G), K, 2, Z)
    monkeypatch.setattr(formulas, "FAMILY_STATE_CAP", 3)
    with pytest.raises(EnumerationCapError, match=f"^{message}$"):
        fox2_generator_family(FormulaContext(G, K, Z, H=whole_group(G)))


def test_fox2_generator_family_needs_commuting_letters(monkeypatch):
    """[S4, S4] = A4 is not abelian, so the a-block is no homomorphism."""
    import dimfox.formulas as formulas

    monkeypatch.setattr(formulas, "FOX_FAMILY_CAP", 24)
    G = build_group({"perm_gens": [[[0, 1, 2, 3]], [[0, 1]]]})
    ctx = FormulaContext(G, trivial_subgroup(G), Z, H=whole_group(G))
    with pytest.raises(EnumerationCapError, match="do not commute"):
        fox2_generator_family(ctx)


def test_fox2_generator_family_builds_no_group(monkeypatch):
    contexts = [
        FormulaContext(G, K, CoeffRing.parse(m), H=whole_group(G))
        for G in (build_group("dihedral:4"), build_group("quaternion:8"))
        for K in cyclic_subgroups(G)[:3]
        for m in (0, 2)
    ]

    def refuse(self, *args, **kwargs):
        raise AssertionError("fox2_generator_family built a FiniteGroup")

    monkeypatch.setattr(FiniteGroup, "__init__", refuse)
    for ctx in contexts:
        fox2_generator_family(ctx)


def test_remark_lower_bound_pieces():
    G, K, z = make_counterexample(2, 1, 1)
    ctx = FormulaContext(G, K, Z, H=whole_group(G))
    # T_1 contains the commutators of H-cap-KG2G^m with itself
    m = 0
    M = ctx.KG2Gm(m)
    inter = [h for h in ctx.H.members if h in M.members]
    lb = remark_lower_bound(ctx)
    for h in inter[:8]:
        for k in inter[:8]:
            assert G.comm(h, k) in lb.members


def test_dim3_formula_builds_each_U_once(monkeypatch):
    """U_m is a fact of G, kept by its member sets: on a cold memo each
    distinct U is built once, and a second context on G builds none."""
    import dimfox.formulas as formulas
    import dimfox.groups as groups

    calls = []
    build = formulas._build_power_commutators

    def counting(G, A, M):
        calls.append((A, M))
        return build(G, A, M)

    monkeypatch.setattr(groups, "_built", {})
    monkeypatch.setattr(formulas, "_build_power_commutators", counting)
    for spec, m in [("cyclic:4", 4), ("cyclic:2 x cyclic:4", 2), ("dihedral:6", 6), ("cyclic:8", 0)]:
        G = build_group(spec)
        calls.clear()
        dim3_formula(FormulaContext(G, trivial_subgroup(G), CoeffRing.parse(m)))
        assert calls and len(calls) == len(set(calls)), (spec, m, calls)
        built = len(calls)
        dim3_formula(FormulaContext(G, trivial_subgroup(G), CoeffRing.parse(m)))
        assert len(calls) == built, (spec, m)


def test_formula_contexts_read_the_lower_central_series_their_group_keeps():
    """The lower central series is a fact of G, built once: every context on
    G, and every formula it runs, reads the one series that G keeps."""
    G, K, _ = make_counterexample(2, 1, 1)
    series = lower_central_series(G)
    for ctx in (FormulaContext(G, K, CoeffRing.mod(4)), FormulaContext(G, trivial_subgroup(G), Z)):
        ctx.KG2Gm(4)
        ctx.KN2Gm(2)
        remark_lower_bound(ctx)
        assert ctx.N is series and ctx.G2() is series.term(2)
    assert lower_central_series(G) is series


def test_the_lower_central_series_is_built_on_first_read(monkeypatch):
    """Fox cases of weight 0 and 1 never build the lower central series of
    their group; a weight-2 case builds it and leaves it on the group; an
    explicit series is returned as is."""
    import dimfox.groups as groups

    monkeypatch.setattr(groups, "_built", {})
    G = build_group("dihedral:4")
    for n in (0, 1, 2):
        report = run_case({"kind": "fox", "group": "dihedral:4", "H": ["r"], "K": ["f"], "n": n, "m": 2})
        assert report["equal"] and (G._lower_central is not None) == (n == 2), n
    series = resolve_series(G, "double")
    ctx = FormulaContext(G, trivial_subgroup(G), Z, series)
    assert ctx.N is series


def _commutator_built_members(m):
    """Member sets of [G, K], the lower central series, U_m and the remark's lower
    bound (which holds T_1 and T_2) on a freshly built class2:2,1."""
    G = build_group("class2:2,1")
    x, y = G.generators
    K = generated_subgroup(G, [G.power(x, 2), y])
    ctx = FormulaContext(G, K, CoeffRing.parse(m), H=generated_subgroup(G, [x, G.power(y, 2)]))
    subs = [commutator_subgroup(G, whole_group(G), K), *lower_central_series(G).chain]
    subs += [U_subgroup(ctx, m), remark_lower_bound(ctx)]
    return [s.members for s in subs]


def test_commutator_subgroups_read_the_table(monkeypatch):
    from dimfox.groups import FiniteGroup

    expected = [_commutator_built_members(m) for m in (0, 2, 3, 4)]

    def refuse(self, a, b):
        raise AssertionError("FiniteGroup.comm called")

    monkeypatch.setattr(FiniteGroup, "comm", refuse)
    assert [_commutator_built_members(m) for m in (0, 2, 3, 4)] == expected


@pytest.mark.parametrize("spec", ["dihedral:4", "cyclic:2 x quaternion:8", "class2:2,1"])
def test_KG2Gm_absorbs_powers_by_gcd(spec):
    # remark_lower_bound reads K G_2 G^m G^q as K G_2 G^gcd(m, q)
    G = build_group(spec)
    for K in cyclic_subgroups(G)[:4]:
        ctx = FormulaContext(G, K, Z)
        for m in (0, 2, 4, 6):
            for q in range(G.exponent()):
                joined = join(G, [ctx.KG2Gm(m), power_subgroup(G, whole_group(G), q)])
                assert joined == ctx.KG2Gm(gcd(m, q)), (K.generators, m, q)


def test_W_subgroup():
    C4 = build_group("cyclic:4")
    ctx = FormulaContext(C4, trivial_subgroup(C4), CoeffRing.mod(2))
    w = W_subgroup(ctx, 2)
    assert w.members == frozenset({0, 2})


def test_corollary_hypotheses():
    D4 = build_group("dihedral:4")
    res = corollary_hypotheses(D4, centre(D4))
    assert res["central_commutator"]
    res2 = corollary_hypotheses(D4, whole_group(D4))
    assert res2["cyclic_quotient"]
    G, K, _ = make_counterexample(2, 1, 1)
    res3 = corollary_hypotheses(G, K)
    assert not any(res3.values())
    # divisible_image against the literal test: x -> x^p is onto K G_2 / G_2 for every prime p
    for spec in DEFAULT_GROUPS:
        G = build_group(spec)
        G2 = lower_central_series(G).term(2)
        for K in cyclic_subgroups(G):
            kg2 = join(G, [K, G2])
            cosets = {min(G.mul(x, s) for s in G2.members) for x in kg2.members}
            divisible = all(
                len({min(G.mul(G.power(c, p), s) for s in G2.members) for c in cosets}) == len(cosets)
                for p in range(2, G.order + 1)
                if all(p % q for q in range(2, p))
            )
            assert corollary_hypotheses(G, K)["divisible_image"] == divisible, (spec, sorted(K.members))


def test_corollary_collapse_when_hypotheses_hold():
    for spec in ["cyclic:6", "dihedral:4", "quaternion:8", "dihedral:3"]:
        G = build_group(spec)
        N = lower_central_series(G)
        for K in cyclic_subgroups(G):
            hyps = corollary_hypotheses(G, K)
            if hyps["central_commutator"] or hyps["central_complement"] or hyps["cyclic_quotient"]:
                D = dim_subgroup_brute(G, K, N, Z)
                k2g3 = join(G, [commutator_subgroup(G, K, K), N.term(3)])
                assert D == k2g3, (spec, sorted(K.members))
