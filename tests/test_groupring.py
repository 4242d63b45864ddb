"""Group-algebra spans, ideals, and brute-force subgroup slices."""

import random
from itertools import product as iproduct

import pytest

from dimfox.groupring import (
    CoeffRing,
    ModuleSpan,
    augmentation_ideal,
    dim_subgroup_brute,
    elem_minus_one,
    fox_modules,
    fox_subgroup_brute,
    group_slice,
    membership,
    left_ideal_product,
    module_quotient_presentation,
    nseries_ideal_power,
    quotient_invariants,
    right_ideal_product,
    row_multiply,
    row_translate,
    row_translate_right,
    span_product,
    span_sum,
    translate_closure,
    zero_span,
)
from dimfox.groups import (
    FiniteGroup,
    GroupError,
    NSeries,
    build_group,
    commutator_subgroup,
    cyclic_subgroups,
    generated_subgroup,
    join,
    lower_central_series,
    make_counterexample,
    trivial_subgroup,
    whole_group,
)

Z = CoeffRing.integers()


def ideal_power_naive(G: FiniteGroup, N: NSeries, n: int, ring: CoeffRing) -> ModuleSpan:
    """Reference generator set for the filtration ideal, with no shortcuts.

    Takes every product over every weight tuple (parts up to n, length
    up to n, total weight >= n) and every two-sided translate
    g * product * h.  Exponentially slower than the composition
    construction; only for validating it on small groups.
    """
    out = ModuleSpan(G, ring)
    tuples: list[tuple[int, ...]] = []

    def comps(prefix: list[int]):
        if prefix and sum(prefix) >= n:
            tuples.append(tuple(prefix))
        if len(prefix) < n:
            for k in range(1, n + 1):
                comps(prefix + [k])

    comps([])
    seen_pools = set()
    for comp in tuples:
        pools = [
            [a for a in sorted(N.term(k).members) if a != G.identity] for k in comp
        ]
        key = tuple(tuple(p) for p in pools)
        if key in seen_pools or any(not p for p in pools):
            continue
        seen_pools.add(key)

        def rec(i, acc):
            if i == len(pools):
                for g in G.elements():
                    left = row_translate(G, g, acc)
                    out.lattice.add(left)
                    for h in G.elements():
                        out.lattice.add(row_translate_right(G, left, h))
                return
            for a in pools[i]:
                rec(i + 1, row_multiply(G, acc, elem_minus_one(G, a)))

        one = [0] * G.order
        one[G.identity] = 1
        rec(0, one)
    return out


def translate_closure_naive(span: ModuleSpan) -> ModuleSpan:
    """R-span of all left G-translates of the given span."""
    G = span.group
    out = ModuleSpan(G, span.ring)
    base = span.canonical()
    for g in G.elements():
        for row in base:
            out.lattice.add(row_translate(G, g, row))
    return out


def test_coeffring_parse_and_sigma():
    assert CoeffRing.parse("Z") == Z
    assert CoeffRing.parse("Z/6").modulus == 6
    assert CoeffRing.parse("0") == Z
    with pytest.raises(GroupError):
        CoeffRing.parse("Q")
    assert Z.sigma_exponent(2) is None
    R12 = CoeffRing.mod(12)
    assert R12.sigma_exponent(2) == 2
    assert R12.sigma_exponent(3) == 1
    assert R12.sigma_exponent(5) == 0
    ab = CoeffRing.abstract({3: 1}, 0)
    assert ab.sigma_exponent(3) == 1 and ab.sigma_exponent(2) is None
    assert not ab.is_concrete


def test_augmentation_ideal_basics():
    C2 = build_group("cyclic:2")
    span = augmentation_ideal(C2, whole_group(C2), Z)
    assert span.canonical() == ((1, -1),)
    assert augmentation_ideal(C2, trivial_subgroup(C2), Z).is_zero()
    # coefficients of every canonical row sum to zero
    C6 = build_group("cyclic:6")
    for row in augmentation_ideal(C6, whole_group(C6), Z).canonical():
        assert sum(row) == 0
    # rank |G| - 1 over Z
    assert len(augmentation_ideal(C6, whole_group(C6), Z).canonical()) == 5


def test_span_product_examples():
    C2 = build_group("cyclic:2")
    I = augmentation_ideal(C2, whole_group(C2), Z)
    I2 = span_product(I, I)
    # (x-1)^2 = -2(x-1)
    assert membership(C2, [2, -2], I2)
    assert not membership(C2, [1, -1], I2)
    assert span_product(zero_span(C2, Z), I).is_zero()


def test_span_product_associative_sampled():
    D4 = build_group("dihedral:4")
    I = augmentation_ideal(D4, whole_group(D4), Z)
    K = augmentation_ideal(D4, generated_subgroup(D4, [2]), Z)
    H = augmentation_ideal(D4, generated_subgroup(D4, [4]), Z)
    left = span_product(span_product(I, K), H)
    right = span_product(I, span_product(K, H))
    assert left == right


def test_span_sum_idempotent_and_filtration():
    C4 = build_group("cyclic:4")
    I = augmentation_ideal(C4, whole_group(C4), Z)
    I2 = span_product(I, I)
    I3 = span_product(I2, I)
    assert span_sum([I, zero_span(C4, Z)]) == I
    assert span_sum([I2, I2]) == I2
    assert span_sum([I2, I3]) == I2  # containment
    for low, high in [(I2, I), (I3, I2)]:
        for row in low.canonical():
            assert high.contains_row(row)


def test_nseries_ideal_power_examples():
    C2 = build_group("cyclic:2")
    N = lower_central_series(C2)
    I3 = nseries_ideal_power(C2, N, 3, Z)
    assert I3.canonical() == ((4, -4),)
    I3m = nseries_ideal_power(C2, N, 3, CoeffRing.mod(4))
    assert I3m.is_zero()
    I1 = nseries_ideal_power(C2, N, 1, Z)
    assert I1 == augmentation_ideal(C2, whole_group(C2), Z)


@pytest.mark.parametrize("spec", ["cyclic:4", "cyclic:6", "dihedral:4", "quaternion:8"])
@pytest.mark.parametrize("m", [0, 2, 4])
def test_ideal_power_matches_naive(spec, m):
    """Composition construction against the no-shortcut generator set."""
    G = build_group(spec)
    ring = Z if m == 0 else CoeffRing.mod(m)
    N = lower_central_series(G)
    for n in (2, 3):
        fast = nseries_ideal_power(G, N, n, ring)
        naive = ideal_power_naive(G, N, n, ring)
        assert fast == naive, (spec, m, n)


@pytest.mark.parametrize("m", [0, 2])
def test_ideal_power_matches_naive_nongamma(m):
    """Same comparison for series other than the lower central one."""
    from dimfox.groups import validate_nseries, whole_group as wg

    ring = Z if m == 0 else CoeffRing.mod(m)
    # doubled lower central series on dihedral:4
    D4 = build_group("dihedral:4")
    g = lower_central_series(D4)
    doubled = validate_nseries(
        D4, [g.term((i + 1) // 2) for i in range(1, 2 * len(g.chain) + 1)]
    )
    # power chain on cyclic:4
    C4 = build_group("cyclic:4")
    power_chain = validate_nseries(
        C4,
        [wg(C4), generated_subgroup(C4, [2]), trivial_subgroup(C4)],
    )
    for G, N in ((D4, doubled), (C4, power_chain)):
        for n in (2, 3):
            assert nseries_ideal_power(G, N, n, ring) == ideal_power_naive(G, N, n, ring)


def test_gamma_powers_are_plain_powers():
    for spec in ["cyclic:6", "dihedral:4", "quaternion:8", "cyclic:2 x cyclic:4"]:
        G = build_group(spec)
        N = lower_central_series(G)
        I = augmentation_ideal(G, whole_group(G), Z)
        plain = I
        for n in (2, 3, 4):
            plain = span_product(plain, I)
            assert nseries_ideal_power(G, N, n, Z) == plain


def test_membership_examples():
    C4 = build_group("cyclic:4")
    I = augmentation_ideal(C4, whole_group(C4), Z)
    assert membership(C4, [0, 0, 0, 0], I)
    assert membership(C4, elem_minus_one(C4, 1), I)
    I3 = nseries_ideal_power(C4, lower_central_series(C4), 3, CoeffRing.mod(2))
    assert not membership(C4, elem_minus_one(C4, 2), I3)


def test_membership_against_dense_solver():
    """Reduction against the canonical form vs direct coefficient search."""
    rng = random.Random(1)
    for spec, m in [("cyclic:4", 2), ("cyclic:6", 3), ("dihedral:3", 4)]:
        G = build_group(spec)
        ring = CoeffRing.mod(m)
        rows = []
        for _ in range(3):
            rows.append([rng.randrange(m) for _ in range(G.order)])
        span = ModuleSpan(G, ring, rows)
        for _ in range(20):
            v = [rng.randrange(m) for _ in range(G.order)]
            brute = False
            for coeffs in iproduct(range(m), repeat=len(rows)):
                got = [
                    sum(c * r[j] for c, r in zip(coeffs, rows)) % m
                    for j in range(G.order)
                ]
                if got == v:
                    brute = True
                    break
            assert span.contains_row(v) == brute


def test_group_slice_examples():
    C4 = build_group("cyclic:4")
    assert group_slice(C4, zero_span(C4, Z)).is_trivial()
    I = augmentation_ideal(C4, whole_group(C4), Z)
    assert group_slice(C4, I).is_whole()
    # weight-2 slice recovers the commutator subgroup
    for spec in ["dihedral:4", "quaternion:8", "dihedral:3", "class2:2,1"]:
        G = build_group(spec)
        N = lower_central_series(G)
        I2 = nseries_ideal_power(G, N, 2, Z)
        assert group_slice(G, I2) == N.term(2), spec


def test_dim_subgroup_brute_examples():
    C6 = build_group("cyclic:6")
    N = lower_central_series(C6)
    assert dim_subgroup_brute(C6, trivial_subgroup(C6), N, 3, Z).is_trivial()
    D4 = build_group("dihedral:4")
    ND = lower_central_series(D4)
    D = dim_subgroup_brute(D4, whole_group(D4), ND, 3, Z)
    assert D == ND.term(2)
    with pytest.raises(GroupError):
        dim_subgroup_brute(D4, whole_group(D4), ND, 3, CoeffRing.abstract({}, 0))
    with pytest.raises(GroupError):
        G, K, _ = make_counterexample(2, 1, 1)
        dim_subgroup_brute(G, K, lower_central_series(G), 3, Z, max_order=32)


def test_dim_brute_counterexample():
    G, K, z = make_counterexample(2, 1, 1)
    N = lower_central_series(G)
    D = dim_subgroup_brute(G, K, N, 3, Z)
    assert z in D
    k2n3 = join(G, [commutator_subgroup(G, K, K), N.term(3)])
    assert k2n3.is_trivial()
    assert len(D) == 2


def test_dim_brute_antitone_in_weight():
    for spec in ["cyclic:4", "dihedral:4", "cyclic:6"]:
        G = build_group(spec)
        N = lower_central_series(G)
        K = trivial_subgroup(G)
        prev = None
        for n in (1, 2, 3, 4):
            D = dim_subgroup_brute(G, K, N, n, Z)
            if prev is not None:
                assert prev.contains_subgroup(D)
            prev = D


def test_fox_brute_examples():
    for spec in ["cyclic:4", "dihedral:3"]:
        G = build_group(spec)
        subs = cyclic_subgroups(G)
        for H in subs:
            for K in subs:
                for ring in (Z, CoeffRing.mod(4)):
                    assert fox_subgroup_brute(G, H, K, 0, ring) == H
    # n = 1 over Z recovers the derived subgroup of H
    D4 = build_group("dihedral:4")
    W = whole_group(D4)
    h2 = commutator_subgroup(D4, W, W)
    assert fox_subgroup_brute(D4, W, trivial_subgroup(D4), 1, Z) == h2


def test_fox_brute_prefix_forms_agree():
    for spec in ["cyclic:6", "dihedral:4", "quaternion:8"]:
        G = build_group(spec)
        subs = cyclic_subgroups(G)
        for H in subs[:4]:
            for K in subs[:4]:
                for n in (1, 2):
                    for ring in (Z, CoeffRing.mod(2), CoeffRing.mod(6)):
                        prefixed, plain = fox_modules(G, H, K, n, ring)
                        assert group_slice(G, prefixed) == group_slice(G, plain)


def test_fox_equals_dim_when_h_is_g():
    """I(K)I(G) + I^2(G)I(G) = I(K)I(G) + I^3(G) as slices."""
    for spec in ["cyclic:4", "dihedral:4", "cyclic:2 x cyclic:4"]:
        G = build_group(spec)
        N = lower_central_series(G)
        for K in cyclic_subgroups(G):
            if not K.is_normal():
                continue
            for ring in (Z, CoeffRing.mod(2), CoeffRing.mod(3)):
                fox = fox_subgroup_brute(G, whole_group(G), K, 2, ring)
                dim = dim_subgroup_brute(G, K, N, 3, ring)
                assert fox == dim


def test_quotient_invariants_examples():
    C2 = build_group("cyclic:2")
    I = augmentation_ideal(C2, whole_group(C2), Z)
    I2 = span_product(I, I)
    I3 = span_product(I2, I)
    assert quotient_invariants(I, I) == ()
    assert quotient_invariants(I3, I) == (4,)
    assert quotient_invariants(I2, I) == (2,)
    C4 = build_group("cyclic:4")
    IC4 = augmentation_ideal(C4, whole_group(C4), Z)
    I2C4 = span_product(IC4, IC4)
    assert quotient_invariants(I2C4, IC4) == (4,)
    with pytest.raises(GroupError):
        quotient_invariants(IC4, I2C4)  # containment violated


def test_augmentation_quotient_is_abelianization():
    """I(H)/I^2(H) carries exactly the invariant factors of H/[H,H]."""
    from dimfox.groups import abelian_quotient

    for spec in ["cyclic:6", "dihedral:4", "quaternion:8", "cyclic:2 x cyclic:4", "dihedral:3"]:
        G = build_group(spec)
        I = augmentation_ideal(G, whole_group(G), Z)
        I2 = span_product(I, I)
        h2 = commutator_subgroup(G, whole_group(G), whole_group(G))
        sec = abelian_quotient(G, whole_group(G), h2)
        assert quotient_invariants(I2, I) == sec.invariants, spec


def test_module_quotient_presentation_coords():
    C4 = build_group("cyclic:4")
    I = augmentation_ideal(C4, whole_group(C4), Z)
    I3 = nseries_ideal_power(C4, lower_central_series(C4), 3, Z)
    pres, coords = module_quotient_presentation(I3, I)
    rng = random.Random(4)
    # coords is additive on sampled pairs of ideal elements
    basis = [list(r) for r in I.canonical()]
    for _ in range(20):
        u = [rng.randint(-3, 3) for _ in basis]
        v = [rng.randint(-3, 3) for _ in basis]
        ru = [sum(c * b[j] for c, b in zip(u, basis)) for j in range(4)]
        rv = [sum(c * b[j] for c, b in zip(v, basis)) for j in range(4)]
        s = [x + y for x, y in zip(ru, rv)]
        assert coords(s) == pres.group.add(coords(ru), coords(rv))


def test_row_multiply_is_ring_product():
    D4 = build_group("dihedral:4")
    rng = random.Random(2)
    for _ in range(20):
        a = [rng.randint(-2, 2) for _ in range(8)]
        b = [rng.randint(-2, 2) for _ in range(8)]
        out = row_multiply(D4, a, b)
        expected = [0] * 8
        for i in range(8):
            for j in range(8):
                expected[D4.mul(i, j)] += a[i] * b[j]
        assert out == expected


def _non_normal_first(G: FiniteGroup):
    """Nontrivial cyclic subgroups, the non-normal ones first."""
    subs = [S for S in cyclic_subgroups(G) if not S.is_trivial()]
    return sorted(subs, key=lambda S: (S.is_normal(), sorted(S.members)))


# quaternion:8 has no non-normal subgroup; its K and H are non-central instead
@pytest.mark.parametrize(
    "spec", ["dihedral:4", "quaternion:8", "class2:2,1", "cyclic:3 x dihedral:3"]
)
@pytest.mark.parametrize("m", [0, 4, 3])
def test_generator_products_match_span_product(spec, m):
    """Each generator-based product equals span_product of the same factors,
    and the worklist R(G)-closure equals the all-translates closure."""
    G = build_group(spec)
    ring = Z if m == 0 else CoeffRing.mod(m)
    whole = whole_group(G)
    K, H = _non_normal_first(G)[:2]
    assert spec == "quaternion:8" or not (K.is_normal() or H.is_normal())
    ig = augmentation_ideal(G, whole, ring)
    ik, ih = augmentation_ideal(G, K, ring), augmentation_ideal(G, H, ring)
    ig2 = right_ideal_product(ig, whole)
    assert ig2 == span_product(ig, ig)
    assert right_ideal_product(ig2, H) == span_product(ig2, ih)
    assert left_ideal_product(K, ig) == span_product(ik, ig)
    N = lower_central_series(G)
    j2 = nseries_ideal_power(G, N, 2, ring)
    assert right_ideal_product(j2, N.term(2)) == span_product(
        j2, augmentation_ideal(G, N.term(2), ring)
    )
    ik_ih = span_product(ik, ih)
    assert translate_closure(ik_ih) == translate_closure_naive(ik_ih)
    assert translate_closure(ih) == translate_closure_naive(ih)


def test_dim_subgroup_brute_never_calls_span_product(monkeypatch):
    import dimfox.groupring as groupring

    def refuse(A, B):
        raise AssertionError("span_product called")

    monkeypatch.setattr(groupring, "span_product", refuse)
    G = build_group("dihedral:4")
    K = generated_subgroup(G, [G.index_of("f")])
    for ring in (Z, CoeffRing.mod(4)):
        dim_subgroup_brute(G, K, lower_central_series(G), 3, ring)
