"""Group-algebra spans, ideals, and brute-force subgroup slices."""

import random
from collections import Counter
from itertools import product as iproduct
from math import gcd

import pytest

from dimfox.groupring import (
    CoeffRing,
    ModuleSpan,
    augmentation_ideal,
    dim_modules,
    dim_subgroup_brute,
    elem_minus_one,
    fox_module,
    fox_subgroup_brute,
    group_slice,
    left_ideal_product,
    module_quotient_presentation,
    nseries_ideal_power,
    right_ideal_product,
    row_multiply,
    row_translate,
    row_translate_right,
    slice_ring,
    span_product,
    translate_closure,
)
from dimfox.groups import (
    FiniteGroup,
    GroupError,
    NSeries,
    all_subgroups,
    build_group,
    commutator_subgroup,
    cyclic_subgroups,
    generated_subgroup,
    join,
    lower_central_series,
    make_counterexample,
    normal_subgroups,
    nseries_from_level2,
    quotient_group,
    small_generators,
    trivial_subgroup,
    validate_nseries,
    whole_group,
)
from dimfox.intlinalg import lattice_from_rows
from dimfox.verify import DEFAULT_GROUPS, CorpusConfig, _series_tags, build_cases, resolve_series

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

        rec(0, {G.identity: 1})
    return out


def row_map(v) -> dict:
    """A dense coefficient row as the {column: entry} map of its nonzero
    entries, the one row format of R(G)."""
    return {j: c for j, c in enumerate(v) if c}


def span_sum(parts) -> ModuleSpan:
    """The sum of spans of one group and ring, from their canonical rows."""
    out = ModuleSpan(parts[0].group, parts[0].ring)
    for part in parts:
        assert part.group is out.group and part.ring == out.ring
        for row in part.canonical():
            out.lattice.add(list(row))
    return out


def lifted(span: ModuleSpan) -> ModuleSpan:
    """The span in the coordinates of R(G): a span kept in the coordinates
    of R(G)I(H) has its basis lifted back and the modulus seeded again."""
    G, m = span.group, span.ring.modulus
    return ModuleSpan(G, span.ring, lattice_from_rows(span.ring_maps(), G.order, m))


def composed_ideal_power(G: FiniteGroup, N: NSeries, n: int, ring: CoeffRing) -> ModuleSpan:
    """J_n as the sum I(N_n) + sum_{j<n} J_{n-j}*I(N_j) of separately built
    spans, each product a `right_ideal_product`."""
    J: dict[int, ModuleSpan] = {}
    for k in range(1, n + 1):
        parts = [augmentation_ideal(G, N.term(k), ring)]
        parts += [right_ideal_product(J[k - j], N.term(j)) for j in range(1, k)]
        J[k] = span_sum(parts)
    return J[n]


def composed_dim_module(G, K, N, n, ring) -> ModuleSpan:
    """I(K)I(G) + J_n from separately built spans."""
    ig = augmentation_ideal(G, whole_group(G), ring)
    return span_sum([left_ideal_product(K, ig), composed_ideal_power(G, N, n, ring)])


def composed_fox_modules(G, H, K, n, ring) -> tuple[ModuleSpan, ModuleSpan]:
    """R(G)I(K)I(H) + I^n(G)I(H) and I(K)I(H) + I^n(G)I(H) from separately
    built spans: I^n(G) as right products by G, then by H; I(K)I(H) as a
    `span_product`; the R(G) prefix as a `translate_closure`."""
    ih = augmentation_ideal(G, H, ring)
    if n == 0:
        rg_ih = translate_closure(ih)
        return rg_ih, rg_ih
    ik_ih = span_product(augmentation_ideal(G, K, ring), ih)
    whole = whole_group(G)
    power = augmentation_ideal(G, whole, ring)
    for _ in range(n - 1):
        power = right_ideal_product(power, whole)
    power_ih = right_ideal_product(power, H)
    return span_sum([translate_closure(ik_ih), power_ih]), span_sum([ik_ih, power_ih])


def translate_closure_naive(span: ModuleSpan) -> ModuleSpan:
    """R-span of all left G-translates of the given span."""
    G = span.group
    out = ModuleSpan(G, span.ring)
    base = span.ring_maps()
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
    ab = CoeffRing.abstract({3: 1})
    assert ab.sigma_exponent(3) == 1 and ab.sigma_exponent(2) is None
    assert not ab.is_concrete


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: CoeffRing(1), "characteristic 1 "),
        (lambda: CoeffRing(-3), "characteristic -3 "),
        (lambda: CoeffRing.parse("Z/1"), "characteristic 1 "),
        (lambda: CoeffRing(2, ((2, 1),)), r"sigma \{2: 1\} needs characteristic 0, not 2"),
        (lambda: CoeffRing.abstract({4: 1}), r"e\(4\) = 1 "),
        (lambda: CoeffRing.abstract({3: -1}), r"e\(3\) = -1 "),
        (lambda: CoeffRing.abstract({2**61 - 1: 1}), r"e\(2305843009213693951\) = 1 needs a prime p of at most 12"),
        (lambda: CoeffRing.parse("Z/" + "7" * 5000), "cannot parse ring 'Z/777"),
    ],
    ids=[
        "char-1", "char-negative", "parse-Z/1", "sigma-in-char-2", "sigma-key-4",
        "sigma-exponent-negative", "sigma-key-too-long", "modulus-too-long",
    ],
)
def test_coeffring_refuses_impossible_descriptors(build, named):
    with pytest.raises(GroupError, match=named):
        build()


def test_coeffring_has_one_descriptor_per_ring():
    """Z is the sigma ring with no finite e(p), and Z/n reads e(p) = v_p(n)."""
    assert CoeffRing.abstract({}) == CoeffRing.integers() == CoeffRing.parse("Z/0")
    assert hash(CoeffRing.abstract({})) == hash(Z)
    assert CoeffRing.abstract({3: 1, 2: 0}) == CoeffRing.abstract({2: 0, 3: 1})
    R12 = CoeffRing.mod(12)
    assert [R12.sigma_exponent(p) for p in (2, 3, 5, 7, 11, 13)] == [2, 1, 0, 0, 0, 0]
    assert CoeffRing.mod(2**5 * 3).sigma_exponent(2) == 5
    assert R12.is_concrete and Z.is_concrete and not CoeffRing.abstract({2: 1}).is_concrete


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
    assert I2.contains_row({0: 2, 1: -2})
    assert not I2.contains_row({0: 1, 1: -1})
    assert span_product(ModuleSpan(C2, Z), I).is_zero()


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
    assert span_sum([I, ModuleSpan(C4, Z)]) == I
    assert span_sum([I2, I2]) == I2
    assert span_sum([I2, I3]) == I2  # containment
    for low, high in [(I2, I), (I3, I2)]:
        for row in low.ring_maps():
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
    assert I.contains_row({})
    assert I.contains_row(elem_minus_one(C4, 1))
    I3 = nseries_ideal_power(C4, lower_central_series(C4), 3, CoeffRing.mod(2))
    assert not I3.contains_row(elem_minus_one(C4, 2))


def test_membership_against_dense_solver():
    """Reduction against the canonical form vs direct coefficient search."""
    rng = random.Random(1)
    for spec, m in [("cyclic:4", 2), ("cyclic:6", 3), ("dihedral:3", 4)]:
        G = build_group(spec)
        ring = CoeffRing.mod(m)
        rows = []
        for _ in range(3):
            rows.append([rng.randrange(m) for _ in range(G.order)])
        span = ModuleSpan(G, ring, lattice_from_rows(rows, G.order, m))
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
            assert span.contains_row(row_map(v)) == brute


def test_group_slice_examples():
    C4 = build_group("cyclic:4")
    assert group_slice(C4, ModuleSpan(C4, Z)).is_trivial()
    I = augmentation_ideal(C4, whole_group(C4), Z)
    assert group_slice(C4, I).is_whole()
    # weight-2 slice recovers the commutator subgroup
    for spec in ["dihedral:4", "quaternion:8", "dihedral:3", "class2:2,1"]:
        G = build_group(spec)
        N = lower_central_series(G)
        I2 = nseries_ideal_power(G, N, 2, Z)
        assert group_slice(G, I2) == N.term(2), spec


def test_group_slice_leaves_no_dense_canonical_form():
    """A slice reads its module through membership alone: after
    `group_slice` of a freshly built module, as after `canonical_maps`, the
    lattice caches no dense canonical tuple (a rank x |G| table the slice
    never reads)."""
    for spec, m in (("dihedral:4", 0), ("class2:2,1", 0), ("class2:2,1", 4)):
        G = build_group(spec)
        ring = CoeffRing.parse(m)
        K = cyclic_subgroups(G)[-1]
        N = lower_central_series(G)
        span = dim_modules(G, K, N, ring)
        assert group_slice(G, span) == dim_subgroup_brute(G, K, N, ring)
        assert span.lattice._canonical is None, spec
        span.ring_maps()
        assert span.lattice._canonical is None, spec


def test_dim_subgroup_brute_examples():
    C6 = build_group("cyclic:6")
    N = lower_central_series(C6)
    assert dim_subgroup_brute(C6, trivial_subgroup(C6), N, Z).is_trivial()
    D4 = build_group("dihedral:4")
    ND = lower_central_series(D4)
    D = dim_subgroup_brute(D4, whole_group(D4), ND, Z)
    assert D == ND.term(2)
    with pytest.raises(GroupError):
        dim_subgroup_brute(D4, whole_group(D4), ND, CoeffRing.abstract({2: 1}))


def test_dim_brute_counterexample():
    G, K, z = make_counterexample(2, 1, 1)
    N = lower_central_series(G)
    D = dim_subgroup_brute(G, K, N, Z)
    assert z in D
    k2n3 = join(G, [commutator_subgroup(G, K, K), N.term(3)])
    assert k2n3.is_trivial()
    assert len(D) == 2


def test_dim_brute_antitone_in_weight():
    """The slices of I(K)I(G) + J_n, built from `nseries_ideal_power` and
    the rows of I(K)I(G), shrink as n grows, and at n = 3 they are the
    brute dimension subgroup."""
    for spec in ["cyclic:4", "dihedral:4", "cyclic:6"]:
        G = build_group(spec)
        N = lower_central_series(G)
        for K in (trivial_subgroup(G), cyclic_subgroups(G)[-1]):
            ik_ig = left_ideal_product(K, augmentation_ideal(G, whole_group(G), Z))
            prev = None
            for n in (1, 2, 3, 4):
                D = group_slice(G, span_sum([ik_ig, nseries_ideal_power(G, N, n, Z)]))
                if prev is not None:
                    assert prev.contains_subgroup(D)
                prev = D
                if n == 3:
                    assert D == dim_subgroup_brute(G, K, N, Z), (spec, K.generators)


def test_weight_3_fold_does_not_hold_at_weight_4():
    """Lemma A folds J_3 into I(N_3) + J_2*I(G), but the same fold one
    weight up is wrong: for N = (C2, C2, 1) on C2, J_4 = 2*I(G) and
    I(N_4) + J_3*I(G) = 4*I(G)."""
    C2 = build_group("cyclic:2")
    whole = whole_group(C2)
    N = validate_nseries(C2, [whole, whole, trivial_subgroup(C2)])
    J = {n: nseries_ideal_power(C2, N, n, Z) for n in (2, 3, 4)}
    assert J[4].canonical() == ideal_power_naive(C2, N, 4, Z).canonical() == ((2, -2),)
    for n in (3, 4):
        folded = span_sum([augmentation_ideal(C2, N.term(n), Z), right_ideal_product(J[n - 1], whole)])
        assert (folded == J[n]) == (n == 3), n
    assert folded.canonical() == ((4, -4),)


def _series_through_a_normal_subgroup(G: FiniteGroup) -> list[NSeries]:
    """The series (G, M, M) for each normal M that holds G_2: an N-series,
    as [G, M] <= M, with N_2 = N_3 = M."""
    g2 = lower_central_series(G).term(2)
    return [validate_nseries(G, [whole_group(G), M, M]) for M in normal_subgroups(G) if M.contains_subgroup(g2)]


def _assert_weight_3_modules_match(G, K, N, ring) -> None:
    new, old = dim_modules(G, K, N, ring), composed_dim_module(G, K, N, 3, ring)
    label = (G.spec, [len(S) for S in N.chain], K.generators, ring.modulus)
    assert new.canonical() == old.canonical(), label


@pytest.mark.parametrize(
    "spec", ["cyclic:2 x cyclic:4", "cyclic:9", "dihedral:4", "quaternion:8", "cyclic:3 x dihedral:3"]
)
def test_weight_3_module_matches_composition_for_every_series(spec):
    """I(K)I(G) + J_3 built from the kept I^3(G) rows, I(N_3) and the
    product rows equals the composition of separately built spans, for
    every series tag of the corpus (gamma, double, powP) and every series
    (G, M, M) through a normal M, whose N_3 = M need not lie in G_3, so
    that the rows of I(N_3) and of N_2 matter; every subgroup K; over Z,
    Z/2, Z/3 and Z/4."""
    G = build_group(spec)
    tags = _series_tags(G)
    assert "double" in tags and (not G.is_abelian() or any(t.startswith("pow") for t in tags))
    series = [resolve_series(G, tag) for tag in tags] + _series_through_a_normal_subgroup(G)
    g3 = lower_central_series(G).term(3)
    assert any(not g3.contains_subgroup(N.term(3)) for N in series)
    for N in series:
        for K in all_subgroups(G):
            for m in (0, 2, 3, 4):
                _assert_weight_3_modules_match(G, K, N, CoeffRing.parse(m))


def test_weight_3_module_matches_composition_as_kept_facts_are_reused_and_evicted(monkeypatch):
    """Cases that alternate groups and rings, on fresh groups whose memos
    keep at most 3 facts each: later cases read the I^3(G) rows an earlier
    case on the same group and ring kept, other facts push them out and
    they are built again, and every module equals the composition."""
    import dimfox.groupring as groupring
    import dimfox.groups as groups

    monkeypatch.setattr(groups, "_built", {})
    builds = Counter()
    cube_rows = groupring._cube_rows

    def counting(G, d):
        builds[G.spec, d] += 1
        return cube_rows(G, d)

    monkeypatch.setattr(groupring, "_cube_rows", counting)
    specs = ["dihedral:4", "cyclic:2 x cyclic:4", "quaternion:8"]
    for spec in specs:
        monkeypatch.setattr(build_group(spec), "_fact_cap", 3)
    cases = 0
    for m in (0, 4, 0, 2, 4):
        for spec in specs:
            G = build_group(spec)
            for N in [lower_central_series(G)] + _series_through_a_normal_subgroup(G)[:2]:
                for K in cyclic_subgroups(G):
                    _assert_weight_3_modules_match(G, K, N, CoeffRing.parse(m))
                    cases += 1
    assert sum(builds.values()) < cases, builds
    assert set(builds) == {(spec, m) for spec in specs for m in (0, 2, 4)}
    assert all(builds[spec, m] > 1 for spec in specs for m in (0, 4)), builds


@pytest.mark.slow
@pytest.mark.parametrize("spec", ["class2:2,1", "dihedral:32", "cyclic:9 x cyclic:9", "cyclic:4 x quaternion:8"])
def test_weight_3_module_matches_composition_at_orders_64_to_81(spec):
    """The comparison above on groups of order 64 and 81, for every series
    tag of the corpus, every cyclic K and G, over Z and Z/4."""
    G = build_group(spec)
    for tag in _series_tags(G):
        N = resolve_series(G, tag)
        for K in cyclic_subgroups(G) + [whole_group(G)]:
            for m in (0, 4):
                _assert_weight_3_modules_match(G, K, N, CoeffRing.parse(m))


def test_dim_modules_asserts_a_right_ideal(monkeypatch):
    """With its one product row taken away, the module for G = C4 = <x>,
    K = 1 and N = (G, <x^2>, <x^2>) is I^3(G) + Z(x^2 - 1), which is not a
    right ideal, and is refused: (x^2 - 1)x = (x^2 - 1) + (x^2 - 1)(x - 1),
    and with u = x - 1, (x^2 - 1)(x - 1) = 2u^2 + u^3, while I(G)/I^3(G) is
    Z/8 u + Z/2 (u^2 - 2u) (from (1 + u)^4 = 1, 4u = 2u^2 modulo I^3(G)),
    so 2u^2 = 4u is no multiple of x^2 - 1 = 2u + u^2 = 4u + (u^2 - 2u)."""
    import dimfox.groupring as groupring

    G = build_group("cyclic:4")
    x2 = generated_subgroup(G, [G.power(G.generators[0], 2)])
    N = validate_nseries(G, [whole_group(G), x2, x2])
    K = trivial_subgroup(G)
    assert len(x2) == 2 and dim_modules(G, K, N, Z) == composed_dim_module(G, K, N, 3, Z)
    monkeypatch.setattr(groupring, "_product_row", lambda G, s, t: {})
    with pytest.raises(GroupError, match="not a right ideal"):
        dim_modules(G, K, N, Z)


def test_dim_modules_builds_I3_once_and_adds_only_the_case_rows(monkeypatch):
    """On a cold memo, two dim3 cases on one group and ring build I^3(G)
    once, and the second adds at most |N_3| - 1 + |T_KN2||T_G| rows to its
    lattice: the basis of I(N_3) and the product rows.  It builds no
    augmentation ideal at all, I(G) included."""
    import dimfox.groupring as groupring
    import dimfox.groups as groups
    from dimfox.intlinalg import IntLattice

    monkeypatch.setattr(groups, "_built", {})
    builds, adds, ideals = [], [], []
    cube_rows, add, ideal = groupring._cube_rows, IntLattice.add, groupring.augmentation_ideal

    def counting_build(G, d):
        builds.append(d)
        return cube_rows(G, d)

    def counting_add(lat, v):
        adds.append(v)
        return add(lat, v)

    def counting_ideal(G, S, ring):
        ideals.append(S)
        return ideal(G, S, ring)

    monkeypatch.setattr(groupring, "_cube_rows", counting_build)
    monkeypatch.setattr(IntLattice, "add", counting_add)
    monkeypatch.setattr(groupring, "augmentation_ideal", counting_ideal)
    for spec, series in (("class2:2,1", "gamma"), ("dihedral:8", "double"), ("cyclic:2 x cyclic:4", "pow2")):
        G = build_group(spec)
        N = resolve_series(G, series)
        first, second = cyclic_subgroups(G)[1], cyclic_subgroups(G)[-1]
        for ring in (Z, CoeffRing.mod(4)):
            builds.clear()
            dim_subgroup_brute(G, first, N, ring)
            adds.clear()
            ideals.clear()
            dim_subgroup_brute(G, second, N, ring)
            kn2 = join(G, [second, N.term(2)])
            bound = len(N.term(3)) - 1 + len(small_generators(G, kn2.generators)) * len(G.generators)
            assert builds == [ring.modulus] and len(adds) <= bound, (spec, ring, builds, len(adds), bound)
            assert not ideals, (spec, ring, ideals)
    # the case from which the count was first read: a warm case on
    # class2:2,1 with K = 1 adds the 2 rows (c - 1)(x - 1) and (c - 1)(y - 1)
    G = build_group("class2:2,1")
    adds.clear()
    dim_subgroup_brute(G, trivial_subgroup(G), lower_central_series(G), Z)
    assert len(adds) == 2


def test_running_cases_leaves_the_kept_I3_rows_as_a_fresh_build_would(monkeypatch):
    """The I^3(G) rows that dim3 cases and the exact-sequence checks keep on
    a fresh G are tuples (frozen), and after the cases ran they equal a
    fresh build over the same ring: no case writes to what it read."""
    import dimfox.groupring as groupring
    import dimfox.groups as groups
    from dimfox.verify import verify_dim3, verify_four_term, verify_polynomial_sequence

    monkeypatch.setattr(groups, "_built", {})
    G = build_group("dihedral:4")
    N = lower_central_series(G)
    for K in normal_subgroups(G):
        for m in (0, 2, 4):
            verify_dim3(G, K, N, CoeffRing.parse(m))
            verify_polynomial_sequence(G, K, N, CoeffRing.parse(m))
        verify_four_term(G, K, N)
    kept = {key[1]: fact for key, fact in G._facts.items() if key[0] is groupring._cube_rows}
    assert set(kept) == {0, 2, 4}
    for d, rows in kept.items():
        assert isinstance(rows, tuple) and all(isinstance(row, tuple) for row in rows)
        assert rows == groupring._cube_rows(G, d), d


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
    """R(G)I(K)I(H) + I^n(G)I(H) (with `translate_closure`) and
    I(K)I(H) + I^n(G)I(H), each composed from separately built spans, are
    both the one `fox_module`, lifted back from the coordinates of
    R(G)I(H); H runs over cyclic and non-cyclic subgroups."""
    for spec in ["cyclic:6", "dihedral:4", "quaternion:8", "cyclic:2 x cyclic:4"]:
        G = build_group(spec)
        subs = cyclic_subgroups(G)
        wider = [S for S in all_subgroups(G) if S not in subs]
        assert wider or spec == "cyclic:6"
        for H in subs[:4] + wider:
            for K in subs[:4]:
                for n in (1, 2):
                    for ring in (Z, CoeffRing.mod(2), CoeffRing.mod(6)):
                        span = fox_module(G, H, K, n, ring)
                        assert span.lattice.ncols == G.order - G.order // len(H)
                        module = lifted(span).canonical()
                        prefixed, plain = composed_fox_modules(G, H, K, n, ring)
                        assert prefixed.canonical() == module == plain.canonical(), (spec, n, ring)


def _all_pairs_fox_module(G, H, K, ring) -> ModuleSpan:
    """I(K)I(H) + I^2(G)I(H) from the rows (k - 1)(h - 1) for every pair
    k in K, h in H, in the coordinates of R(G)I(H)."""
    module = fox_module(G, H, trivial_subgroup(G), 2, ring)
    one = G.identity
    for k in K.sorted_members():
        for h in H.sorted_members():
            if k != one and h != one:
                row: dict = {}
                for y, c in ((G.mul(k, h), 1), (k, -1), (h, -1), (one, 1)):
                    row[y] = row.get(y, 0) + c
                module.add_row(row)
    return module


@pytest.mark.parametrize("spec", [s for s in DEFAULT_GROUPS if build_group(s).order <= 16])
def test_fox_module_of_weight_2_from_generator_pairs_equals_the_all_pairs_module(spec):
    """The rows (s - 1)(t - 1) for s, t in the generators of K and H
    span the same weight-2 Fox module as all (|K| - 1)(|H| - 1) rows, over
    Z, Z/2 and Z/4, for H and K each of the two smallest and two largest
    cyclic subgroups and G (which has more than one generator unless G is
    cyclic, so both variables of the bilinearity are exercised)."""
    G = build_group(spec)
    cyclic = cyclic_subgroups(G)
    subs = list({S.members: S for S in cyclic[:2] + cyclic[-2:] + [whole_group(G)]}.values())
    for H in subs:
        for K in subs:
            for ring in (Z, CoeffRing.mod(2), CoeffRing.mod(4)):
                expected = _all_pairs_fox_module(G, H, K, ring).canonical()
                assert fox_module(G, H, K, 2, ring).canonical() == expected, (H.generators, K.generators, ring)


def test_fox_module_asserts_a_left_ideal(monkeypatch):
    """A translate of a product row that falls outside the module is
    refused; here every translate is the unit e_1, which no module inside
    I(G) holds."""
    import dimfox.groupring as groupring

    G = build_group("dihedral:4")
    W = whole_group(G)
    fox_module(G, W, W, 2, Z)
    monkeypatch.setattr(groupring, "row_translate", lambda G, g, v: {G.identity: 1})
    with pytest.raises(GroupError, match="not a left ideal"):
        fox_module(G, W, W, 2, Z)


def test_fox_module_asserts_each_row_lies_in_R_G_I_H(monkeypatch):
    """A generated row outside R(G)I(H) is refused before it is projected
    to the coordinates of R(G)I(H); here the right products b(t - 1) by a
    non-normal H are taken on the wrong side, as (t - 1)b.  The group is
    built from a table spec, so the patched instance is not the one that
    build_group shares for "dihedral:4"."""
    D = build_group("dihedral:4")
    G = build_group({"table": [row[:] for row in D.table], "names": list(D.names), "generators": list(D.generators)})
    assert G is not D
    H = _non_normal_first(G)[0]
    assert not H.is_normal()
    for n in (1, 2):
        fox_module(G, H, trivial_subgroup(G), n, Z)
    monkeypatch.setattr(G, "mul_cols", G.mul_rows)
    for n in (1, 2):
        with pytest.raises(GroupError, match=r"not in R\(G\)I\(H\)"):
            fox_module(G, H, trivial_subgroup(G), n, Z)


@pytest.mark.parametrize("m", [0, 2, 4, 6])
def test_span_in_coset_coordinates_reads_like_its_lift(m):
    """A Fox module kept in the coordinates of R(G)I(H) answers membership
    like the same module lifted back to R(G), for rows of the module (over
    Z/m shifted by multiples of m), rows of R(G)I(H), g - 1 for every g and
    random rows; products and closures take its rows in R(G)."""
    G = build_group("dihedral:4")
    ring = CoeffRing.parse(m)
    rng = random.Random(m)
    H, K = _non_normal_first(G)[:2]
    span = fox_module(G, H, K, 2, ring)
    full = lifted(span)
    basis = span.ring_maps()
    cosets = fox_module(G, H, K, 0, ring).ring_maps()
    rows = [elem_minus_one(G, g) for g in G.elements()]
    for _ in range(60):
        picks = basis if rng.random() < 0.5 else cosets
        row = [sum(rng.randint(-3, 3) * b.get(j, 0) for b in picks) for j in range(G.order)]
        rows.append(row_map([x + m * rng.randint(-2, 2) for x in row]))
        rows.append(row_map([rng.randint(-2, 2) for _ in range(G.order)]))
    hits = [span.contains_row(row) for row in rows]
    assert hits == [full.contains_row(row) for row in rows]
    assert 0 < sum(hits) < len(rows)
    ig = augmentation_ideal(G, whole_group(G), ring)
    assert span_product(ig, span) == span_product(ig, full)
    assert translate_closure(span) == translate_closure(full)


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
                dim = dim_subgroup_brute(G, K, N, ring)
                assert fox == dim


def test_quotient_invariants_examples():
    C2 = build_group("cyclic:2")
    I = augmentation_ideal(C2, whole_group(C2), Z)
    I2 = span_product(I, I)
    I3 = span_product(I2, I)
    assert module_quotient_presentation(I, I)[0].group.invariants == ()
    assert module_quotient_presentation(I3, I)[0].group.invariants == (4,)
    assert module_quotient_presentation(I2, I)[0].group.invariants == (2,)
    C4 = build_group("cyclic:4")
    IC4 = augmentation_ideal(C4, whole_group(C4), Z)
    I2C4 = span_product(IC4, IC4)
    assert module_quotient_presentation(I2C4, IC4)[0].group.invariants == (4,)
    with pytest.raises(GroupError):
        module_quotient_presentation(IC4, I2C4)  # containment violated
    # over Z/m the quotient is finite: I/I^3 of C2 is Z/4 over Z, so
    # Z/gcd(4, m) over Z/m
    N = lower_central_series(C2)
    for m, invariants in ((2, (2,)), (4, (4,)), (8, (4,)), (3, ())):
        R = CoeffRing.mod(m)
        ideal = augmentation_ideal(C2, whole_group(C2), R)
        pres, _ = module_quotient_presentation(nseries_ideal_power(C2, N, 3, R), ideal)
        assert pres.group.invariants == invariants, m


def test_augmentation_quotient_is_abelianization():
    """I(H)/I^2(H) carries exactly the invariant factors of H/[H,H]."""
    from dimfox.groups import abelian_quotient

    for spec in ["cyclic:6", "dihedral:4", "quaternion:8", "cyclic:2 x cyclic:4", "dihedral:3"]:
        G = build_group(spec)
        I = augmentation_ideal(G, whole_group(G), Z)
        I2 = span_product(I, I)
        h2 = commutator_subgroup(G, whole_group(G), whole_group(G))
        sec = abelian_quotient(G, whole_group(G), h2)
        assert module_quotient_presentation(I2, I)[0].group.invariants == sec.invariants, spec


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


def _dense_product(G: FiniteGroup, a: list, b: list) -> list:
    """The oracle for `row_multiply`: the dense convolution
    sum_{i,j} a_i b_j e_{ij} over every pair of columns."""
    out = [0] * G.order
    for i in range(G.order):
        for j in range(G.order):
            out[G.mul(i, j)] += a[i] * b[j]
    return out


def test_row_multiply_is_ring_product():
    D4 = build_group("dihedral:4")
    rng = random.Random(2)
    for _ in range(20):
        a = [rng.randint(-2, 2) for _ in range(8)]
        b = [rng.randint(-2, 2) for _ in range(8)]
        out = row_multiply(D4, row_map(a), row_map(b))
        assert out == row_map(_dense_product(D4, a, b))


@pytest.mark.parametrize("spec", ["cyclic:6", "quaternion:8", "cyclic:3 x dihedral:3"])
def test_row_multiply_on_maps_equals_the_dense_convolution(spec):
    """On maps, `row_multiply` returns exactly the nonzero entries of the
    dense convolution: products that cancel leave no zero entry behind,
    the empty map is zero, and sparse rows (g - 1, e_g) multiply as the
    dense ones do."""
    G = build_group(spec)
    n = G.order
    rng = random.Random(n)
    dense = [[rng.choice((0, 0, -1, 1, 2)) for _ in range(n)] for _ in range(12)]
    dense += [[0] * n, [(j == 1) - (j == G.identity) for j in range(n)], [int(j == n - 1) for j in range(n)]]
    for a in dense:
        for b in dense:
            assert row_multiply(G, row_map(a), row_map(b)) == row_map(_dense_product(G, a, b))
    # (g - 1)(g^-1 - 1) = 2 - g - g^-1: the cross terms g*g^-1 and 1 meet
    g = G.generators[0]
    a, b = ([(j == x) - (j == G.identity) for j in range(n)] for x in (g, G.inv(g)))
    product = row_multiply(G, elem_minus_one(G, g), elem_minus_one(G, G.inv(g)))
    assert product == row_map(_dense_product(G, a, b)) == {G.identity: 2, g: -1, G.inv(g): -1}


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


def _greedy_scan(G, seeds):
    """The generating set the generator products once took: a greedy scan
    of the members of the subgroup the seeds generate, in index order."""
    return small_generators(G, sorted(generated_subgroup(G, seeds).members))


def _module_forms(G, subs, series, rings) -> list:
    """The canonical forms of every module the brute side builds from
    generator products, over the sampled subgroups, series and rings."""
    out = []
    for ring in rings:
        for N in series:
            out += [nseries_ideal_power(G, N, n, ring).canonical() for n in (1, 2, 3, 4)]
            for K in subs:
                out.append(dim_modules(G, K, N, ring).canonical())
        for H in subs:
            for K in subs:
                out += [fox_module(G, H, K, n, ring).canonical() for n in (1, 2)]
    return out


@pytest.mark.parametrize("spec", [s for s in DEFAULT_GROUPS if build_group(s).order <= 16] + ["class2:2,1"])
def test_generator_products_over_own_generators_match_the_greedy_scan(spec, monkeypatch):
    """`dim_modules`, `fox_module` (n = 1, 2) and `nseries_ideal_power`
    take T from each subgroup's own generators; with T from the greedy
    scan of its members they build the same modules.  Hermite forms are
    unique, so the canonical forms must agree exactly.  K and H run over
    the two smallest and two largest cyclic subgroups, the join of the
    largest two (whose generators may be redundant) and G; the series are
    the lower central one and those from level 2 through each normal K."""
    import dimfox.groupring as groupring

    G = build_group(spec)
    cyclic = cyclic_subgroups(G)
    subs = cyclic[:2] + cyclic[-2:] + [join(G, cyclic[-2:]), whole_group(G)]
    subs = list({S.members: S for S in subs}.values())
    series = [lower_central_series(G)] + [nseries_from_level2(G, K) for K in subs if K.is_normal()]
    rings = (Z, CoeffRing.mod(4))
    new = _module_forms(G, subs, series, rings)
    monkeypatch.setattr(groupring, "small_generators", _greedy_scan)
    assert _module_forms(G, subs, series, rings) == new
    if spec == "class2:2,1":
        # the scan takes c = [x, y] first, which x and y generate anyway
        x, y = G.generators
        assert small_generators(G, G.generators) == (x, y)
        assert _greedy_scan(G, G.generators) == (G.comm(x, y), y, x)


def test_dim_subgroup_brute_never_calls_span_product(monkeypatch):
    import dimfox.groupring as groupring

    def refuse(A, B):
        raise AssertionError("span_product called")

    monkeypatch.setattr(groupring, "span_product", refuse)
    G = build_group("dihedral:4")
    K = generated_subgroup(G, [G.index_of("f")])
    for ring in (Z, CoeffRing.mod(4)):
        dim_subgroup_brute(G, K, lower_central_series(G), ring)


# -- brute slices over Z/gcd(m, |G|^w) against direct builds over Z/m ----------


def _direct_slices(case: dict, G: FiniteGroup) -> tuple:
    """(the new slice or slices, the same read from modules built over Z/m)."""
    ring = CoeffRing.mod(case["m"])
    K = generated_subgroup(G, case["K"])
    if case["kind"] == "dim3":
        N = resolve_series(G, case["series"])
        direct = group_slice(G, dim_modules(G, K, N, ring))
        return dim_subgroup_brute(G, K, N, ring), direct
    H = generated_subgroup(G, case["H"])
    return fox_subgroup_brute(G, H, K, case["n"], ring), group_slice(G, fox_module(G, H, K, case["n"], ring))


def _check_default_corpus_slices(keep) -> None:
    """Every default-corpus Z/m case that keep(case) selects; the selection
    must include the coprime d = 1 and the proper 1 < d < m reductions."""
    groups: dict = {}
    moduli = Counter()
    for case in build_cases(CorpusConfig()):
        if case["kind"] not in ("dim3", "fox") or not case["m"] or not keep(case):
            continue
        G = groups.setdefault(case["group"], build_group(case["group"]))
        new, direct = _direct_slices(case, G)
        assert new == direct, case
        w = 2 if case["kind"] == "dim3" else max(case["n"], 1)
        d = gcd(case["m"], G.order**w)
        moduli["coprime" if d == 1 else "reduced" if d < case["m"] else "kept"] += 1
    assert min(moduli.values()) > 0 and len(moduli) == 3, moduli


def _check_modules_match_compositions(keep) -> None:
    """For every default-corpus dim3 and Fox case that keep(case) selects,
    over its `slice_ring`, the one-lattice `nseries_ideal_power` and
    `dim_modules` have the canonical forms of the compositions of
    separately built spans, and both composed Fox forms (with and without
    the R(G) prefix) have the canonical form of `fox_module`, lifted back
    from the coordinates of R(G)I(H); R(G)I(H) from its coset basis is the
    translate closure of I(H).  The brute slice equals the slice of the
    composed module."""
    groups: dict = {}
    checked = Counter()
    for case in build_cases(CorpusConfig()):
        if case["kind"] not in ("dim3", "fox") or not keep(case):
            continue
        G = groups.setdefault(case["group"], build_group(case["group"]))
        K = generated_subgroup(G, case["K"])
        w = 2 if case["kind"] == "dim3" else max(case["n"], 1)
        R = slice_ring(G, CoeffRing.parse(case["m"]), w)
        if R is None:
            continue
        ring = CoeffRing.parse(case["m"])
        if case["kind"] == "dim3":
            N = resolve_series(G, case["series"])
            assert nseries_ideal_power(G, N, 3, R).canonical() == composed_ideal_power(G, N, 3, R).canonical()
            new, old = (dim_modules(G, K, N, R),), (composed_dim_module(G, K, N, 3, R),)
            brute = dim_subgroup_brute(G, K, N, ring)
        else:
            H = generated_subgroup(G, case["H"])
            module = lifted(fox_module(G, H, K, case["n"], R))
            new, old = (module, module), composed_fox_modules(G, H, K, case["n"], R)
            cosets = fox_module(G, H, K, 0, R)
            assert cosets.canonical() == translate_closure(augmentation_ideal(G, H, R)).canonical(), case
            brute = fox_subgroup_brute(G, H, K, case["n"], ring)
        assert [s.canonical() for s in new] == [s.canonical() for s in old], case
        assert brute == group_slice(G, old[-1]), case
        checked[case["kind"], case.get("n"), "Z" if R == Z else "Z/d"] += 1
    assert len(checked) == 8 and min(checked.values()) > 0, checked


def test_modules_match_compositions_sample():
    _check_modules_match_compositions(lambda case: case["id"] % 7 == 0)


@pytest.mark.slow
def test_modules_match_compositions_full_corpus():
    _check_modules_match_compositions(lambda case: True)


def test_slices_over_reduced_modulus_match_direct_builds_sample():
    _check_default_corpus_slices(lambda case: case["id"] % 7 == 0)


@pytest.mark.slow
def test_slices_over_reduced_modulus_match_direct_builds_full_corpus():
    _check_default_corpus_slices(lambda case: True)


def test_slice_modulus_examples():
    """cyclic:6 over Z/4 at Fox weight 1 is sliced over Z/2; over Z/5 nothing
    is built and the slices are G (dim3) and H (Fox)."""
    C6 = build_group("cyclic:6")
    assert slice_ring(C6, CoeffRing.mod(4), 1) == CoeffRing.mod(2)
    assert slice_ring(C6, CoeffRing.mod(5), 2) is None
    assert slice_ring(C6, Z, 2) == Z
    case = {"kind": "fox", "K": [], "H": [C6.index_of("x2")], "n": 1, "m": 4}
    new, direct = _direct_slices(case, C6)
    assert new == direct
    H = generated_subgroup(C6, [C6.index_of("x2")])
    N = lower_central_series(C6)
    K = trivial_subgroup(C6)
    assert fox_subgroup_brute(C6, H, K, 2, CoeffRing.mod(5)) == H
    assert dim_subgroup_brute(C6, K, N, CoeffRing.mod(5)) == whole_group(C6)
    # the ring and the Fox weight are still checked when nothing is built
    with pytest.raises(GroupError, match="concrete ring"):
        fox_subgroup_brute(C6, H, K, 1, CoeffRing.abstract({2: 1}))
    with pytest.raises(GroupError, match="n in"):
        fox_subgroup_brute(C6, H, K, 3, CoeffRing.mod(5))


def test_fox_subgroup_brute_within_H_matches_slice_over_G_sample():
    """fox_subgroup_brute tests only the members of H; over every 7th
    default-corpus Fox case, its slice equals `group_slice` over all of G
    of the same module."""
    groups: dict = {}
    checked = Counter()
    for case in build_cases(CorpusConfig()):
        if case["kind"] != "fox" or case["id"] % 7:
            continue
        G = groups.setdefault(case["group"], build_group(case["group"]))
        H, K, n = generated_subgroup(G, case["H"]), generated_subgroup(G, case["K"]), case["n"]
        ring = CoeffRing.parse(case["m"])
        R = slice_ring(G, ring, max(n, 1))
        if R is None:
            continue
        assert fox_subgroup_brute(G, H, K, n, ring) == group_slice(G, fox_module(G, H, K, n, R)), case
        checked["Z" if R == Z else "Z/d"] += 1
        checked["H < G"] += len(H) < G.order
    assert min(checked.values()) > 0 and len(checked) == 3, checked


@pytest.mark.parametrize("spec", ["class2:2,1", "dihedral:32"])
@pytest.mark.parametrize("m", [3, 4])
def test_order64_slices_over_reduced_modulus_match_direct_builds(spec, m):
    G = build_group(spec)
    whole = list(G.generators)
    for gens in ([], [G.generators[0]], whole):
        new, direct = _direct_slices({"kind": "dim3", "K": gens, "series": "gamma", "m": m}, G)
        assert new == direct, gens
    for H, n in ((whole, 1), ([G.generators[1]], 2), (whole, 2)):
        new, direct = _direct_slices({"kind": "fox", "K": [G.generators[0]], "H": H, "n": n, "m": m}, G)
        assert new == direct, (H, n)


def test_augmentation_ideal_matches_elem_minus_one_span():
    """The rows e_c - e_top span the same module as the rows s - 1."""
    for spec in DEFAULT_GROUPS:
        G = build_group(spec)
        for S in cyclic_subgroups(G) + [whole_group(G)]:
            rows = [elem_minus_one(G, s) for s in S.sorted_members()]
            for m in (0, 4, 6):
                expected = lattice_from_rows(rows, G.order, m).canonical()
                assert augmentation_ideal(G, S, CoeffRing.parse(m)).canonical() == expected


def _difference_rows(n, pairs):
    """The rows e_c - e_t, one per pair."""
    return [[(j == c) - (j == t) for j in range(n)] for c, t in pairs]


def _assert_same_lattice(direct, oracle, rng, label):
    """Equal pivots, basis rows and canonical form, checked again after each
    of three more adds, so that a different stale-row or pending-change
    history cannot hide a difference."""
    for step in range(4):
        assert direct.pivcols == oracle.pivcols, (label, step)
        assert direct.basis_rows() == oracle.basis_rows(), (label, step)
        assert direct.canonical() == oracle.canonical(), (label, step)
        v = [rng.randint(-3, 3) for _ in range(direct.ncols)]
        assert direct.add(v) == oracle.add(v), (label, step)


@pytest.mark.parametrize("spec", DEFAULT_GROUPS)
def test_direct_hermite_bases_equal_the_row_by_row_oracle(spec):
    """Over Z, Z/2, Z/3, Z/4 and Z/6, the bases written directly equal the
    lattices built by inserting the rows one at a time, for every subgroup
    S (every cyclic one, and G, above order 16) and every normal K:
    - I(S) and the rows e_c - e_max(S);
    - the Fox weight-0 module R(G)I(S) and the rows e_y - e_top(yS);
    - the coset part of the middle kernel (J = 0, so nothing else is
      added) and the rows e_g - e_s(gK), s the quotient's section."""
    from dimfox.verify import _middle_kernel

    G = build_group(spec)
    n, rows = G.order, G.mul_rows()
    rng = random.Random(1)
    subgroups = all_subgroups(G) if G.order <= 16 else cyclic_subgroups(G) + [whole_group(G)]
    quotients = [(K, *quotient_group(G, K)) for K in normal_subgroups(G)]
    for m in (0, 2, 3, 4, 6):
        ring = CoeffRing.parse(m)
        for S in subgroups:
            members = S.sorted_members()
            pairs = [(c, members[-1]) for c in members[:-1]]
            oracle = lattice_from_rows(_difference_rows(n, pairs), n, m)
            _assert_same_lattice(augmentation_ideal(G, S, ring).lattice, oracle, rng, (m, S.generators, "I(S)"))
            tops = [max(rows[y][h] for h in S.members) for y in range(n)]
            pairs = [(y, t) for y, t in enumerate(tops) if y != t]
            oracle = lattice_from_rows(_difference_rows(n, pairs), n, m)
            module = fox_module(G, S, trivial_subgroup(G), 0, ring).lattice
            _assert_same_lattice(module, oracle, rng, (m, S.generators, "R(G)I(H)"))
        for K, Q, proj, reps in quotients:
            pairs = [(g, reps[proj[g]]) for g in range(n) if g != reps[proj[g]]]
            oracle = lattice_from_rows(_difference_rows(n, pairs), n, m)
            direct = _middle_kernel(G, K, reps, ModuleSpan(Q, ring))
            _assert_same_lattice(direct, oracle, rng, (m, Q.order, "R(G)I(K)"))
