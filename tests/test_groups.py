"""Group construction, subgroup primitives, series, abelian quotients."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dimfox.groups import (
    ClosureError,
    GroupError,
    NSeriesError,
    abelian_quotient,
    all_subgroups,
    build_group,
    centre,
    commutator_subgroup,
    cyclic_subgroups,
    generated_subgroup,
    join,
    lower_central_series,
    make_counterexample,
    normal_subgroups,
    nseries_from_level2,
    p_torsion_mod,
    power_subgroup,
    quotient_group,
    subgroup_as_group,
    subgroup_exponent,
    trivial_subgroup,
    validate_nseries,
    whole_group,
)

SAMPLE_SPECS = [
    "cyclic:1",
    "cyclic:4",
    "cyclic:6",
    "dihedral:3",
    "dihedral:4",
    "quaternion:8",
    "elementary-abelian:2,3",
    "cyclic:2 x cyclic:4",
    "class2:2,1",
]


@pytest.mark.parametrize("spec", SAMPLE_SPECS)
def test_family_builders_satisfy_group_axioms(spec):
    G = build_group(spec)
    n = G.order
    t = G.table
    idx = np.arange(n)
    for a in range(n):
        assert (np.sort(np.asarray(t[a])) == idx).all()
        assert (np.sort(np.asarray(t[:, a])) == idx).all()
        assert (t[t[a], :] == t[a][t]).all()
    e = G.identity
    for a in range(n):
        assert G.mul(a, e) == a == G.mul(e, a)
        assert G.mul(a, G.inv(a)) == e


def test_build_group_orders():
    assert build_group("cyclic:4").order == 4
    assert build_group("class2:2,1").order == 64
    assert build_group("cyclic:2 x cyclic:2").order == 4
    assert build_group("cyclic:2 x cyclic:2").exponent() == 2
    assert build_group("dihedral:4").order == 8
    assert build_group("quaternion:8").order == 8
    assert build_group("elementary-abelian:3,2").order == 9


def test_build_group_cap_and_errors():
    with pytest.raises(GroupError):
        build_group("cyclic:2000")
    with pytest.raises(GroupError):
        build_group("class2:4,1")  # 4 is not prime
    with pytest.raises(GroupError):
        build_group("nosuch:3")
    with pytest.raises(GroupError):
        build_group({"table": [[0, 1], [1, 1]]})  # not Latin
    # associativity violation: Latin square that is not a group
    bad = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupError):
        build_group({"table": bad})


def test_ingested_table_roundtrip():
    table = build_group("dihedral:3").table.tolist()
    G = build_group({"table": table})
    assert G.order == 6 and not G.is_abelian()


def test_permutation_generators():
    G = build_group({"perm_gens": [[[0, 1, 2]], [[0, 1]]]})
    assert G.order == 6
    assert not G.is_abelian()
    with pytest.raises(GroupError):
        build_group({"perm_gens": [[[0, 1], [1, 2]]]})  # point repeated
    with pytest.raises(GroupError):
        build_group({"perm_gens": [[[-1, 2]]]})


def test_class2_presentation_relations():
    G = build_group("class2:2,1")
    x, y = G.generators
    q = 4
    c = G.comm(x, y)
    assert G.power(x, q) == G.identity
    assert G.power(y, q) == G.identity
    assert G.comm(x, c) == G.identity
    assert G.comm(y, c) == G.identity
    assert G.order_of(x) == q and G.order_of(y) == q and G.order_of(c) == q


def test_counterexample_family():
    G, K, z = make_counterexample(2, 1, 1)
    assert G.order == 64
    assert len(K) == 16
    assert z != G.identity and G.order_of(z) == 2
    k2 = commutator_subgroup(G, K, K)
    g3 = lower_central_series(G).term(3)
    assert join(G, [k2, g3]).is_trivial()
    with pytest.raises(GroupError):
        make_counterexample(2, 2, 1)  # r > s


@pytest.mark.slow
def test_counterexample_p3():
    G, K, z = make_counterexample(3, 1, 1)
    assert G.order == 729
    assert G.order_of(z) == 3
    c = G.comm(G.generators[0], G.generators[1])
    assert z == G.power(c, 3)


def test_generated_subgroup_examples():
    C4 = build_group("cyclic:4")
    assert generated_subgroup(C4, [C4.identity]).is_trivial()
    assert generated_subgroup(C4, [1]).is_whole()
    G, K, _ = make_counterexample(2, 1, 1)
    x, y = G.generators
    seeds = [G.power(x, 2), G.power(y, 2), G.comm(x, y)]
    assert len(generated_subgroup(G, seeds)) == 16


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 7), max_size=4), st.integers(0, 7))
def test_generated_subgroup_monotone_idempotent(seeds, extra):
    G = build_group("dihedral:4")
    sub = generated_subgroup(G, seeds)
    again = generated_subgroup(G, sub.members)
    assert again == sub
    bigger = generated_subgroup(G, list(seeds) + [extra])
    assert bigger.members >= sub.members


def test_commutator_subgroup():
    C6 = build_group("cyclic:6")
    assert commutator_subgroup(C6, whole_group(C6), whole_group(C6)).is_trivial()
    G, K, _ = make_counterexample(2, 1, 1)
    g2 = commutator_subgroup(G, whole_group(G), whole_group(G))
    c = G.comm(*G.generators)
    assert g2 == generated_subgroup(G, [c]) and len(g2) == 4
    assert commutator_subgroup(G, K, K).is_trivial()
    # symmetry
    D4 = build_group("dihedral:4")
    A = generated_subgroup(D4, [1])
    B = generated_subgroup(D4, [4])
    assert commutator_subgroup(D4, A, B) == commutator_subgroup(D4, B, A)


def test_power_subgroup():
    C6 = build_group("cyclic:6")
    W = whole_group(C6)
    assert power_subgroup(C6, W, 1) == W
    assert power_subgroup(C6, W, 4).members == frozenset({0, 2, 4})
    assert power_subgroup(C6, W, 0).is_trivial()
    assert power_subgroup(C6, W, subgroup_exponent(W) * 3).is_trivial()
    D4 = build_group("dihedral:4")
    sq = power_subgroup(D4, whole_group(D4), 2)
    assert sq == generated_subgroup(D4, [2]) and len(sq) == 2


def test_join():
    D4 = build_group("dihedral:4")
    A = generated_subgroup(D4, [1])
    assert join(D4, [trivial_subgroup(D4), A]) == A
    assert join(D4, [A, A]) == A
    G, _, _ = make_counterexample(2, 1, 1)
    x, y = G.generators
    j = join(
        G,
        [
            generated_subgroup(G, [G.power(x, 2)]),
            generated_subgroup(G, [G.power(y, 2)]),
        ],
    )
    # closure enumeration: [x^2, y^2] = [x, y]^4 = 1 here, so the join is
    # just the four products of the two involutions-mod-centre
    assert len(j) == 4
    assert G.comm(G.power(x, 2), G.power(y, 2)) == G.identity
    # adjoining the commutator [x, y] grows it to the order-16 subgroup
    jc = join(G, [j, generated_subgroup(G, [G.comm(x, y)])])
    assert len(jc) == 16


def test_lower_central_series():
    C6 = build_group("cyclic:6")
    assert [len(t) for t in lower_central_series(C6).chain] == [6, 1]
    D4 = build_group("dihedral:4")
    assert [len(t) for t in lower_central_series(D4).chain] == [8, 2, 1]
    G, _, _ = make_counterexample(2, 1, 1)
    assert [len(t) for t in lower_central_series(G).chain] == [64, 4, 1]
    S3 = build_group("dihedral:3")
    chain = lower_central_series(S3).chain
    assert [len(t) for t in chain] == [6, 3]  # stabilizes at the rotation part


@pytest.mark.parametrize(
    "spec", ["cyclic:12", "dihedral:4", "quaternion:8", "cyclic:2 x cyclic:4", "class2:2,1"]
)
def test_power_rows_match_power(spec):
    G = build_group(spec)
    rows = G.power_rows()
    assert len(rows) == G.exponent()
    for k, row in enumerate(rows):
        assert row == [G.power(g, k) for g in G.elements()]
    assert G.power_rows() is rows  # cached on the group


@pytest.mark.parametrize("spec", ["cyclic:6", "dihedral:4", "quaternion:8", "class2:2,1"])
def test_lcs_is_valid_nseries(spec):
    G = build_group(spec)
    N = lower_central_series(G)
    validate_nseries(G, N.chain)


def test_validate_nseries_rejects():
    C4 = build_group("cyclic:4")
    validate_nseries(C4, [whole_group(C4), whole_group(C4), trivial_subgroup(C4)])
    D4 = build_group("dihedral:4")
    with pytest.raises(NSeriesError) as err:
        validate_nseries(D4, [whole_group(D4), whole_group(D4), trivial_subgroup(D4)])
    assert err.value.pair == (1, 2)
    with pytest.raises(NSeriesError):
        validate_nseries(D4, [trivial_subgroup(D4)])


def test_nseries_from_level2():
    Q8 = build_group("quaternion:8")
    M = generated_subgroup(Q8, [1])  # <x> of order 4
    N = nseries_from_level2(Q8, M)
    assert [len(t) for t in N.chain] == [8, 4, 2, 1]


def test_p_torsion_mod():
    C6 = build_group("cyclic:6")
    triv = trivial_subgroup(C6)
    assert p_torsion_mod(C6, whole_group(C6), 2).is_whole()
    assert p_torsion_mod(C6, triv, 2).members == frozenset({0, 3})
    assert p_torsion_mod(C6, triv, 5).is_trivial()
    # within a subgroup
    D4 = build_group("dihedral:4")
    H = generated_subgroup(D4, [1])
    t = p_torsion_mod(D4, trivial_subgroup(D4), 2, within=H)
    assert t == H


def test_p_torsion_closure_failure_is_surfaced():
    # the 2-power-order elements of S3 are the reflections plus the
    # identity; products of reflections escape, and that must be an
    # error rather than a silent repair
    S3 = build_group("dihedral:3")
    with pytest.raises(ClosureError):
        p_torsion_mod(S3, trivial_subgroup(S3), 2)
    # non-normal S is rejected up front
    D4 = build_group("dihedral:4")
    with pytest.raises(GroupError):
        p_torsion_mod(D4, generated_subgroup(D4, [4]), 2)


def test_abelian_quotient():
    C6 = build_group("cyclic:6")
    sec = abelian_quotient(C6, whole_group(C6), trivial_subgroup(C6))
    assert sec.invariants == (6,)
    sec0 = abelian_quotient(C6, whole_group(C6), whole_group(C6))
    assert sec0.invariants == ()
    G, _, _ = make_counterexample(2, 1, 1)
    c = G.comm(*G.generators)
    sec2 = abelian_quotient(G, whole_group(G), generated_subgroup(G, [c]))
    assert sec2.invariants == (4, 4)
    with pytest.raises(GroupError):
        D4 = build_group("dihedral:4")
        abelian_quotient(D4, whole_group(D4), trivial_subgroup(D4))


def test_abelian_quotient_coords_are_homomorphic():
    import random

    G = build_group("cyclic:2 x cyclic:4")
    sec = abelian_quotient(G, whole_group(G), trivial_subgroup(G))
    rng = random.Random(5)
    assert sorted(sec.invariants) == [2, 4]
    for _ in range(40):
        a, b = rng.randrange(8), rng.randrange(8)
        ca, cb = sec.coords(a), sec.coords(b)
        cab = sec.coords(G.mul(a, b))
        assert cab == tuple((x + y) % d for x, y, d in zip(ca, cb, sec.invariants))


def test_abelian_quotient_divisibility_and_size():
    for spec in ["cyclic:12", "cyclic:2 x cyclic:6", "elementary-abelian:2,3"]:
        G = build_group(spec)
        sec = abelian_quotient(G, whole_group(G), trivial_subgroup(G))
        total = 1
        prev = None
        for d in sec.invariants:
            assert d >= 2
            if prev is not None:
                assert d % prev == 0
            prev = d
            total *= d
        assert total == G.order


def test_quotient_group():
    D4 = build_group("dihedral:4")
    Z = centre(D4)
    Q, proj, reps = quotient_group(D4, Z)
    assert Q.order == 4 and Q.exponent() == 2  # Klein group
    H = generated_subgroup(D4, [4])
    with pytest.raises(GroupError):
        quotient_group(D4, H)  # reflections are not normal


def test_subgroup_as_group():
    D4 = build_group("dihedral:4")
    H, elems = subgroup_as_group(D4, generated_subgroup(D4, [1]))
    assert H.order == 4
    assert H.is_abelian()


def test_subgroup_enumeration():
    D4 = build_group("dihedral:4")
    cyc = cyclic_subgroups(D4)
    # 1, <r>, <r2>, and four reflections
    assert len(cyc) == 7
    subs = all_subgroups(D4)
    assert len(subs) == 10
    norm = normal_subgroups(D4)
    assert len(norm) == 6
    for N in norm:
        assert N.is_normal()


def test_subgroup_from_members_closure_error():
    C4 = build_group("cyclic:4")
    from dimfox.groups import subgroup_from_members

    with pytest.raises(ClosureError):
        subgroup_from_members(C4, [0, 1])


def test_centre():
    assert len(centre(build_group("dihedral:4"))) == 2
    assert centre(build_group("cyclic:6")).is_whole()
    G, _, _ = make_counterexample(2, 1, 1)
    assert len(centre(G)) == 4
