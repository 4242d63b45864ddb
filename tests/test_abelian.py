"""Functor calculus on finitely generated abelian groups."""

import random
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from dimfox.abelian import (
    AbelianError,
    AbHom,
    ConnectingTau,
    ExteriorSquare,
    FgAb,
    Presentation,
    SubgroupData,
    all_invariant_shapes,
    check_torsion_square_kernel,
    check_wedge_kernel_identity,
    connecting_tau,
    diagonal_rows,
    exterior_square,
    hom_on_generators,
    hom_preimage_lattice,
    relation_lattice,
    subgroup_lattice,
    symmetric_square,
    tau3,
    tensor,
    tor1,
)
from dimfox.intlinalg import lattice_from_rows


@st.composite
def small_fgab(draw, max_size=36):
    shapes = [s for s in all_invariant_shapes(max_size)] + [()]
    return FgAb(draw(st.sampled_from(shapes)))


def test_invariant_validation():
    FgAb((2, 4, 8))
    FgAb((2, 0, 0))
    FgAb(())
    with pytest.raises(AbelianError):
        FgAb((2, 3))
    with pytest.raises(AbelianError):
        FgAb((0, 2))
    with pytest.raises(AbelianError):
        FgAb((1,))


def test_element_arithmetic():
    A = FgAb((4, 0))
    assert A.reduce((5, -3)) == (1, -3)
    assert A.add((3, 1), (2, 2)) == (1, 3)
    assert A.order_of((1, 0)) == 4
    assert A.order_of((0, 1)) == 0
    assert A.order_of((2, 0)) == 2


def test_presentation_examples():
    assert Presentation([], 2).group.invariants == (0, 0)
    assert Presentation([[2, 0], [0, 4]], 2).group.invariants == (2, 4)
    assert Presentation([[2, 2], [0, 4]], 2).group.invariants == (2, 4)


def test_diagonal_rows():
    assert diagonal_rows([2, 0, 6]) == [[2, 0, 0], [0, 0, 6]]
    assert diagonal_rows([0, 0]) == [] and diagonal_rows([]) == []


@settings(max_examples=60, deadline=None)
@given(small_fgab())
def test_presentation_idempotent(A):
    pres = Presentation(diagonal_rows(A.invariants), A.rank)
    assert pres.group.invariants == A.invariants


@settings(max_examples=60, deadline=None)
@given(small_fgab())
def test_push_lift_roundtrip(A):
    pres = Presentation(diagonal_rows(A.invariants), A.rank)
    rng = random.Random(1)
    for _ in range(5):
        elem = pres.group.reduce([rng.randint(-9, 9) for _ in range(pres.group.rank)])
        assert pres.push(pres.lift(elem)) == elem


def test_tensor_examples():
    assert tensor(FgAb((2,)), FgAb((3,))).group.invariants == ()
    assert tensor(FgAb((4,)), FgAb((6,))).group.invariants == (2,)
    assert tensor(FgAb((4,)), FgAb((0,))).group.invariants == (4,)


@settings(max_examples=50, deadline=None)
@given(small_fgab(), small_fgab())
def test_tensor_order_is_gcd_product(A, B):
    if not (A.is_finite and B.is_finite):
        return
    t = tensor(A, B)
    expected = prod(
        gcd(a, b) for a in A.invariants for b in B.invariants
    ) if A.rank and B.rank else 1
    assert t.group.size == expected


@settings(max_examples=40, deadline=None)
@given(small_fgab(), small_fgab())
def test_tensor_bilinear(A, B):
    if not (A.is_finite and B.is_finite):
        return
    t = tensor(A, B)
    rng = random.Random(9)
    for _ in range(6):
        a1 = A.reduce([rng.randint(0, 20) for _ in range(A.rank)])
        a2 = A.reduce([rng.randint(0, 20) for _ in range(A.rank)])
        b = B.reduce([rng.randint(0, 20) for _ in range(B.rank)])
        lhs = t.pair(A.add(a1, a2), b)
        rhs = t.group.add(t.pair(a1, b), t.pair(a2, b))
        assert lhs == rhs
        lhs2 = t.pair(a1, B.smul(3, b))
        rhs2 = t.group.smul(3, t.pair(a1, b))
        assert lhs2 == rhs2


def test_tor_examples():
    assert tor1(FgAb((0,)), FgAb((4, 8))).group.invariants == ()
    assert tor1(FgAb((4,)), FgAb((6,))).group.invariants == (2,)


@settings(max_examples=50, deadline=None)
@given(small_fgab(), small_fgab())
def test_tor_symmetric(A, B):
    t1 = tor1(A, B)
    t2 = tor1(B, A)
    assert t1.group.invariants == t2.group.invariants
    if A.is_finite and B.is_finite:
        expected = prod(
            gcd(a, b) for a in A.invariants if a for b in B.invariants if b
        )
        assert t1.group.size == expected


def test_tor_triple_validity():
    A = FgAb((4,))
    B = FgAb((6,))
    t = tor1(A, B)
    with pytest.raises(AbelianError):
        t.triple((1,), 3, (2,))  # 3 * 1 != 0 in Z/4
    elem = t.triple((2,), 2, (3,))
    assert elem in {(0,), (1,)}
    # the generator triple evaluates to the generator
    gens = [t.triple(a, k, b) for _, a, k, b in t.generators()]
    assert gens == [t.presentation.push([1])] == [(1,)]


@settings(max_examples=30, deadline=None)
@given(small_fgab())
def test_tor_triples_additive_in_k_slides(A):
    """<a, k, b> matches the connecting description on doubled triples."""
    if not A.is_finite or A.size > 30:
        return
    t = tor1(A, A)
    rng = random.Random(3)
    for a in A.elements():
        k = A.order_of(a)
        if k == 0:
            continue
        for b in A.elements():
            if any(A.smul(k, b)):
                continue
            v = t.triple(a, k, b)
            v2 = t.group.add(t.triple(a, k, b), t.triple(a, k, b))
            assert v2 == t.triple(a, k, A.add(b, b))
            break


def test_exterior_square_examples():
    assert exterior_square(FgAb((6,))).group.invariants == ()
    assert exterior_square(FgAb((2, 2))).group.invariants == (2,)
    assert exterior_square(FgAb((2, 4))).group.invariants == (2,)


@settings(max_examples=40, deadline=None)
@given(small_fgab())
def test_ell_nu_identity_and_injectivity(A):
    if not A.is_finite or A.size > 32:
        return
    w = exterior_square(A)
    t = w.tensorAA
    identity = AbHom(A, A, A.basis())
    nu = t.hom(identity, identity, w)
    ell = w.ell()
    rng = random.Random(5)
    for _ in range(8):
        a = A.reduce([rng.randint(0, 16) for _ in range(A.rank)])
        b = A.reduce([rng.randint(0, 16) for _ in range(A.rank)])
        lhs = ell(nu(t.pair(a, b)))
        rhs = t.group.sub(t.pair(a, b), t.pair(b, a))
        assert lhs == rhs
        assert nu(t.pair(a, b)) == w.pair(a, b)
    # ell is injective
    kernel = [x for x in w.group.elements() if not any(ell(x))]
    assert kernel == [w.group.zero()]


def test_symmetric_square_examples():
    assert symmetric_square(FgAb((2,))).group.invariants == (2,)
    assert symmetric_square(FgAb(())).group.invariants == ()
    assert symmetric_square(FgAb((6,))).group.invariants == (6,)
    sp = symmetric_square(FgAb((2, 2)))
    assert sp.group.size == 8
    # the single-generator square has full order
    assert sp.group.order_of(sp.pair((1, 0), (1, 0))) == 2


def test_subgroup_data():
    A = FgAb((8,))
    B = SubgroupData(A, [[2]])
    assert B.group.invariants == (4,)
    assert B.contains([6]) and not B.contains([1])
    assert B.coords([2]) in {(1,), (3,)}
    incl = B.inclusion()
    assert incl(B.coords([4])) == (4,)
    assert frozenset(incl(b) for b in B.group.elements()) == frozenset({(0,), (2,), (4,), (6,)})


def test_connecting_tau_example():
    ct = connecting_tau(FgAb((4,)), [[2]])
    assert ct.Q.invariants == (2,)
    assert ct.tor.group.invariants == (2,)
    assert ct.target.group.invariants == (2,)
    assert ct.hom.rows == [(1,)]  # nonzero connecting map
    # zero target when B = A, zero source when B = 0
    assert connecting_tau(FgAb((4,)), [[1]]).target.group.invariants == ()
    assert connecting_tau(FgAb((4,)), []).tor.group.invariants == (4,)
    assert connecting_tau(FgAb((4,)), []).target.group.invariants == ()


@settings(max_examples=25, deadline=None)
@given(small_fgab(max_size=16))
def test_six_term_exactness(A):
    """Tor(Q,Q) -> Q(x)B -> Q(x)A -> Q(x)Q -> 0 is exact where computable."""
    if not A.is_finite or A.size > 16:
        return
    rng = random.Random(17)
    # a couple of random subgroups
    for _ in range(3):
        gens = [
            [rng.randint(0, 12) for _ in range(A.rank)]
            for _ in range(rng.randint(0, 2))
        ]
        ct = connecting_tau(A, gens)
        B, Q = ct.B, ct.Q
        t_QB = ct.target
        t_QA = tensor(Q, A)
        t_QQ = tensor(Q, Q)
        qmap = ct.quotient_map()
        incl = B.inclusion()
        id_j = AbHom(t_QB.group, t_QA.group, _tensor_map_rows(t_QB, t_QA, Q, incl))
        id_q = AbHom(t_QA.group, t_QQ.group, _tensor_map_rows(t_QA, t_QQ, Q, qmap))
        im_tau = t_QB.group.span(ct.hom.rows)
        ker_j = id_j.kernel_set()
        assert im_tau == ker_j
        im_j = t_QA.group.span(id_j.rows)
        ker_q = id_q.kernel_set()
        assert im_j == ker_q
        assert t_QQ.group.span(id_q.rows) == frozenset(t_QQ.group.elements())


def _tensor_map_rows(t_src, t_dst, Q, f):
    """Rows of id (x) f on the source's canonical basis, built by hand: the
    reference for TensorProduct.hom."""
    gen_images = []
    for i in range(Q.rank):
        ei = [0] * Q.rank
        ei[i] = 1
        for j in range(f.dom.rank):
            ej = [0] * f.dom.rank
            ej[j] = 1
            gen_images.append(t_dst.pair(ei, f(ej)))
    hom = hom_on_generators(t_src.presentation, gen_images, t_src.group, t_dst.group)
    return hom.rows


@settings(max_examples=25, deadline=None)
@given(small_fgab(max_size=16))
def test_tensor_hom_matches_hand_built_maps(A):
    """TensorProduct.hom equals the hand-built id (x) f, and f (x) g sends
    a (x) b to f(a) (x) g(b) for maps on both factors."""
    if not A.is_finite:
        return
    rng = random.Random(29)
    for _ in range(3):
        gens = [[rng.randint(0, 12) for _ in range(A.rank)] for _ in range(rng.randint(0, 2))]
        ct = connecting_tau(A, gens)
        B, Q = ct.B, ct.Q
        incl, qmap = B.inclusion(), ct.quotient_map()
        id_Q = AbHom(Q, Q, Q.basis())
        t_QB, t_QA, t_QQ = ct.target, tensor(Q, A), tensor(Q, Q)
        assert t_QB.hom(id_Q, incl, t_QA).rows == _tensor_map_rows(t_QB, t_QA, Q, incl)
        assert t_QA.hom(id_Q, qmap, t_QQ).rows == _tensor_map_rows(t_QA, t_QQ, Q, qmap)
        t_AB = tensor(A, B.group)
        f_g = t_AB.hom(qmap, incl, t_QA)
        for _ in range(4):
            a = A.reduce([rng.randint(0, 16) for _ in range(A.rank)])
            b = B.group.reduce([rng.randint(0, 16) for _ in range(B.group.rank)])
            assert f_g(t_AB.pair(a, b)) == t_QA.pair(qmap(a), incl(b))


def test_tau_triples_match_hom():
    rng = random.Random(23)
    for shape, gens in [((4,), [[2]]), ((2, 4), [[1, 2]]), ((8,), [[4]]), ((2, 8), [[0, 2]])]:
        A = FgAb(shape)
        ct = connecting_tau(A, gens)
        Q = ct.Q
        if not Q.is_finite or Q.size > 64:
            continue
        for a in Q.elements():
            k = Q.order_of(a)
            for b in Q.elements():
                if any(Q.smul(k, b)):
                    continue
                direct = ct.tau_on_triple(a, k, b)
                via_hom = ct.hom(ct.tor.triple(a, k, b))
                assert direct == via_hom


def test_tau3_examples():
    m_odd = tau3(FgAb((9,)), 3)
    assert all(not any(m_odd(a)) for a in m_odd.domain_elements())
    m2 = tau3(FgAb((2,)), 2)
    kernel = m2.kernel_set()
    assert kernel == frozenset({(0,)})
    m0 = tau3(FgAb((6,)), 0)
    assert all(not any(m0(a)) for a in m0.domain_elements())
    with pytest.raises(AbelianError):
        tau3(FgAb((0,)), 0)


def test_torsion_square_kernel_examples():
    assert check_torsion_square_kernel(FgAb((3,)), 3).ok
    r = check_torsion_square_kernel(FgAb((4,)), 2)
    assert r.ok and r.detail["kernel_size"] == 2
    assert check_torsion_square_kernel(FgAb((2,)), 2).detail["kernel_size"] == 1


def test_wedge_kernel_identity_examples():
    A = FgAb((4,))
    assert check_wedge_kernel_identity(A, [[1]]).ok  # B = A
    assert check_wedge_kernel_identity(A, []).ok  # B = 0
    assert check_wedge_kernel_identity(A, [[2]]).ok


def _kernel_path_maps(A):
    """Maps whose kernels the single lattice path must reproduce."""
    wedge = ExteriorSquare(A)
    e_first = [1] + [0] * (A.rank - 1)
    twice_last = [0] * (A.rank - 1) + [2]
    identity = AbHom(A, A, A.basis())
    yield wedge.tensorAA.hom(identity, identity, wedge)
    yield wedge.ell()
    for gens in ([], [twice_last], [e_first]):
        yield ConnectingTau(A, gens).quotient_map()
    yield AbHom(A, FgAb(()), [()] * A.rank)
    yield AbHom(FgAb(()), A, [])


@pytest.mark.parametrize("shape", all_invariant_shapes(16), ids=str)
def test_kernel_lattice_matches_elementwise_kernel(shape):
    cap = 1 << 16  # (Z/2)^4 (x) (Z/2)^4 has 2^16 elements
    for f in _kernel_path_maps(FgAb(shape)):
        lat = hom_preimage_lattice(f, relation_lattice(f.cod))
        assert lat.ncols == f.dom.rank  # 0 for the map out of FgAb(())
        assert frozenset(a for a in f.dom.elements(cap) if lat.contains(a)) == f.kernel_set(cap)


@pytest.mark.parametrize("shape", all_invariant_shapes(16), ids=str)
def test_hom_preimage_lattice_holds_the_domain_relations(shape):
    """The domain's relation rows d_i*e_i lie in the preimage already, for
    the relation lattice of the codomain and for a subgroup lattice above it."""
    for f in _kernel_path_maps(FgAb(shape)):
        for target in (relation_lattice(f.cod), subgroup_lattice(f.cod, f.cod.basis()[:1])):
            lat = hom_preimage_lattice(f, target)
            assert all(lat.contains(row) for row in diagonal_rows(f.dom.invariants))


def test_hom_preimage_lattice_refuses_a_target_without_the_codomain_relations():
    A = FgAb((2, 4))
    identity = AbHom(A, A, A.basis())
    with pytest.raises(AbelianError, match="codomain's relations"):
        hom_preimage_lattice(identity, lattice_from_rows([[2, 0]], 2))


def test_all_invariant_shapes():
    shapes = all_invariant_shapes(8)
    assert (2,) in shapes and (2, 2) in shapes and (8,) in shapes
    assert (2, 4) in shapes and (3,) in shapes and (7,) in shapes
    assert (2, 3) not in shapes
    for s in shapes:
        assert prod(s) <= 8
