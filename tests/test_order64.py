"""Order-64 coverage beyond the flagship case: other subgroups and rings."""

import pytest

from dimfox.groupring import CoeffRing
from dimfox.groups import (
    generated_subgroup,
    lower_central_series,
    make_counterexample,
    trivial_subgroup,
)
from dimfox.verify import (
    verify_dim3,
    verify_four_term,
    verify_fox,
    verify_polynomial_sequence,
)


@pytest.fixture(scope="module")
def big():
    G, K, z = make_counterexample(2, 1, 1)
    return G, K, z



@pytest.mark.parametrize("m", [0, 2, 4])
def test_dim3_counterexample_all_rings(big, m):
    G, K, z = big
    r = verify_dim3(G, K, lower_central_series(G), CoeffRing.parse(m))
    assert r.equal and all(r.containments.values())
    if m == 0:
        assert r.counterexample and G.names[z] in r.lhs


@pytest.mark.parametrize("m", [0, 2])
def test_dim3_other_subgroups(big, m):
    G, K, _ = big
    x, y = G.generators
    c = G.comm(x, y)
    for gens in ([], [c], [G.power(x, 2)], [x], [G.mul(x, y)]):
        Ksub = generated_subgroup(G, gens)
        r = verify_dim3(G, Ksub, lower_central_series(G), CoeffRing.parse(m))
        assert r.equal and all(r.containments.values()), (m, gens)


@pytest.mark.parametrize("m", [0, 2])
def test_fox_weight2_h_equals_g(big, m):
    G, K, z = big
    from dimfox.groups import whole_group

    r = verify_fox(G, whole_group(G), K, 2, CoeffRing.parse(m))
    assert r.equal and all(r.containments.values())
    if m == 0:
        assert G.names[z] in r.lhs


def test_four_term_with_counterexample_k(big):
    G, K, _ = big
    r = verify_four_term(G, K, lower_central_series(G))
    assert r.equal


@pytest.mark.parametrize("m", [4, 6])
def test_polynomial_sequence_mod(big, m):
    G, _, _ = big
    x, y = G.generators
    K = generated_subgroup(G, [G.comm(x, y)])
    r = verify_polynomial_sequence(G, K, lower_central_series(G), CoeffRing.mod(m))
    assert r.equal
