"""The verification pipeline on ingested groups outside the built-in families."""

import random

import pytest

from dimfox.formulas import FormulaContext, dim3_formula, fox1_formula, fox2_formula
from dimfox.groupring import CoeffRing, dim_subgroup_brute, fox_subgroup_brute
from dimfox.groups import (
    build_group,
    cyclic_subgroups,
    lower_central_series,
    trivial_subgroup,
    whole_group,
)
from dimfox.verify import verify_dim3, verify_four_term, verify_fox


def alternating4():
    """A4 on four points: non-nilpotent, stabilizing lower central series."""
    return build_group(
        {"perm_gens": [[[0, 1, 2]], [[0, 1], [2, 3]]]}
    )



def test_a4_shape():
    G = alternating4()
    assert G.order == 12
    chain = lower_central_series(G).chain
    # stabilizes at the Klein subgroup
    assert [len(t) for t in chain] == [12, 4]


@pytest.mark.parametrize("m", [0, 2, 3, 4])
def test_a4_dim3(m):
    G = alternating4()
    N = lower_central_series(G)
    for K in cyclic_subgroups(G):
        r = verify_dim3(G, K, N, CoeffRing.parse(m))
        assert r.equal and all(r.containments.values()), (m, sorted(K.members))


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("m", [0, 2, 3])
def test_a4_fox(n, m):
    G = alternating4()
    subs = [s for s in cyclic_subgroups(G) if len(s) <= 3]
    for H in subs:
        for K in subs[:3]:
            r = verify_fox(G, H, K, n, CoeffRing.parse(m))
            assert r.equal and all(r.containments.values()), (n, m)


def test_a4_four_term():
    G = alternating4()
    klein = lower_central_series(G).term(2)
    r = verify_four_term(G, klein, lower_central_series(G))
    assert r.equal


def test_random_abelian_tables():
    """Random shuffled Cayley tables of abelian groups through the pipeline."""
    rng = random.Random(31)
    for base in ("cyclic:8", "cyclic:2 x cyclic:6", "elementary-abelian:3,2"):
        G0 = build_group(base)
        n = G0.order
        perm = list(range(n))
        rng.shuffle(perm)
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        table = [[perm[G0.mul(inv[a], inv[b])] for b in range(n)] for a in range(n)]
        G = build_group({"table": table})
        assert G.order == n and G.is_abelian()
        for m in (0, 2, 3):
            ctx = FormulaContext(G, trivial_subgroup(G), CoeffRing.parse(m))
            brute = dim_subgroup_brute(G, trivial_subgroup(G), ctx.N, CoeffRing.parse(m))
            assert brute == dim3_formula(ctx).result
            ctx2 = FormulaContext(G, trivial_subgroup(G), CoeffRing.parse(m), H=whole_group(G))
            assert fox_subgroup_brute(G, whole_group(G), trivial_subgroup(G), 1, CoeffRing.parse(m)) == fox1_formula(ctx2)
            assert fox_subgroup_brute(G, whole_group(G), trivial_subgroup(G), 2, CoeffRing.parse(m)) == fox2_formula(ctx2)
