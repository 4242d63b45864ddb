"""Group construction, subgroup primitives, series, abelian quotients."""

import json
import re
from functools import lru_cache
from itertools import product as iproduct
from math import gcd, prod
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dimfox.cli import main as cli_main
from dimfox.groups import (
    ClosureError,
    FiniteGroup,
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
    subgroup_exponent,
    subgroup_from_members,
    trivial_subgroup,
    validate_nseries,
    whole_group,
)
from dimfox.groups import _class2, _compose_table, _dihedral, _quaternion8
from dimfox.verify import DEFAULT_GROUPS

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
    t = np.asarray(G.table)
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
        build_group("")
    with pytest.raises(GroupError, match="cannot parse group spec"):
        build_group('{"perm_gens": [[[0, 1]]]')  # JSON cut short
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
    with pytest.raises(GroupError, match="not associative"):
        build_group({"table": bad})
    # Light's test runs over the given generators, not the greedy ones [1, 2]
    with pytest.raises(GroupError, match="not associative"):
        build_group({"table": bad, "generators": [4, 3]})


def _reduced_latin_squares(n):
    """Every Latin square on 0..n-1 whose first row and column are 0..n-1."""
    rows = [list(range(n))] + [[a] + [None] * (n - 1) for a in range(1, n)]
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]

    def fill(i):
        if i == len(cells):
            yield [r[:] for r in rows]
            return
        a, b = cells[i]
        for x in range(n):
            if x not in rows[a][:b] and all(rows[c][b] != x for c in range(a)):
                rows[a][b] = x
                yield from fill(i + 1)
        rows[a][b] = None

    yield from fill(0)


@pytest.mark.parametrize("n, squares, groups", [(4, 4, 4), (5, 56, 6), (6, 9408, 80)])
def test_light_test_agrees_with_the_full_check_on_every_small_latin_square(n, squares, groups):
    """An ingested Latin square with an identity is accepted exactly when
    the full n^3 associativity check passes, on every reduced square of
    order n; the others are refused for their inverses or associativity."""
    seen = accepted = 0
    for sq in _reduced_latin_squares(n):
        t = np.array(sq)
        associative = all((t[t[a], :] == t[a][t]).all() for a in range(n))
        try:
            build_group({"table": sq})
        except GroupError as exc:
            assert not associative and re.search("not associative|two-sided inverse", str(exc)), sq
        else:
            assert associative, sq
            accepted += 1
        seen += 1
    assert (seen, accepted) == (squares, groups)


@pytest.mark.parametrize(
    "spec, message",
    [
        ('{"table": [[0, 1], [1, 0.5]]}', "table entry 0.5 in row 1 is not an int"),
        ('{"table": [[0, 1], [1, "0"]]}', "table entry '0' in row 1 is not an int"),
        ('{"table": [[0, 1], [1, true]]}', "table entry True in row 1 is not an int"),
        ('{"table": [[0, 1], [1, 4294967296]]}', "table entry 4294967296 in row 1 is out of range for order 2"),
        ('{"table": 5}', "table must be a list of rows, not 5"),
        ('{"table": [[0, 1], [1]]}', "table row 1 is not a list of 2 entries: the table must be square"),
        ('{"table": [[0, 1], 1]}', "table row 1 is not a list of 2 entries: the table must be square"),
        ('{"table": [[0, 1], [1, 0]], "generators": [1.5]}', "generators must be a list of int indices, not \\[1.5\\]"),
        ('{"table": [[0, 1], [1, 0]], "generators": 1}', "generators must be a list of int indices, not 1"),
        ('{"order": 3, "table": [[0, 1], [1, 0]]}', "table spec order 3 is not the table's size 2"),
        ('{"order": "2", "table": [[0, 1], [1, 0]]}', "table spec order '2' is not the table's size 2"),
    ],
)
def test_malformed_table_specs_are_refused_by_name(capsys, spec, message):
    """An ingested table, its generators and its order are outside input:
    a float, string, bool or too-large entry, a table that is not a list of
    equal rows, a non-int generator and an order that is not the table's
    size are each refused with a GroupError, and the CLI exits 2."""
    with pytest.raises(GroupError, match=message):
        build_group(json.loads(spec))
    assert cli_main(["group", "show", spec]) == 2
    assert re.search(message, capsys.readouterr().err)


@pytest.mark.parametrize(
    "spec, message",
    [
        ('{"perm_gens": 5}', "perm_gens must be a list of generators, not 5"),
        ('{"perm_gens": [5]}', "perm_gens generator 0 is not a list of cycles: 5"),
        ('{"perm_gens": [[[0, 1]], [5]]}', "perm_gens generator 1 has a cycle that is not a list of points: 5"),
        ('{"perm_gens": [[[0, 1.5]]]}', "cycle point 1.5 in generator 0 is not an int"),
        ('{"perm_gens": [[["a", 1]]]}', "cycle point 'a' in generator 0 is not an int"),
        ('{"perm_gens": [[[true, 2]]]}', "cycle point True in generator 0 is not an int"),
        ('{"perm_gens": [[[0, -1]]]}', "cycle point -1 out of range"),
    ],
)
def test_malformed_perm_gens_specs_are_refused_by_name(capsys, spec, message):
    """Permutation generators are outside input: a spec, generator or cycle
    that is not a list, and a point that is not an int (a bool included)
    or is negative, are each refused with a GroupError, and the CLI exits 2."""
    with pytest.raises(GroupError, match=message):
        build_group(json.loads(spec))
    assert cli_main(["group", "show", spec]) == 2
    assert re.search(message, capsys.readouterr().err)


def test_permutation_points_are_numbered_as_they_occur():
    """Only the points that occur are numbered, in ascending order: a
    large label allocates nothing of its size, relabelling the points in
    order keeps the table and the names, and an empty cycle is the
    identity."""
    import tracemalloc

    tracemalloc.start()
    try:
        G = build_group({"perm_gens": [[[0, 10**6]]]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (G.table, G.names) == (build_group("cyclic:2").table, ("p0", "p1"))
    assert peak < 10**6, peak
    S3 = build_group({"perm_gens": [[[0, 1, 2]], [[0, 1]]]})
    spread = build_group({"perm_gens": [[[3, 70, 500]], [[3, 70]]]})
    assert (spread.table, spread.names, spread.generators) == (S3.table, S3.names, S3.generators)
    assert build_group({"perm_gens": [[[]], [[4, 9]]]}).table == build_group("cyclic:2").table  # [] is the identity


@pytest.mark.parametrize(
    "spec, order",
    [
        ("cyclic:30000", 30000),
        ("cyclic:1000 x cyclic:1000", 1000000),
        ("dihedral:600", 1200),
        ("elementary-abelian:2,11", 2048),
        ("class2:2,3", 4096),
        ("cyclic:2 x class2:2,2 x quaternion:8", 8192),
    ],
)
def test_order_cap_is_checked_before_any_table_is_built(monkeypatch, spec, order):
    import dimfox.groups as groups

    def no_table(*args):
        raise AssertionError(f"a table was built for {spec}")

    for family in ("_cyclic", "_dihedral", "_quaternion8", "_class2", "_elementary_abelian"):
        monkeypatch.setattr(groups, family, no_table)
    with pytest.raises(GroupError, match=f"group order {order} exceeds the cap 1024"):
        build_group(spec)


PRODUCT_NAMES = ["((1,1),1)", "((1,1),x)", "((1,x),1)", "((1,x),x)", "((x,1),1)", "((x,1),x)", "((x,x),1)", "((x,x),x)"]
Q8 = build_group("quaternion:8")


@pytest.mark.parametrize(
    "spec,names,generators,mul",
    [
        ("cyclic:2 x cyclic:2 x cyclic:2", PRODUCT_NAMES, (4, 2, 1), lambda a, b: a ^ b),
        ("elementary-abelian:2,3", PRODUCT_NAMES, (4, 2, 1), lambda a, b: a ^ b),
        (
            "cyclic:2 x quaternion:8",
            [f"({a},{b})" for a in ("1", "x") for b in Q8.names],
            (8, 1, 4),
            lambda a, b: (a ^ b) & 8 | Q8.mul(a & 7, b & 7),
        ),
    ],
)
def test_product_builds_are_pinned(spec, names, generators, mul, monkeypatch):
    """Products keep their element order, nested names, generators, identity
    and spec (names appear in reports and configs), and build one group on
    a cold memo and none on a warm one."""
    import dimfox.groups as groups

    built = []
    init = FiniteGroup.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("spec"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(groups, "_built", {})
    monkeypatch.setattr(FiniteGroup, "__init__", counted)
    G = build_group(spec)
    assert built == [spec]
    assert build_group(spec) is G and built == [spec]
    assert (list(G.names), G.generators, G.identity, G.spec) == (names, generators, 0, spec)
    assert G.table == [[mul(a, b) for b in range(G.order)] for a in range(G.order)]


def test_a_family_spec_builds_one_group_per_spec_text(monkeypatch):
    import dimfox.groups as groups

    monkeypatch.setattr(groups, "_built", {})
    G = build_group("cyclic:4")
    assert build_group(" cyclic:4 ") is G
    assert build_group("cyclic:4", max_order=4) is G


def test_the_order_cap_is_checked_on_a_warm_memo(monkeypatch):
    """A spec over the cap is refused even when the memo holds its group,
    and a refused spec is never kept."""
    import dimfox.groups as groups

    monkeypatch.setattr(groups, "_built", {})
    G = build_group("cyclic:512")
    with pytest.raises(GroupError, match="group order 512 exceeds the cap 256"):
        build_group("cyclic:512", max_order=256)
    with pytest.raises(GroupError, match="group order 300 exceeds the cap 256"):
        build_group("cyclic:300", max_order=256)
    assert groups._built == {"cyclic:512": G}
    assert build_group("cyclic:512") is G


def test_dict_and_table_specs_are_built_fresh(monkeypatch):
    import dimfox.groups as groups

    monkeypatch.setattr(groups, "_built", {})
    D = build_group("dihedral:4")
    specs = [
        json.loads(json.dumps({"table": D.table, "names": D.names, "generators": D.generators})),
        {"perm_gens": [[[0, 1, 2, 3]], [[0, 2]]]},
    ]
    for spec in specs + [json.dumps(spec) for spec in specs]:
        a, b = build_group(spec), build_group(spec)
        assert a is not b and a.table == b.table and a.order == 8
    assert groups._built == {"dihedral:4": D}


def test_the_group_memo_keeps_its_bounds(monkeypatch):
    """At most 64 groups, the least recently used dropped first, of at most
    2^18 table entries in all; a group over that alone is never kept."""
    import dimfox.groups as groups

    monkeypatch.setattr(groups, "_built", {})
    first = build_group("cyclic:1")
    for n in range(2, 65):
        build_group(f"cyclic:{n}")
    assert build_group("cyclic:1") is first  # now the most recently used
    build_group("cyclic:65")
    assert len(groups._built) == 64 and "cyclic:2" not in groups._built and "cyclic:1" in groups._built
    big = build_group("cyclic:512")  # 512^2 = 2^18 entries: every other group is dropped
    assert groups._built == {"cyclic:512": big}
    assert build_group("cyclic:513") is not build_group("cyclic:513")
    assert groups._built == {"cyclic:512": big}


def test_whole_group_and_lower_central_series_are_kept_on_the_group():
    G = build_group("dihedral:4")
    assert whole_group(G) is whole_group(G)
    assert lower_central_series(G) is lower_central_series(G)
    assert lower_central_series(G).term(1) is whole_group(G)


def _dihedral_law(n):
    """dihedral:n written out: r^a f^b at a + n*b, f r = r^-1 f, f^2 = 1."""
    table = np.zeros((2 * n, 2 * n), dtype=np.int32)
    for a, b, c, d in iproduct(range(n), range(2), range(n), range(2)):
        e = ((a + c) % n, d) if b == 0 else ((a - c) % n, 1 - d)
        table[a + n * b, c + n * d] = e[0] + n * e[1]
    rotations = ["1", "r"] + [f"r{a}" for a in range(2, n)]
    names = rotations[:n] + ["f"] + [f"{r}f" for r in rotations[1:n]]
    return table, names, [1, n] if n > 1 else [n]


def _quaternion8_law():
    """quaternion:8 written out: x^a y^b at a + 4b, y x = x^-1 y, y^2 = x^2."""
    table = np.zeros((8, 8), dtype=np.int32)
    for a, b, c, d in iproduct(range(4), range(2), range(4), range(2)):
        ea, eb = ((a + c) % 4, d) if b == 0 else ((a - c) % 4, 1 + d)
        if eb == 2:
            ea, eb = (ea + 2) % 4, 0
        table[a + 4 * b, c + 4 * d] = ea + 4 * eb
    return table, ["1", "x", "x2", "x3", "y", "xy", "x2y", "x3y"], [1, 4]


def test_dihedral_and_quaternion_tables_follow_their_product_laws():
    """The built tables, names and generators equal those of the
    entry-by-entry product law."""
    built = [(_dihedral(n), _dihedral_law(n)) for n in range(1, 41)] + [(_quaternion8(), _quaternion8_law())]
    for t, (table, names, generators) in built:
        assert (t.table, t.names, t.generators) == (table.tolist(), names, generators), t.spec


def _class2_law(p, s):
    """class2:p,s written out: x^i y^j c^k at (i*q + j)*q + k with
    q = p^(s+1), y^j x^i = c^(-ij) x^i y^j and c central."""
    q = p ** (s + 1)
    triples = list(iproduct(range(q), repeat=3))
    table = np.zeros((q**3, q**3), dtype=np.int32)
    for a, (i1, j1, k1) in enumerate(triples):
        for b, (i2, j2, k2) in enumerate(triples):
            # (x^i1 y^j1 c^k1)(x^i2 y^j2 c^k2) = x^(i1+i2) y^(j1+j2) c^(k1+k2-i2*j1)
            table[a, b] = (((i1 + i2) % q) * q + (j1 + j2) % q) * q + (k1 + k2 - i2 * j1) % q
    power = lambda letter, e: letter if e == 1 else f"{letter}{e}"
    names = ["*".join(power(t, e) for t, e in zip("xyc", ijk) if e) or "1" for ijk in triples]
    return table, names, [q * q, q]


@pytest.mark.parametrize(
    "p,s", [(2, 1), (2, 2), pytest.param(3, 1, marks=pytest.mark.slow)]
)
def test_class2_tables_follow_their_product_law(p, s):
    """The class2 table, composed from the rows of x and y, equals the
    entry-by-entry product law, with the same names and generators."""
    t = _class2(p, s)
    table, names, generators = _class2_law(p, s)
    assert (t.table, t.names, t.generators) == (table.tolist(), names, generators), t.spec


def test_compose_table_refuses_rows_that_do_not_generate():
    """Generator rows that reach part of the group only are refused, by
    the generators and the count they reach: r^2 in dihedral:4 reaches
    the rotations 1 and r^2."""
    rows = _dihedral(4).table
    assert _compose_table(8, {1: rows[1], 4: rows[4]}) == rows
    with pytest.raises(GroupError, match=r"generator rows \[2\] do not generate the group: they reach 2 of its 8"):
        _compose_table(8, {2: rows[2]})


def test_ingested_table_roundtrip():
    table = build_group("dihedral:3").table
    G = build_group({"table": table})
    assert build_group({"order": 6, "table": table}).order == 6
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


# -- scalar loop oracles for the table-based primitives ---------------------
#
# Each oracle is the element-by-element loop the primitive used before it
# read whole tables; it reads only scalar entries of G.table.


def _mul(G, a, b):
    return G.table[a][b]


def inverses_loop(G):
    inv = []
    for a in range(G.order):
        hits = [b for b in range(G.order) if _mul(G, a, b) == G.identity]
        assert len(hits) == 1 and _mul(G, hits[0], a) == G.identity
        inv.append(hits[0])
    return inv


def orders_loop(G):
    orders = []
    for g in range(G.order):
        x, k = g, 1
        while x != G.identity:
            x = _mul(G, x, g)
            k += 1
        orders.append(k)
    return orders


def closure_two_sided(G, seeds):
    """The subgroup generated by the seeds, closing under left and right products."""
    members = {G.identity}
    frontier = [G.identity]
    seeds = set(seeds) | {G.identity}
    for s in seeds:
        if s not in members:
            members.add(s)
            frontier.append(s)
    seeds = sorted(seeds)
    while frontier:
        g = frontier.pop()
        for s in seeds:
            for h in (_mul(G, g, s), _mul(G, s, g)):
                if h not in members:
                    members.add(h)
                    frontier.append(h)
    return frozenset(members)


def is_normal_loop(G, members):
    inv = inverses_loop(G)
    return all(_mul(G, _mul(G, g, a), inv[g]) in members for a in members for g in range(G.order))


def escaping_pairs_loop(G, members):
    return {(a, b) for a in members for b in members if _mul(G, a, b) not in members}


def quotient_loop(G, members):
    """(table, proj, reps) of G/S with cosets gS named by their least element."""
    n = G.order
    smem = sorted(members)
    rep = [-1] * n
    reps = []
    for g in range(n):
        if rep[g] >= 0:
            continue
        coset = [_mul(G, g, s) for s in smem]
        for h in coset:
            rep[h] = min(coset)
        reps.append(min(coset))
    reps.sort()
    cid = {r: i for i, r in enumerate(reps)}
    proj = [cid[rep[g]] for g in range(n)]
    table = [[proj[_mul(G, a, b)] for b in reps] for a in reps]
    return table, proj, reps


def _relabelled_dihedral4():
    """dihedral:4 ingested through a permutation of its labels, so the identity is not 0."""
    D = build_group("dihedral:4")
    perm = [5, 2, 7, 0, 3, 6, 1, 4]  # old label -> new label
    table = [[0] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            table[perm[a]][perm[b]] = perm[D.table[a][b]]
    return {"table": table}


ORACLE_SPECS = {
    "cyclic:6": "cyclic:6",
    "dihedral:4": "dihedral:4",
    "quaternion:8": "quaternion:8",
    "elementary-abelian:2,3": "elementary-abelian:2,3",
    "class2:2,1": "class2:2,1",
    "cyclic:2 x dihedral:3": "cyclic:2 x dihedral:3",
    "ingested dihedral:4": _relabelled_dihedral4(),
    "perms S4": {"perm_gens": [[[0, 1, 2, 3]], [[0, 1]]]},
}


@lru_cache(maxsize=None)
def oracle_group(key):
    return build_group(ORACLE_SPECS[key])


@pytest.mark.parametrize("key", list(ORACLE_SPECS))
def test_element_tables_match_loop_oracles(key):
    G = oracle_group(key)
    n = G.order
    inv = inverses_loop(G)
    assert G.inverse == inv
    assert [G.order_of(g) for g in range(n)] == orders_loop(G)
    for a in range(n):
        for b in range(n):
            ab = _mul(G, a, b)
            assert G.mul(a, b) == ab
            comm = _mul(G, ab, _mul(G, inv[a], inv[b]))
            assert G.comm(a, b) == comm
            assert G.conj(a, b) == _mul(G, ab, inv[a])
        assert G.inv(a) == inv[a]
        x = G.identity
        for k in range(G.order_of(a) + 2):
            assert G.power(a, k) == x
            assert G.power(a, -k) == G.power(inv[a], k)
            x = _mul(G, x, a)


@pytest.mark.parametrize("spec", DEFAULT_GROUPS)
def test_power_matches_repeated_multiplication(spec):
    """G.power(a, k), read from the power table at k mod the exponent,
    equals k-fold multiplication by a (by a^-1 for k < 0) for every k in
    [-2e, 2e], e the exponent."""
    G = build_group(spec)
    inv = inverses_loop(G)
    e = G.exponent()
    for a in G.elements():
        up = down = G.identity
        for k in range(2 * e + 1):
            assert G.power(a, k) == up and G.power(a, -k) == down, (spec, a, k)
            up, down = _mul(G, up, a), _mul(G, down, inv[a])


def _test_subgroups(G):
    """Every cyclic subgroup and every normal subgroup of G."""
    subs = {S.members: S for S in cyclic_subgroups(G)}
    for S in normal_subgroups(G):
        subs.setdefault(S.members, S)
    return list(subs.values())


@pytest.mark.parametrize("key", list(ORACLE_SPECS))
def test_subgroup_primitives_match_loop_oracles(key):
    G = oracle_group(key)
    subs = _test_subgroups(G)
    assert {S.members for S in normal_subgroups(G)} == {
        S.members for S in subs if is_normal_loop(G, S.members)
    }
    for S in subs:
        assert closure_two_sided(G, S.generators) == S.members
        assert S.is_normal() == is_normal_loop(G, S.members)
        assert not escaping_pairs_loop(G, S.members)
        assert subgroup_from_members(G, S.members) == S
        if S.is_normal():
            Q, proj, reps = quotient_group(G, S)
            table, proj_loop, reps_loop = quotient_loop(G, S.members)
            assert (Q.table, proj, reps) == (table, proj_loop, reps_loop)
        else:
            with pytest.raises(GroupError, match="non-normal"):
                quotient_group(G, S)
    inv = inverses_loop(G)
    for A in subs[:6]:
        for B in subs[-6:]:
            seeds = {
                _mul(G, _mul(G, a, b), _mul(G, inv[a], inv[b])) for a in A.members for b in B.members
            }
            com = commutator_subgroup(G, A, B)
            assert closure_two_sided(G, com.generators) == com.members
            assert com.members == closure_two_sided(G, seeds)


@lru_cache(maxsize=None)
def _section_ambients(key):
    """Cyclic and normal subgroups, and joins of two cyclic ones (in S4 these
    include the non-normal dihedral Sylow subgroups)."""
    G = oracle_group(key)
    cyclic = cyclic_subgroups(G)
    subs = {S.members: S for S in _test_subgroups(G)}
    for a in cyclic:
        for b in cyclic:
            J = join(G, [a, b])
            subs.setdefault(J.members, J)
    return list(subs.values())


@pytest.mark.parametrize("key", list(ORACLE_SPECS))
def test_abelian_quotient_is_an_invariant_factor_decomposition(key):
    """For S = A_2 A^m (normal in A, not always in G): the coordinates are a
    homomorphism from A onto prod Z/d_i with kernel S, the reps map to the
    unit vectors, and the invariants are a divisibility chain that matches
    the coset count #{c : c^k in S} = prod gcd(k, d_i) for every k | exp(A)."""
    G = oracle_group(key)
    non_normal = 0
    for A in _section_ambients(key):
        for m in (0, 2, 3, 4):
            S = join(G, [commutator_subgroup(G, A, A), power_subgroup(G, A, m)])
            non_normal += not S.is_normal()
            sec = abelian_quotient(G, A, S)
            d = sec.invariants
            assert all(x >= 2 for x in d) and all(b % a == 0 for a, b in zip(d, d[1:]))
            coords = {a: sec.coords(a) for a in A.members}
            assert set(coords.values()) == set(iproduct(*(range(x) for x in d)))
            assert {a for a, c in coords.items() if not any(c)} == S.members
            for a in A.members:
                for b in A.members:
                    expect = tuple((x + y) % n for x, y, n in zip(coords[a], coords[b], d))
                    assert coords[G.mul(a, b)] == expect
            for j, r in enumerate(sec.reps):
                assert r in A.members
                assert coords[r] == tuple(int(i == j) for i in range(len(d)))
            cosets = {min(G.mul(a, s) for s in S.members) for a in A.members}
            E = subgroup_exponent(A)
            for k in (k for k in range(1, E + 1) if E % k == 0):
                hits = sum(1 for c in cosets if G.power(c, k) in S.members)
                assert hits == prod(gcd(k, x) for x in d), (sorted(A.members), m, k)
    assert non_normal or all(S.is_normal() for S in cyclic_subgroups(G))


def test_abelian_quotient_builds_no_group(monkeypatch):
    cases = []
    for key in ORACLE_SPECS:
        G = oracle_group(key)
        for A in _section_ambients(key)[-4:]:
            cases.append((G, A, join(G, [commutator_subgroup(G, A, A), power_subgroup(G, A, 2)])))

    def refuse(self, *args, **kwargs):
        raise AssertionError("abelian_quotient built a FiniteGroup")

    monkeypatch.setattr(FiniteGroup, "__init__", refuse)
    for G, A, S in cases:
        abelian_quotient(G, A, S)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(ORACLE_SPECS)), st.data())
def test_generated_subgroup_matches_two_sided_closure(key, data):
    G = oracle_group(key)
    seeds = data.draw(st.lists(st.integers(0, G.order - 1), max_size=4))
    sub = generated_subgroup(G, seeds)
    assert sub.members == closure_two_sided(G, seeds)
    assert sub.generators == tuple(sorted(set(seeds)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(ORACLE_SPECS)), st.data())
def test_subgroup_from_members_names_an_escaping_pair(key, data):
    G = oracle_group(key)
    members = frozenset(data.draw(st.sets(st.integers(0, G.order - 1), min_size=1)))
    escaping = escaping_pairs_loop(G, members)
    if not escaping:
        assert subgroup_from_members(G, members).members == members
        return
    with pytest.raises(ClosureError) as err:
        subgroup_from_members(G, members)
    a, b = re.fullmatch(r"set is not closed: (.+) \* (.+) escapes", str(err.value)).groups()
    assert (G.index_of(a), G.index_of(b)) in escaping


@pytest.mark.parametrize(
    "spec, message",
    [
        ("class2:2,3000000", "group order 2\\^9000003 exceeds the cap 1024"),
        ("elementary-abelian:2,100000000", "group order 2\\^100000000 exceeds the cap 1024"),
        ("cyclic:" + "9" * 3000 + " x cyclic:" + "9" * 3000, "group order past 2\\^10000 exceeds the cap"),
        ("cyclic:" + "9" * 5000, "cannot parse group family"),
    ],
    ids=["class2", "elementary-abelian", "product-of-huge-cyclics", "5000-digit-cyclic"],
)
def test_huge_family_parameters_are_refused_quickly(capsys, spec, message):
    """Orders and parameters too large to print are refused with a
    GroupError, without building the huge integer, and the CLI exits 2."""
    t0 = perf_counter()
    with pytest.raises(GroupError, match=message):
        build_group(spec)
    assert cli_main(["group", "show", spec]) == 2
    assert "error: " in capsys.readouterr().err
    assert perf_counter() - t0 < 1.0


# -- the |A| x |B| table route, kept as the reference of the generator route
#
# The table route closes [A, B] from every [a, b] (a in A, b in B),
# conjugates every member by every element for normality, and names each
# coset of A/S by its least element through one fancy index over A x S.
# It uses the loop closure above in place of the library's.


def commutator_members_table(G, A, B):
    return closure_two_sided(G, sorted({G.comm(a, b) for a in A.members for b in B.members}))


def is_normal_table(G, members):
    t, elems, mem = np.asarray(G.table), np.arange(G.order), np.array(sorted(members))
    conj = t[t[np.ix_(elems, mem)], np.asarray(G.inverse)[elems][:, None]]
    mask = np.zeros(G.order, dtype=bool)
    mask[mem] = True
    return bool(mask[conj].all())


def abelian_quotient_table(G, A, S):
    """(invariants, reps, coordinates of each element of A) of A/S by the
    table route: cosets named by their least element, walked over the greedy
    generating set of A."""
    from dimfox.abelian import Presentation
    from dimfox.intlinalg import IntLattice

    members = np.array(sorted(A.members))
    proj = np.full(G.order, -1, dtype=np.int64)
    proj[members] = np.asarray(G.table)[np.ix_(members, sorted(S.members))].min(axis=1)
    gens, have = [], frozenset({G.identity})
    for a in sorted(A.members):
        if a not in have:
            gens.append(a)
            have = closure_two_sided(G, gens)
    start = int(proj[G.identity])
    vecs = {start: [0] * len(gens)}
    kernel = IntLattice(len(gens))
    frontier = [start]
    for c in frontier:
        for j, t in enumerate(gens):
            step = vecs[c][:]
            step[j] += 1
            nxt = int(proj[_mul(G, c, t)])
            if nxt in vecs:
                kernel.add([x - y for x, y in zip(step, vecs[nxt])])
            else:
                vecs[nxt] = step
                frontier.append(nxt)
    pres = Presentation(kernel.basis_rows(), len(gens))
    invariants = pres.group.invariants
    reps = []
    for j in range(len(invariants)):
        word = pres.lift([int(i == j) for i in range(len(invariants))])
        g = G.identity
        for t, k in zip(gens, word):
            g = _mul(G, g, G.power(t, k))
        reps.append(g)
    coords = {a: pres.push(vecs[int(proj[a])]) for a in A.members}
    return invariants, tuple(reps), coords


def _check_generator_route(G, subs):
    for A in subs:
        assert closure_two_sided(G, A.generators) == A.members
        assert A.is_normal() == is_normal_table(G, A.members)
    sections = 0
    for A in subs:
        for B in subs:
            com = commutator_subgroup(G, A, B)
            assert com.members == commutator_members_table(G, A, B), (A.generators, B.generators)
            assert closure_two_sided(G, com.generators) == com.members
            if B.members <= A.members and commutator_subgroup(G, A, A).members <= B.members:
                sec = abelian_quotient(G, A, B)
                invariants, reps, coords = abelian_quotient_table(G, A, B)
                assert (sec.invariants, sec.reps) == (invariants, reps)
                assert {a: sec.coords(a) for a in A.members} == coords
                sections += 1
    assert sections >= len(subs)  # every A/A at least


ROUTE_SPECS = [s for s in DEFAULT_GROUPS if build_group(s).order <= 8]
ROUTE_SPECS_SLOW = [s for s in DEFAULT_GROUPS if 8 < build_group(s).order <= 16]


@pytest.mark.parametrize("spec", ROUTE_SPECS)
def test_generator_route_matches_table_route_on_all_subgroups(spec):
    G = build_group(spec)
    _check_generator_route(G, all_subgroups(G))


@pytest.mark.parametrize("spec", ["class2:2,1", "dihedral:32"])
def test_generator_route_matches_table_route_on_cyclic_subgroups(spec):
    G = build_group(spec)
    _check_generator_route(G, cyclic_subgroups(G) + [whole_group(G)])


@pytest.mark.slow
@pytest.mark.parametrize("spec", ROUTE_SPECS_SLOW)
def test_generator_route_matches_table_route_on_all_subgroups_up_to_order_16(spec):
    G = build_group(spec)
    _check_generator_route(G, all_subgroups(G))


def test_table_generators_must_generate_the_group():
    """A table spec's generators are checked by closure: [2] in C4 generates
    only {0, 2}, and was accepted before, so that join(G, [whole_group(G)])
    had order 2.  With none given, a generating set is computed."""
    c4 = build_group("cyclic:4").table
    with pytest.raises(GroupError, match=r"generators \['g2'\] do not generate the group: they generate 2 of its 4"):
        build_group({"table": c4, "generators": [2]})
    with pytest.raises(GroupError, match="out of range"):
        build_group({"table": c4, "generators": [4]})
    assert build_group({"table": c4, "generators": [3]}).generators == (3,)
    G = build_group({"table": c4})
    assert G.generators == (1,)
    assert join(G, [whole_group(G)]).is_whole()
    for spec in SAMPLE_SPECS + ["dihedral:1", "cyclic:2 x dihedral:3"]:
        G = build_group(spec)
        assert closure_two_sided(G, G.generators) == frozenset(G.elements()), spec
    S4 = build_group({"perm_gens": [[[0, 1, 2, 3]], [[0, 1]]]})
    assert closure_two_sided(S4, S4.generators) == frozenset(S4.elements())


def test_subgroup_without_generators_gets_a_generating_set():
    D4 = build_group("dihedral:4")
    klein = frozenset({0, 2, 4, 6})
    from dimfox.groups import Subgroup

    S = Subgroup(D4, klein)
    assert S.generators == (2, 4) and closure_two_sided(D4, S.generators) == klein
    with pytest.raises(ClosureError, match="set is not closed"):
        Subgroup(D4, frozenset({0, 1}))


def test_non_normal_and_non_abelian_refusals_name_their_check():
    D4 = build_group("dihedral:4")
    flip = generated_subgroup(D4, [4])  # <f> is not normal in D4
    with pytest.raises(GroupError, match="p_torsion_mod: S is not normal in the ambient subgroup"):
        p_torsion_mod(D4, flip, 2)
    with pytest.raises(GroupError, match="quotient by a non-normal subgroup"):
        quotient_group(D4, flip)
    with pytest.raises(GroupError, match="quotient is not abelian"):
        abelian_quotient(D4, whole_group(D4), trivial_subgroup(D4))
    # normality is read against the ambient subgroup's generators, not G's
    klein = generated_subgroup(D4, [2, 4])
    assert p_torsion_mod(D4, flip, 2, within=klein) == klein


@pytest.mark.parametrize(
    "names, message",
    [(["1", 5], "element name 5 is not a string"), ("ab", "names must be a list of strings, not 'ab'")],
)
def test_table_names_must_be_strings(names, message, capsys):
    """A table spec with a name that is not a string is refused by name when
    the group is built, so the CLI exits 2 (bad input), not 1 (mismatch)."""
    spec = json.dumps({"table": [[0, 1], [1, 0]], "names": names})
    with pytest.raises(GroupError, match=re.escape(message)):
        build_group(spec)
    assert cli_main(["dim3", "--group", spec, "--K", "", "--ring", "Z/3"]) == 2
    assert message in capsys.readouterr().err
