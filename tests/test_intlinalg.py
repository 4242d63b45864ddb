"""Lattice engine against independent sympy normal-form oracles."""

import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, eye
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import smith_normal_decomp
from sympy import ZZ

from dimfox.intlinalg import (
    IntLattice,
    intersect_lattices,
    lattice_from_rows,
    left_kernel,
    preimage_lattice,
    smith_normal_form,
    xgcd,
)


def sympy_membership(rows, m=0):
    """Row-span membership through sympy's Smith decomposition, as a
    predicate on vectors; with m > 0, membership in rowspan + m*Z^n.

    With D = S * M * T (S, T unimodular), v lies in rowspan(M) iff v*T
    lies in rowspan(D), which is a divisibility check per column; m*Z^n*T
    is m*Z^n, so modulo m column j divides by gcd(d_j, m).
    """
    M = Matrix([list(r) for r in rows])
    dm = DomainMatrix.from_Matrix(M).convert_to(ZZ)
    D, S, T = smith_normal_decomp(dm)
    D, T = D.to_Matrix(), T.to_Matrix()
    divisors = [gcd(int(D[j, j]) if j < min(D.rows, D.cols) else 0, m) for j in range(M.cols)]

    def member(vec):
        w = Matrix([list(vec)]) * T
        return all(w[0, j] == 0 if d == 0 else w[0, j] % d == 0 for j, d in enumerate(divisors))

    return member


def sympy_member(rows, vec):
    """Row-span membership over Z (`sympy_membership`)."""
    return sympy_membership(rows)(vec)


small_entries = st.integers(min_value=-6, max_value=6)


@st.composite
def random_matrix(draw, max_rows=4, max_cols=5):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    return [
        [draw(small_entries) for _ in range(cols)] for _ in range(rows)
    ]


def test_xgcd_basic():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (0, 0), (-9, -6)]:
        g, s, t = xgcd(a, b)
        assert s * a + t * b == g >= 0


@settings(max_examples=150, deadline=None)
@given(random_matrix())
def test_membership_matches_sympy(rows):
    cols = len(rows[0])
    lat = lattice_from_rows(rows, cols)
    rng = random.Random(42)
    # every generator is a member, and so is every small combination
    for r in rows:
        assert lat.contains(r)
    for _ in range(5):
        coeffs = [rng.randint(-3, 3) for _ in rows]
        v = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(cols)]
        assert lat.contains(v)
    for _ in range(5):
        v = [rng.randint(-5, 5) for _ in range(cols)]
        assert lat.contains(v) == sympy_member(rows, v)


@settings(max_examples=100, deadline=None)
@given(random_matrix())
def test_canonical_is_unique_per_span(rows):
    cols = len(rows[0])
    lat1 = lattice_from_rows(rows, cols)
    shuffled = rows[::-1] + rows
    lat2 = lattice_from_rows(shuffled, cols)
    assert lat1.canonical() == lat2.canonical()
    # canonical rows regenerate the same lattice
    lat3 = lattice_from_rows(lat1.canonical(), cols)
    assert lat3.canonical() == lat1.canonical()


@settings(max_examples=100, deadline=None)
@given(random_matrix())
def test_smith_invariants_match_sympy(rows):
    cols = len(rows[0])
    diag, V, Vinv = smith_normal_form(rows, cols)
    expected = [int(d) for d in invariant_factors(Matrix(rows))]
    nonzero = [d for d in diag if d]
    assert nonzero == [d for d in expected if d]
    # V and Vinv really are mutually inverse
    n = cols
    prod = [
        [sum(V[i][k] * Vinv[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert prod == [[1 if i == j else 0 for j in range(n)] for i in range(n)]


@settings(max_examples=80, deadline=None)
@given(random_matrix())
def test_smith_transform_diagonalizes(rows):
    cols = len(rows[0])
    diag, V, Vinv = smith_normal_form(rows, cols)
    # the transported lattice {x.V : x in rowspan} equals the diagonal one
    lat = IntLattice(cols)
    for row in rows:
        lat.add([sum(row[i] * V[i][j] for i in range(cols)) for j in range(cols)])
    dlat = IntLattice(cols)
    for i, d in enumerate(diag):
        if d:
            v = [0] * cols
            v[i] = d
            dlat.add(v)
    assert lat.canonical() == dlat.canonical()


def sympy_canonical_mod(rows, ncols, m):
    """The Hermite form of rows plus m*I through sympy, read modulo m; for
    m = 0 the Hermite form of rows over Z.

    sympy's form of the column span of A^T, transposed, is lower
    triangular with each column reduced below its pivot (zero columns
    dropped); reversing the coordinates and then the rows turns it into
    the upper echelon form with each column reduced above its pivot that
    IntLattice keeps.
    """
    A = Matrix([list(r)[::-1] for r in rows] + ((m * eye(ncols)).tolist() if m else []))
    H = hermite_normal_form(A.T).T
    out = [tuple(int(x) % m if m else int(x) for x in H.row(i))[::-1] for i in range(H.rows)][::-1]
    return tuple(r for r in out if any(r))


@settings(max_examples=150, deadline=None)
@given(random_matrix(max_rows=5, max_cols=6), st.sampled_from([4, 6, 9, 12]))
def test_canonical_mod_m_matches_sympy_hermite(rows, m):
    cols = len(rows[0])
    assert lattice_from_rows(rows, cols, m).canonical() == sympy_canonical_mod(rows, cols, m)


@st.composite
def wide_sparse_rows(draw):
    """1-8 rows of 16-81 columns with 2-6 nonzero entries each, the shape
    of the lattices of R(G), and a modulus (0 for Z)."""
    ncols = draw(st.integers(16, 81))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        k = draw(st.integers(2, 6))
        cols = draw(st.lists(st.integers(0, ncols - 1), min_size=k, max_size=k, unique=True))
        row = [0] * ncols
        for c in cols:
            row[c] = draw(st.integers(-6, 6).filter(bool))
        rows.append(row)
    return rows, ncols, draw(st.sampled_from([0, 2, 3, 4, 6, 9]))


@settings(max_examples=25, deadline=None)
@given(wide_sparse_rows(), st.randoms(use_true_random=False))
def test_wide_sparse_rows_match_sympy(case, rng):
    """Over Z and Z/m, any insertion order of the rows, each given dense or
    as a {column: entry} map, reaches sympy's canonical form, keeps the
    Hermite invariants, and answers membership like sympy for sums of the
    rows, their sums plus a unit vector, and sparse random vectors."""
    rows, ncols, m = case
    expected = sympy_canonical_mod(rows, ncols, m)
    member = sympy_membership(rows, m)
    probes = []
    for _ in range(4):
        v = [sum(rng.randint(-2, 2) * r[j] for r in rows) for j in range(ncols)]
        probes.append(v)
        w = list(v)
        w[rng.randrange(ncols)] += 1
        probes.append(w)
        u = [0] * ncols
        for c in rng.sample(range(ncols), rng.randint(1, 6)):
            u[c] = rng.randint(-4, 4)
        probes.append(u)
    answers = [member(v) for v in probes]
    for _ in range(3):
        order = rng.sample(rows, len(rows))
        lat = IntLattice(ncols, m)
        for row in order:
            lat.add({j: x for j, x in enumerate(row) if x} if rng.random() < 0.5 else row)
        _assert_hermite_invariants(lat)
        assert lat.canonical() == expected
        _assert_hermite_invariants(lat)
        assert [lat.contains(v) for v in probes] == answers
        assert [lat.contains({j: x for j, x in enumerate(v) if x}) for v in probes] == answers


def test_howell_saturation_example():
    lat = lattice_from_rows([[2, 1]], 2, modulus=4)
    assert lat.canonical() == ((2, 1), (0, 2))


def test_zero_row_drop_mod():
    lat = lattice_from_rows([[2, 0], [0, 0]], 2, modulus=4)
    assert lat.canonical() == ((2, 0),)


def test_identity_already_canonical():
    lat = lattice_from_rows([[1, 0], [0, 1]], 2)
    assert lat.canonical() == ((1, 0), (0, 1))


def test_mod_membership_wraps():
    lat = lattice_from_rows([[3]], 1, modulus=6)
    assert lat.contains([3])
    assert lat.contains([9])
    assert not lat.contains([1])
    assert lat.contains([0])


def test_left_kernel_annihilates():
    rng = random.Random(7)
    for _ in range(30):
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(4)]
        ker = left_kernel(rows, 3)
        for comb in ker:
            out = [sum(c * r[j] for c, r in zip(comb, rows)) for j in range(3)]
            assert out == [0, 0, 0]
        # kernel rank matches the rank defect
        lat = lattice_from_rows(rows, 3)
        assert len(ker) == 4 - lat.rank()


def test_intersection_is_largest_common():
    a = lattice_from_rows([[2, 0], [0, 3]], 2)
    b = lattice_from_rows([[3, 0], [0, 2]], 2)
    inter = intersect_lattices(a, b)
    assert inter.contains([6, 0]) and inter.contains([0, 6])
    assert not inter.contains([2, 0]) and not inter.contains([3, 0])
    rng = random.Random(3)
    for _ in range(25):
        v = [rng.randint(-12, 12) for _ in range(2)]
        assert inter.contains(v) == (a.contains(v) and b.contains(v))


def test_preimage_lattice():
    target = lattice_from_rows([[4]], 1)
    matrix_rows = [[1], [2]]
    pre = preimage_lattice(matrix_rows, target)
    rng = random.Random(11)
    for _ in range(30):
        x = [rng.randint(-8, 8) for _ in range(2)]
        hits = (x[0] + 2 * x[1]) % 4 == 0
        assert pre.contains(x) == hits


def test_preimage_lattice_of_no_rows_is_zero_wide():
    """A map out of Z^0 has the zero lattice of width 0 as its preimage."""
    pre = preimage_lattice([], lattice_from_rows([[4, 0]], 2))
    assert pre.ncols == 0 and pre.canonical() == ()


def test_reduce_with_coeffs_reconstructs():
    rows = [[2, 1, 0], [0, 3, 1]]
    lat = lattice_from_rows(rows, 3)
    basis = lat.basis_rows()
    v = [4, 5, 1]
    residual, coeffs = lat.reduce_with_coeffs(v)
    recon = [
        sum(c * b[j] for c, b in zip(coeffs, basis)) + residual[j] for j in range(3)
    ]
    assert recon == v
    # over Z/m the coefficients are exact too, not only modulo m
    lat = lattice_from_rows([[1, 1]], 2, modulus=4)
    basis = lat.basis_rows()
    v = [3, 7]
    residual, coeffs = lat.reduce_with_coeffs(v)
    assert not any(residual)
    assert [sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(2)] == v


def _assert_hermite_invariants(lat):
    """Read on the dense view `rows`: strictly increasing positive pivots,
    zeros left of each pivot and below it, and over Z/m every entry in
    [0, m) apart from the pivots m of untouched seed rows.  Once normalized
    (no pending change), entries above each pivot also lie in [0, pivot)."""
    m, piv, rows = lat.modulus, lat.pivcols, lat.rows
    assert len(rows) == len(piv) and all(a < b for a, b in zip(piv, piv[1:]))
    for k, (c, row) in enumerate(zip(piv, rows)):
        assert len(row) == lat.ncols and not any(row[:c]) and row[c] > 0
        if not lat._changes:
            assert all(0 <= other[c] < row[c] for other in rows[:k])
        assert not any(other[c] for other in rows[k + 1 :])
        if m:
            assert all(0 <= x < m or (j == c and x == m) for j, x in enumerate(row))


def _difference_rows(ncols, pairs):
    """The rows e_c - e_t, one per pair, that from_differences writes as a basis."""
    return [[(j == c) - (j == t) for j in range(ncols)] for c, t in pairs]


def _random_differences(rng, ncols):
    """Pairs (c, t) meeting from_differences' precondition: each column is
    at random a pivot column c, a column t, or neither."""
    role = [rng.choice("ctn") for _ in range(ncols)]
    tops = [j for j in range(ncols) if role[j] == "t"]
    pairs = []
    for c in range(ncols):
        later = [t for t in tops if t > c]
        if role[c] == "c" and later:
            pairs.append((c, rng.choice(later)))
    rng.shuffle(pairs)
    return pairs


def test_from_differences_writes_the_hermite_basis_that_row_insertion_reaches():
    """On random pair sets (any order) over Z, Z/2, Z/3, Z/4 and Z/6, the
    direct basis keeps the lattice invariants, holds no stale row, pending
    change or cached canonical form, and equals the row-by-row build in
    pivots, basis and canonical form."""
    rng = random.Random(5)
    for _ in range(200):
        ncols = rng.randint(0, 9)
        pairs = _random_differences(rng, ncols)
        for m in (0, 2, 3, 4, 6):
            lat = IntLattice.from_differences(ncols, pairs, m)
            _assert_hermite_invariants(lat)
            assert (lat._changes, lat._canonical) == (0, None)
            oracle = lattice_from_rows(_difference_rows(ncols, pairs), ncols, m)
            assert lat.pivcols == oracle.pivcols, (ncols, pairs, m)
            assert lat.basis_rows() == oracle.basis_rows(), (ncols, pairs, m)
            assert lat.canonical() == oracle.canonical(), (ncols, pairs, m)


@pytest.mark.parametrize("m", [0, 4])
@pytest.mark.parametrize(
    "pairs, message",
    [
        ([(2, 2)], r"pair \(2, 2\) is not 0 <= c < t < 5"),
        ([(3, 1)], r"pair \(3, 1\) is not 0 <= c < t < 5"),
        ([(0, 2), (1, 3), (0, 4)], "column 0 is the c of two pairs"),
        ([(1, 2), (0, 1)], r"pair \(0, 1\) has t = 1, which is also a c"),
        ([(0, 5)], r"pair \(0, 5\) is not 0 <= c < t < 5"),
        ([(-1, 2)], r"pair \(-1, 2\) is not 0 <= c < t < 5"),
    ],
    ids=["c=t", "c>t", "repeated-c", "t-is-a-c", "t-out-of-range", "c-negative"],
)
def test_from_differences_refuses_a_broken_precondition(pairs, message, m):
    with pytest.raises(ValueError, match=message):
        IntLattice.from_differences(5, pairs, m)
