"""Exact linear algebra inside group algebras R(G), R = Z or Z/m.

A span is an R-submodule of the free module R^|G| given by generator
rows, kept as an echelon lattice; its canonical form is computed on
demand and cached, so span equality is canonical-form equality and
membership is row reduction.  Dimension and Fox subgroups are computed
by brute force as {g : g - 1 lies in the relevant span}, with subgroup
closure of the slice, and the left-ideal property of the Fox module,
asserted rather than assumed.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from .groups import (
    ClosureError,
    CoeffRing,
    FiniteGroup,
    GroupError,
    NSeries,
    Subgroup,
    small_generators,
    subgroup_from_members,
    whole_group,
)
from .intlinalg import IntLattice
from .abelian import AbelianError, quotient_presentation

DEFAULT_BRUTE_CAP = 256


# -- ring element rows --------------------------------------------------------


def elem_minus_one(G: FiniteGroup, g: int) -> list[int]:
    row = [0] * G.order
    if g != G.identity:
        row[g] = 1
        row[G.identity] = -1
    return row


def row_multiply(G: FiniteGroup, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two group-algebra elements via table convolution, over Z;
    IntLattice.add reduces the result modulo the lattice's modulus."""
    out = [0] * G.order
    rows = G.mul_rows()
    bsup = [(j, cb) for j, cb in enumerate(b) if cb]
    for i, ca in enumerate(a):
        if ca:
            row = rows[i]
            for j, cb in bsup:
                out[row[j]] += ca * cb
    return out


def row_translate(G: FiniteGroup, g: int, v: Sequence[int]) -> list[int]:
    """g * v, the left translate of a coefficient row."""
    out = [0] * G.order
    row = G.mul_rows()[g]
    for j, c in enumerate(v):
        if c:
            out[row[j]] = c
    return out


def row_translate_right(G: FiniteGroup, v: Sequence[int], g: int) -> list[int]:
    """v * g, the right translate of a coefficient row."""
    out = [0] * G.order
    col = G.mul_cols()[g]
    for j, c in enumerate(v):
        if c:
            out[col[j]] = c
    return out


class ModuleSpan:
    """An R-submodule of R(G), kept as an echelon lattice whose canonical
    form is computed on demand and cached: the zero module, or the given
    lattice in Z^|G| (over Z/m, the preimage lattice with modulus m)."""

    def __init__(self, group: FiniteGroup, ring: CoeffRing, lattice: IntLattice | None = None):
        if not ring.is_concrete:
            raise GroupError(f"group-algebra spans need a concrete ring, not sigma {dict(ring.sigma)}")
        self.group = group
        self.ring = ring
        self.lattice = IntLattice(group.order, ring.modulus) if lattice is None else lattice

    def canonical(self):
        return self.lattice.canonical()

    def basis_rows(self):
        return self.lattice.basis_rows()

    def contains_row(self, row: Sequence[int]) -> bool:
        return self.lattice.contains(row)

    def is_zero(self) -> bool:
        return not self.canonical()

    def __eq__(self, other):
        return (
            isinstance(other, ModuleSpan)
            and self.group is other.group
            and self.ring == other.ring
            and self.canonical() == other.canonical()
        )

    def __hash__(self):
        return hash((id(self.group), self.ring, self.canonical()))


def _to_top_span(G: FiniteGroup, ring: CoeffRing, pairs: Iterable[tuple[int, int]]) -> ModuleSpan:
    """The span of the rows e_c - e_t for (c, t) in pairs, written in
    Hermite form by `IntLattice.from_differences`.

    Precondition, checked there: each c is below its t, appears once and is
    no pair's t.  Then each row leads in its own column c and meets no
    other row's pivot, so the rows are the basis over Z; over Z/m the
    seed row m*e_c becomes e_c + (m - 1)*e_t, whose entry m - 1 is already
    reduced against the seed pivot m*e_t of column t, as t is not a c.
    """
    return ModuleSpan(G, ring, IntLattice.from_differences(G.order, pairs, ring.modulus))


def augmentation_ideal(G: FiniteGroup, S: Subgroup, ring: CoeffRing) -> ModuleSpan:
    """R-span of {s - 1 : s in S} inside R(G), written in Hermite form.

    With top = max(S), the rows e_c - e_top (c in S, c != top) span the
    same module as the rows s - 1: both span the coefficient rows that are
    supported on S and sum to zero, since s - 1 = (e_s - e_top) -
    (e_1 - e_top) and e_c - e_top = (c - 1) - (top - 1).  Every c is below
    top, so `_to_top_span` writes them as the Hermite basis directly,
    where every row s - 1 leads in the identity's column and would need
    elimination.
    """
    if S.parent is not G:
        raise GroupError("subgroup of a different group")
    members = S.sorted_members()
    top = members[-1]
    return _to_top_span(G, ring, ((c, top) for c in members[:-1]))


def span_product(A: ModuleSpan, B: ModuleSpan) -> ModuleSpan:
    """Module product A*B: spans multiply row by row."""
    if A.group is not B.group or A.ring != B.ring:
        raise GroupError("span_product: group/ring mismatch")
    G = A.group
    out = ModuleSpan(G, A.ring)
    for ra in A.canonical():
        for rb in B.canonical():
            out.lattice.add(row_multiply(G, ra, rb))
    return out


def _add_generator_product(out: ModuleSpan, M: ModuleSpan, S: Subgroup, shifts: list[list[int]]) -> None:
    """Add to `out` the rows b*t - b (shifts = G.mul_cols()) or t*b - b
    (shifts = G.mul_rows()) for b in basis(M) and t in a small generating
    set of S."""
    if S.parent is not M.group:
        raise GroupError("subgroup of a different group")
    basis = M.canonical()
    for t in small_generators(M.group, S.members):
        perm = shifts[t]
        for b in basis:
            row = [-c for c in b]
            for j, c in enumerate(b):
                if c:
                    row[perm[j]] += c
            out.lattice.add(row)


def right_ideal_product(M: ModuleSpan, S: Subgroup) -> ModuleSpan:
    """M*I(S) for an R-submodule M of R(G) with M*s in M for every s in S.

    If M*s lies in M for every s in S, and T generates S, then
    M*I(S) = R-span{b(t - 1) : b in basis(M), t in T}.  Proof: by
    m(st - 1) = (ms)(t - 1) + m(s - 1) and induction on the length of s
    as a word in T; S is finite, so inverses are positive powers and
    words in T reach every s.  A product then costs rank(M)*|T| row
    translates instead of rank(M)*(|S| - 1) row products.
    """
    out = ModuleSpan(M.group, M.ring)
    _add_generator_product(out, M, S, M.group.mul_cols())
    return out


def left_ideal_product(S: Subgroup, M: ModuleSpan) -> ModuleSpan:
    """I(S)*M for an R-submodule M of R(G) with s*M in M for every s in S.

    The mirror of `right_ideal_product`: (st - 1)m = (s - 1)(tm) + (t - 1)m
    gives I(S)*M = R-span{(t - 1)b : b in basis(M), t in T} for any T
    generating S.
    """
    out = ModuleSpan(M.group, M.ring)
    _add_generator_product(out, M, S, M.group.mul_rows())
    return out


def translate_closure(span: ModuleSpan) -> ModuleSpan:
    """R(G)*span: the R-span of all left G-translates of the given span.

    Every row of the span is queued; the translates of a queued row by a
    small generating set of G are added, and a translate is queued in turn
    only when it grew the span.  Then every row of a spanning set of the
    result (the rows of the span and the rows that grew it) has its
    generator translates inside, so the result is closed under left
    translation by G.
    """
    G = span.group
    out = ModuleSpan(G, span.ring)
    queue = [list(row) for row in span.canonical()]
    for row in queue:
        out.lattice.add(row)
    gens = small_generators(G, G.elements())
    while queue:
        row = queue.pop()
        for t in gens:
            moved = row_translate(G, t, row)
            if out.lattice.add(moved):
                queue.append(moved)
    return out


def nseries_ideal_power(G: FiniteGroup, N: NSeries, n: int, ring: CoeffRing) -> ModuleSpan:
    """The filtration ideal of weight n induced by the series, as an R-module.

    J_n is the R-span of the products (a_1 - 1)...(a_r - 1) with a_i in
    N_{k_i} and sum k_i = n.  Products of larger weight lie in J_n too
    (lower the k_i, and shorten a product of more than n factors through
    (x - 1)(y - 1) = (xy - 1) - (x - 1) - (y - 1)), so J_n absorbs a
    factor g - 1 on either side and is a two-sided ideal.  Splitting off
    the last factor gives J_n = I(N_n) + sum_{j<n} J_{n-j}*I(N_j), and
    each J_{n-j}*I(N_j) is spanned by the `right_ideal_product` rows
    b(t - 1), b in basis(J_{n-j}) and t in a small generating set of N_j.
    So each J_k is one lattice: I(N_k) with those rows added for every
    j < k.  Validated against the no-shortcut generator set in the test
    suite.
    """
    if n < 1:
        raise GroupError("ideal weight must be >= 1")
    cols = G.mul_cols()
    J: dict[int, ModuleSpan] = {}
    for k in range(1, n + 1):
        J[k] = augmentation_ideal(G, N.term(k), ring)
        for j in range(1, k):
            _add_generator_product(J[k], J[k - j], N.term(j), cols)
    return J[n]


def group_slice(G: FiniteGroup, span: ModuleSpan) -> Subgroup:
    """{g : g - 1 in span}, with subgroup closure asserted."""
    return _slice_of(G, G.elements(), span)


def _slice_of(G: FiniteGroup, candidates: Iterable[int], span: ModuleSpan) -> Subgroup:
    """{g in candidates : g - 1 in span}, with subgroup closure asserted."""
    hits = [g for g in candidates if span.contains_row(elem_minus_one(G, g))]
    try:
        return subgroup_from_members(G, hits)
    except ClosureError as exc:
        raise ClosureError(f"group slice is not a subgroup: {exc}") from exc


def dim_modules(
    G: FiniteGroup, K: Subgroup, N: NSeries, n: int, ring: CoeffRing
) -> tuple[ModuleSpan, ModuleSpan]:
    """I(G) and I(K)I(G) + (weight-n filtration ideal), in that order.

    I(K)I(G) is a `left_ideal_product`, as I(G) is a left ideal, so its
    rows (t - 1)b go straight into the filtration ideal's lattice.
    """
    ig = augmentation_ideal(G, whole_group(G), ring)
    module = nseries_ideal_power(G, N, n, ring)
    _add_generator_product(module, ig, K, G.mul_rows())
    return ig, module


def _check_brute(G: FiniteGroup, max_order: int) -> None:
    if G.order > max_order:
        raise GroupError(f"brute force capped at order {max_order}")


def slice_ring(G: FiniteGroup, ring: CoeffRing, w: int) -> CoeffRing | None:
    """The ring a brute slice is computed over: Z/m becomes Z/d with
    d = gcd(m, |G|^w), or None when d = 1; characteristic 0 stays as is.

    The modules M sliced here lie between two lattices of Z^|G|, with
    |G|^w*L <= M <= L: L = I(G) and w = n - 1 for I(K)I(G) + J_n, and
    L = R(G)I(H) and w = max(n, 1) for the Fox modules of weight n.
    Proof of the lower bounds: |G|*I^k <= I^(k+1) for k >= 1, because
    I^k/I^(k+1) is an image of G_ab^(tensor k), which |G| kills; and
    |G|*R(G)I(H) <= I(G)I(H), because R(G)I(H)/I(G)I(H) is
    Z tensor_Z(H) I(H) = H_ab.  So |G|^(n-1)*I(G) <= I^n(G) <= J_n (as
    N_1 = G), and |G|^n*R(G)I(H) <= I^n(G)I(H) <= M, which gives
    w = max(n, 1) also for n = 0, where M = L.

    Over Z/m the preimage of the module is M + m*Z^|G|, since every
    construction is the image of the one over Z.  L is saturated (it is
    the kernel of Z(G) -> Z(G/H), with H = G for I(G)), so
    (M + m*Z^|G|) meet L = M + m*L, and m*L <= M + d*L <= M + m*L by
    d = a*m + b*|G|^w.  A slice element g has g - 1 in L: for L = I(G)
    always, and for L = R(G)I(H) because g - 1 in L + m*Z^|G| maps to
    e_gH - e_H in m*Z(G/H), so gH = H once m >= 2.  So the slice over
    Z/m is {g : g - 1 in M + d*L}, the slice over Z/d when d >= 2, and
    the slice of L itself (G, or H) when d = 1.
    """
    if not ring.modulus:
        return ring
    d = gcd(ring.modulus, G.order**w)
    return CoeffRing.mod(d) if d > 1 else None


def dim_subgroup_brute(
    G: FiniteGroup,
    K: Subgroup,
    N: NSeries,
    n: int,
    ring: CoeffRing,
    max_order: int = DEFAULT_BRUTE_CAP,
) -> Subgroup:
    """G cut along I(K)I(G) + (weight-n filtration ideal), over the
    `slice_ring` of weight n - 1."""
    _check_brute(G, max_order)
    if n < 1:
        raise GroupError("ideal weight must be >= 1")
    R = slice_ring(G, ring, n - 1)
    if R is None:
        return whole_group(G)
    return group_slice(G, dim_modules(G, K, N, n, R)[1])


def _check_fox(G: FiniteGroup, n: int, max_order: int) -> None:
    _check_brute(G, max_order)
    if not isinstance(n, int) or isinstance(n, bool) or n not in (0, 1, 2):
        raise GroupError(f"fox subgroup weight {n!r}: implemented for n in {{0, 1, 2}}")


def fox_module(
    G: FiniteGroup,
    H: Subgroup,
    K: Subgroup,
    n: int,
    ring: CoeffRing,
    max_order: int = DEFAULT_BRUTE_CAP,
) -> ModuleSpan:
    """R(G)I(K)I(H) + I^n(G)I(H), built inside L = R(G)I(H), of rank
    |G| - |G:H|.

    n = 0: the module is R(G)I(H), which contains R(G)I(K)I(H).  It is
    the span of the rows x(h - 1) = e_xh - e_x, which is the span of the
    rows supported on one left coset and summing to zero on it:
    e_y - e_t = -y(h - 1) for t = yh, and
    e_xh - e_x = (e_xh - e_t) - (e_x - e_t).  So the rows e_y - e_top(yH),
    for every y that is not the largest element top(yH) of its coset, are
    a basis (no translate closure is needed).  Each such y is below its
    top and no top is such a y, so `_to_top_span` writes them as the
    Hermite basis directly.

    n = 1, 2: I(G)I(H) is the `right_ideal_product` of I(G) by H, as
    I(G)h lies in I(G); and I^(k+1)(G)I(H) = I(G)*I^k(G)I(H) is the
    `left_ideal_product` by G of I^k(G)I(H), a left ideal.  I^2(G) is
    never built.  The R-span of the rows (k - 1)(h - 1) is I(K)I(H), and
    those rows are added to I^n(G)I(H)'s lattice, giving
    M = I(K)I(H) + I^n(G)I(H).  M is then asserted to be a left ideal: the
    left translate by every t in a small generating set of G of every
    product row that grew M must lie in M.  That is enough: I^n(G)I(H) is
    a left ideal, and M is spanned by I^n(G)I(H) and the rows that grew
    it (a row that did not grow M lies in the span of those before it), so
    tM lies in M for each t, and gM in M for every g, a product of the t
    (G is finite).  A left ideal containing I(K)I(H) contains
    R(G)I(K)I(H), so M is the prefixed module itself.  For n <= 2 the
    assertion holds by g(k - 1)(h - 1) = (k - 1)(h - 1) +
    (g - 1)(k - 1)(h - 1), the last term in I^2(G)I(H).
    """
    _check_fox(G, n, max_order)
    if H.parent is not G or K.parent is not G:
        raise GroupError("subgroup of a different group")
    rows = G.mul_rows()
    if n == 0:
        members = list(H.members)
        tops = (max(rows[y][h] for h in members) for y in G.elements())
        return _to_top_span(G, ring, ((y, t) for y, t in enumerate(tops) if y != t))
    whole = whole_group(G)
    module = right_ideal_product(augmentation_ideal(G, whole, ring), H)
    for _ in range(n - 1):
        module = left_ideal_product(whole, module)
    one = G.identity
    grew = []
    for k in K.sorted_members():
        for h in H.sorted_members():
            if k == one or h == one:
                continue
            row = [0] * G.order
            row[rows[k][h]] += 1
            row[k] -= 1
            row[h] -= 1
            row[one] += 1
            if module.lattice.add(row):
                grew.append(row)
    for t in small_generators(G, G.elements()):
        for row in grew:
            if not module.contains_row(row_translate(G, t, row)):
                raise GroupError(f"I(K)I(H) + I^{n}(G)I(H) is not a left ideal")
    return module


def fox_subgroup_brute(
    G: FiniteGroup,
    H: Subgroup,
    K: Subgroup,
    n: int,
    ring: CoeffRing,
    max_order: int = DEFAULT_BRUTE_CAP,
) -> Subgroup:
    """G cut along the `fox_module` of weight n, over the `slice_ring` of
    weight max(n, 1).

    Only the members of H are tested: the module lies in L = R(G)I(H),
    and over Z/d (d = 0 for Z) g - 1 in L + d*Z^|G| maps to e_gH - e_H,
    which lies in d*Z(G/H), so gH = H.
    """
    _check_fox(G, n, max_order)
    R = slice_ring(G, ring, max(n, 1))
    if R is None:
        return H
    return _slice_of(G, H.members, fox_module(G, H, K, n, R, max_order))


def module_quotient_presentation(sub: ModuleSpan, sup: ModuleSpan):
    """Presentation of sup/sub on sup's lattice basis, with a coord map
    (`abelian.quotient_presentation`).

    Returns (presentation, coords) where coords(row) are the canonical
    coordinates of an R(G)-row lying in sup.
    """
    if sub.group is not sup.group or sub.ring != sup.ring:
        raise GroupError("group/ring mismatch")
    try:
        return quotient_presentation(sup.lattice, sub.basis_rows())
    except AbelianError as exc:
        raise GroupError(f"sub is not contained in sup: {exc}") from exc
