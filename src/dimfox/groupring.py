"""Exact linear algebra inside group algebras R(G), R = Z or Z/m.

A span is an R-submodule of the free module R^|G| given by generator
rows, kept as an echelon lattice; its canonical form is computed on
demand and cached, so span equality is canonical-form equality and
membership is row reduction.  A row of R(G) is a {column: entry} map of
its nonzero entries, in and out: a product or translate of g - 1 has a
handful of nonzeros in a row |G| wide.  A span inside L = R(G)I(H) may
keep its lattice in the coordinates of L instead (`CosetFrame`).
Dimension and Fox subgroups are computed by brute force as
{g : g - 1 lies in the relevant span}, with subgroup closure of the
slice, the right-ideal property of the dim3 module, the left-ideal
property of the Fox module, and each Fox row lying in L asserted rather
than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Iterable

from .groups import (
    ClosureError,
    CoeffRing,
    FiniteGroup,
    GroupError,
    NSeries,
    Subgroup,
    join,
    lower_central_series,
    small_generators,
    subgroup_from_members,
    whole_group,
)
from .intlinalg import IntLattice
from .abelian import AbelianError, quotient_presentation


# -- ring element rows --------------------------------------------------------


def elem_minus_one(G: FiniteGroup, g: int) -> dict[int, int]:
    """g - 1 as a {column: entry} map, empty for g = 1."""
    return {g: 1, G.identity: -1} if g != G.identity else {}


def row_multiply(G: FiniteGroup, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Product of two group-algebra elements via table convolution, over Z,
    as a map of its nonzero entries; IntLattice.add reduces the result
    modulo the lattice's modulus."""
    out: dict[int, int] = {}
    rows = G.mul_rows()
    for i, ca in a.items():
        row = rows[i]
        for j, cb in b.items():
            k = row[j]
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def row_translate(G: FiniteGroup, g: int, v: dict[int, int]) -> dict[int, int]:
    """g * v, the left translate of a coefficient row."""
    row = G.mul_rows()[g]
    return {row[j]: c for j, c in v.items()}


def row_translate_right(G: FiniteGroup, v: dict[int, int], g: int) -> dict[int, int]:
    """v * g, the right translate of a coefficient row."""
    col = G.mul_cols()[g]
    return {col[j]: c for j, c in v.items()}


def _product_row(G: FiniteGroup, s: int, t: int) -> dict[int, int]:
    """(s - 1)(t - 1) = st - s - t + 1 as a {column: entry} map; st may be
    1, and s may be t."""
    row = {G.identity: 1}
    for y, c in ((G.mul_rows()[s][t], 1), (s, -1), (t, -1)):
        row[y] = row.get(y, 0) + c
    return row


@dataclass(frozen=True)
class CosetFrame:
    """Coordinates on L = R(G)I(H), the rows of R(G) that sum to zero on
    every left coset yH.

    With top(yH) the largest element of yH, every x in L equals
    sum_{y in cols} x_y (e_y - e_top(yH)), where cols are the y with
    y != top(yH): subtract x_y (e_y - e_top(yH)) for each such y and what
    is left still sums to zero on each coset but sits on the tops alone,
    one per coset, so it is zero.  The rows
    e_y - e_top(yH) are independent (each is the only one with an entry at
    its y), so they are a basis of L and the coordinates of x are its
    entries at cols: |G| - |G:H| of them.  L is saturated in Z^|G| (it is
    the kernel of Z(G) -> Z(G/H)), so a lattice with modulus d in these
    coordinates is M + d*L for the M its rows span.

    Rows of R(G) and of coordinates are {column: entry} maps, as
    everywhere in this module: a Fox row has at most 4 nonzeros and a
    generator-product row twice its basis row's.
    """

    tops: tuple[int, ...]  # tops[y] = top(yH)
    cols: tuple[int, ...]  # the y with y != top(yH), ascending
    # y -> its coordinate, the position of y in cols; derived from cols,
    # so it takes no part in comparison or hashing
    slot: dict[int, int] = field(compare=False, repr=False)

    @classmethod
    def of(cls, G: FiniteGroup, H: Subgroup) -> CosetFrame:
        rows = G.mul_rows()
        members = list(H.members)
        tops = [-1] * G.order
        for y in G.elements():
            if tops[y] < 0:
                coset = [rows[y][h] for h in members]
                top = max(coset)
                for c in coset:
                    tops[c] = top
        cols = tuple(y for y, t in enumerate(tops) if y != t)
        return cls(tuple(tops), cols, {y: i for i, y in enumerate(cols)})

    def holds(self, row: dict[int, int], m: int = 0) -> bool:
        """Whether the sums of row over the cosets vanish (modulo m when
        m > 0): row lies in L, or in L + m*Z^|G|."""
        sums: dict[int, int] = {}
        tops = self.tops
        for y, c in row.items():
            t = tops[y]
            sums[t] = sums.get(t, 0) + c
        return not any(s % m for s in sums.values()) if m else not any(sums.values())

    def project(self, row: dict[int, int]) -> dict[int, int]:
        """The entries of row at cols, in coordinates (no check)."""
        slot = self.slot
        return {slot[y]: c for y, c in row.items() if y in slot}

    def coords(self, row: dict[int, int]) -> dict[int, int]:
        """The coordinates of a row of L; a row outside L is refused."""
        if not self.holds(row):
            raise GroupError("a generated row is not in R(G)I(H)")
        return self.project(row)

    def lift(self, coords: dict[int, int]) -> dict[int, int]:
        """The row of R(G) with the given coordinates."""
        row: dict[int, int] = {}
        tops, cols = self.tops, self.cols
        for i, c in coords.items():
            y = cols[i]
            t = tops[y]
            row[y] = c
            row[t] = row.get(t, 0) - c
        return row


class ModuleSpan:
    """An R-submodule of R(G), kept as an echelon lattice whose canonical
    form is computed on demand and cached: the zero module, or the given
    lattice in Z^|G| (over Z/m, the preimage lattice with modulus m).
    The lattice normalizes on read, so no method here normalizes it.

    With a `frame` the module lies in L = R(G)I(H) and the lattice holds
    its coordinates (`CosetFrame`), so `canonical()` and `basis_rows()`
    are coordinate rows; `add_row`, `ring_maps` and `contains_row` speak
    rows of R(G) either way, {column: entry} maps only.
    """

    def __init__(
        self,
        group: FiniteGroup,
        ring: CoeffRing,
        lattice: IntLattice | None = None,
        frame: CosetFrame | None = None,
    ):
        if not ring.is_concrete:
            raise GroupError(f"group-algebra spans need a concrete ring, not sigma {dict(ring.sigma)}")
        self.group = group
        self.ring = ring
        self.frame = frame
        if lattice is None:
            lattice = IntLattice(group.order if frame is None else len(frame.cols), ring.modulus)
        self.lattice = lattice

    def canonical(self):
        return self.lattice.canonical()

    def basis_rows(self):
        return self.lattice.basis_rows()

    def add_row(self, row: dict[int, int]) -> bool:
        """Add a row of R(G), asserted to lie in L first in a frame; returns
        True if the span grew."""
        return self.lattice.add(row if self.frame is None else self.frame.coords(row))

    def ring_maps(self) -> list[dict[int, int]]:
        """The canonical basis as rows of R(G), {column: entry} maps."""
        rows = self.lattice.canonical_maps()
        return rows if self.frame is None else [self.frame.lift(r) for r in rows]

    def contains_row(self, row: dict[int, int]) -> bool:
        """Whether a row of R(G) lies in the module.  In a frame over Z/m:
        the preimage M + m*Z^|G| meets L in M + m*L (L is saturated), and a
        row whose coset sums are divisible by m differs from the row of L
        with the same entries at cols by a multiple of m at the tops."""
        frame = self.frame
        if frame is not None:
            if not frame.holds(row, self.ring.modulus):
                return False
            row = frame.project(row)
        return self.lattice.contains(row)

    def is_zero(self) -> bool:
        return not self.canonical()

    def __eq__(self, other):
        return (
            isinstance(other, ModuleSpan)
            and self.group is other.group
            and self.ring == other.ring
            and self.frame == other.frame
            and self.canonical() == other.canonical()
        )

    def __hash__(self):
        return hash((id(self.group), self.ring, self.frame, self.canonical()))


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
    brows = B.ring_maps()
    for ra in A.ring_maps():
        for rb in brows:
            out.lattice.add(row_multiply(G, ra, rb))
    return out


def _add_generator_product(out: ModuleSpan, M: ModuleSpan, S: Subgroup, shifts: list[list[int]]) -> None:
    """Add to `out` the rows b*t - b (shifts = G.mul_cols()) or t*b - b
    (shifts = G.mul_rows()) for b in basis(M), as rows of R(G), and t in
    S's own generators, less those the ones before it already generate
    (`small_generators`); for the whole group these are G.generators.

    The basis rows are taken from the last pivot up: the rows they give
    lead in late columns too, so the bottom of the echelon fills first and
    each later row lands above fewer rows, with less fill-in.  Building
    I^3(G) on the order-729 group of Example 2.4 took 0.06-0.07 s in this
    order and 0.17-0.27 s in pivot order (2-core x86-64 host)."""
    if S.parent is not M.group:
        raise GroupError("subgroup of a different group")
    basis = M.ring_maps()[::-1]
    for t in small_generators(M.group, S.generators):
        perm = shifts[t]
        for b in basis:
            row = {j: -c for j, c in b.items()}
            for j, c in b.items():
                k = perm[j]
                row[k] = row.get(k, 0) + c
            out.add_row(row)


def right_ideal_product(M: ModuleSpan, S: Subgroup, frame: CosetFrame | None = None) -> ModuleSpan:
    """M*I(S) for an R-submodule M of R(G) with M*s in M for every s in S,
    kept in the coordinates `frame` (those of R(G) when it is None).

    If M*s lies in M for every s in S, and T generates S, then
    M*I(S) = R-span{b(t - 1) : b in basis(M), t in T}.  Proof: by
    m(st - 1) = (ms)(t - 1) + m(s - 1) and induction on the length of s
    as a word in T; S is finite, so inverses are positive powers and
    words in T reach every s.  A product then costs rank(M)*|T| row
    translates instead of rank(M)*(|S| - 1) row products.
    """
    out = ModuleSpan(M.group, M.ring, frame=frame)
    _add_generator_product(out, M, S, M.group.mul_cols())
    return out


def left_ideal_product(S: Subgroup, M: ModuleSpan, frame: CosetFrame | None = None) -> ModuleSpan:
    """I(S)*M for an R-submodule M of R(G) with s*M in M for every s in S,
    kept in the coordinates `frame` (those of R(G) when it is None).

    The mirror of `right_ideal_product`: (st - 1)m = (s - 1)(tm) + (t - 1)m
    gives I(S)*M = R-span{(t - 1)b : b in basis(M), t in T} for any T
    generating S.
    """
    out = ModuleSpan(M.group, M.ring, frame=frame)
    _add_generator_product(out, M, S, M.group.mul_rows())
    return out


def translate_closure(span: ModuleSpan) -> ModuleSpan:
    """R(G)*span: the R-span of all left G-translates of the given span.

    Every row of the span is queued; the translates of a queued row by the
    generators of G (`small_generators`) are added, and a translate is
    queued in turn only when it grew the span.  Then every row of a
    spanning set of the result (the rows of the span and the rows that
    grew it) has its generator translates inside, so the result is closed
    under left translation by G.
    """
    G = span.group
    out = ModuleSpan(G, span.ring)
    queue = span.ring_maps()
    for row in queue:
        out.lattice.add(row)
    gens = small_generators(G, G.generators)
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
    b(t - 1), b in basis(J_{n-j}) and t in the generators of N_j.

    For n >= 3 the term j = n - 1, J_1*I(N_{n-1}) = I(G)I(N_{n-1}), is
    not needed (N_1 = G), by Lemma A: I(G)I(N_j) lies in
    I(N_j)I(G) + I(N_{j+1}).  Proof: for x in N_j and y in G put
    c = x^-1 yxy^-1, which lies in N_{j+1} as [N_j, G] <= N_{j+1}; then
        (y - 1)(x - 1) = (yxy^-1 - 1)(y - 1) + (c - 1) + (x - 1)(c - 1),
    with yxy^-1 in N_j (expand: yxy^-1 = xc).  So J_1*I(N_{n-1}) lies in
    I(N_{n-1})I(G) + I(N_n), inside the term j = 1 and I(N_n), and
    j = 1 is not j = n - 1 once n >= 3.  So each J_k is one lattice:
    I(N_k) with the rows of the terms j < k added, j <= k - 2 for k >= 3.
    Validated against the no-shortcut generator set in the test suite.
    """
    if n < 1:
        raise GroupError("ideal weight must be >= 1")
    cols = G.mul_cols()
    J: dict[int, ModuleSpan] = {}
    for k in range(1, n + 1):
        J[k] = augmentation_ideal(G, N.term(k), ring)
        for j in range(1, k - 1 if k >= 3 else k):
            _add_generator_product(J[k], J[k - j], N.term(j), cols)
    return J[n]


def group_slice(G: FiniteGroup, span: ModuleSpan) -> Subgroup:
    """{g : g - 1 in span}, with subgroup closure asserted.

    The span's lattice normalizes on read, so the |G| reductions run
    against reduced rows, which are sparser than the rows a build's last
    `NORMALIZE_EVERY` window leaves, and no dense canonical form is
    built.
    """
    return _slice_of(G, G.elements(), span)


def _slice_of(G: FiniteGroup, candidates: Iterable[int], span: ModuleSpan) -> Subgroup:
    """{g in candidates : g - 1 in span}, with subgroup closure asserted;
    1 - 1 = 0 lies in every span."""
    one = G.identity
    hits = [g for g in candidates if g == one or span.contains_row(elem_minus_one(G, g))]
    try:
        return subgroup_from_members(G, hits)
    except ClosureError as exc:
        raise ClosureError(f"group slice is not a subgroup: {exc}") from exc


def _cube_rows(G: FiniteGroup, d: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The Hermite rows of I^3(G) over Z/d (Z for d = 0), the frozen fact
    that `dim_modules` keeps on G, built as the weight-3 ideal of the lower
    central series (`nseries_ideal_power`).

    That ideal is I^3(G).  It holds every product of three factors g - 1,
    and each of its products (a_1 - 1)...(a_r - 1), a_i in G_(k_i), lies in
    I^3(G), as a - 1 lies in I^k(G) for a in G_k.  By induction on k: G_k
    is generated by the [x, y] with x in G_(k-1) and y in G, and
        [x, y] - 1 = ((x - 1)(y - 1) - (y - 1)(x - 1))x^-1 y^-1
    lies in I^k(G) once x - 1 lies in I^(k-1)(G); a product keeps this by
    ab - 1 = (a - 1) + (b - 1) + (a - 1)(b - 1), and in a finite group an
    inverse is a power.  The recursion starts its lattices from the
    Hermite bases of I(G_2) and I(G_3), which fewer product rows then grow
    than an empty lattice.
    """
    return nseries_ideal_power(G, lower_central_series(G), 3, CoeffRing(d)).lattice.hermite_rows()


def dim_modules(G: FiniteGroup, K: Subgroup, N: NSeries, ring: CoeffRing) -> ModuleSpan:
    """I(K)I(G) + J_3, with J_3 the weight-3 filtration ideal.

    By Lemma A (`nseries_ideal_power`), J_3 = I(N_3) + J_2*I(G), and
    J_2 = I(N_2) + I(G)I(G) as N_1 = G.  So
        I(K)I(G) + J_3 = I(N_3) + X*I(G),   X = I(KN_2) + I(G)I(G),
    since I(K) + I(N_2) + I(G)I(G) = X: it lies in X, and
    kn - 1 = (k - 1) + (n - 1) + (k - 1)(n - 1) gives the converse (KN_2
    is a subgroup, N_2 being normal).  Expanding,
    X*I(G) = I(KN_2)I(G) + I^3(G), and modulo I^3(G) the product
    (p - 1)(g - 1) is bilinear:
        (pq - 1)(g - 1) = (p - 1)(g - 1) + (q - 1)(g - 1)
                          + (p - 1)(q - 1)(g - 1),
        (p - 1)(gh - 1) = (p - 1)(g - 1) + (p - 1)(h - 1)
                          + (p - 1)(g - 1)(h - 1),
    each last term in I^3(G).  The group is finite, so every p and g is a
    word in the generators with no inverses, and induction on the word
    lengths gives
        I(K)I(G) + J_3 = I^3(G) + I(N_3)
                         + span{(s - 1)(t - 1) : s in T_KN2, t in T_G},
    T_KN2 and T_G the generators of KN_2 and of G (`small_generators`).
    The fold is special to weight 3: at weight 4 the term J_2*I(N_2)
    stays, and N = (C2, C2, 1) has J_4 = 2*I(G) but
    I(N_4) + J_3*I(G) = 4*I(G).

    I^3(G) depends on G and the ring alone, so its Hermite rows are a fact
    of G, keyed by the modulus (`_cube_rows`), and each case writes its
    lattice from them (`IntLattice.from_hermite_rows`) and adds the basis
    of I(N_3) and the |T_KN2||T_G| product rows.

    M is then asserted to be a right ideal, as I(K)I(G) + J_3 is: the right
    translate by every generator t of G of every row that grew M must lie
    in M.  That is enough: I^3(G) is a two-sided ideal, and M is spanned
    by I^3(G) and the rows that grew it (a row that did not grow M lies in
    the span of those before it), so Mt lies in M for each t, and Mg in M
    for every g, a product of the t (G is finite).
    """
    lattice = IntLattice.from_hermite_rows(G.order, G.fact(_cube_rows, ring.modulus), ring.modulus)
    module = ModuleSpan(G, ring, lattice)
    n3 = N.term(3).sorted_members()
    rows = [{c: 1, n3[-1]: -1} for c in n3[:-1]]  # I(N_3), as in `augmentation_ideal`
    tgens = small_generators(G, G.generators)
    kn2 = join(G, [K, N.term(2)])
    rows += [_product_row(G, s, t) for s in small_generators(G, kn2.generators) for t in tgens]
    grew = [row for row in rows if module.add_row(row)]
    for t in tgens:
        for row in grew:
            if not module.contains_row(row_translate_right(G, row, t)):
                raise GroupError("I(K)I(G) + J_3 is not a right ideal")
    return module


def slice_ring(G: FiniteGroup, ring: CoeffRing, w: int) -> CoeffRing | None:
    """The ring a brute slice is computed over: Z/m becomes Z/d with
    d = gcd(m, |G|^w), or None when d = 1; characteristic 0 stays as is.

    The modules M sliced here lie between two lattices of Z^|G|, with
    |G|^w*L <= M <= L: L = I(G) and w = 2 for I(K)I(G) + J_3, and
    L = R(G)I(H) and w = max(n, 1) for the Fox modules of weight n.
    Proof of the lower bounds: |G|*I^k <= I^(k+1) for k >= 1, because
    I^k/I^(k+1) is an image of G_ab^(tensor k), which |G| kills; and
    |G|*R(G)I(H) <= I(G)I(H), because R(G)I(H)/I(G)I(H) is
    Z tensor_Z(H) I(H) = H_ab.  So |G|^2*I(G) <= I^3(G) <= J_3 (as
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
    the slice of L itself (G, or H) when d = 1.  The Fox modules of weight
    1 and 2 are built in the coordinates of L (`CosetFrame`), where the
    lattice with modulus d is M + d*L itself.
    """
    if not ring.modulus:
        return ring
    d = gcd(ring.modulus, G.order**w)
    return CoeffRing.mod(d) if d > 1 else None


def dim_subgroup_brute(G: FiniteGroup, K: Subgroup, N: NSeries, ring: CoeffRing) -> Subgroup:
    """G cut along I(K)I(G) + J_3 (`dim_modules`), over the `slice_ring`
    of weight 2.

    There is no size cap here: the group order cap of `build_group` is the
    one size guard.  Under it, at orders 512-1024, one slice of a family
    group took 0.15-0.7 s on a 2-core x86-64 host."""
    R = slice_ring(G, ring, 2)
    if R is None:
        return whole_group(G)
    return group_slice(G, dim_modules(G, K, N, R))


def _check_fox(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n not in (0, 1, 2):
        raise GroupError(f"fox subgroup weight {n!r}: implemented for n in {{0, 1, 2}}")


def fox_module(G: FiniteGroup, H: Subgroup, K: Subgroup, n: int, ring: CoeffRing) -> ModuleSpan:
    """R(G)I(K)I(H) + I^n(G)I(H), a submodule of L = R(G)I(H), of rank
    |G| - |G:H|.

    n = 0: the module is R(G)I(H), which contains R(G)I(K)I(H).  It is
    the span of the rows x(h - 1) = e_xh - e_x, which is the span of the
    rows supported on one left coset and summing to zero on it:
    e_y - e_t = -y(h - 1) for t = yh, and
    e_xh - e_x = (e_xh - e_t) - (e_x - e_t).  So the rows e_y - e_top(yH),
    for every y that is not the largest element top(yH) of its coset, are
    a basis (no translate closure is needed).  Each such y is below its
    top and no top is such a y, so `_to_top_span` writes them as the
    Hermite basis directly, in the coordinates of R(G).

    n = 1, 2: the module is built in the coordinates of L (`CosetFrame`),
    |G| - |G:H| columns instead of |G|; every generated row of R(G) is
    asserted to lie in L before it is projected.  I(G)I(H) is the
    `right_ideal_product` of I(G) by H, as I(G)h lies in I(G); and
    I^2(G)I(H) = I(G)*I(G)I(H) is the `left_ideal_product` by G of
    I(G)I(H), a left ideal.  I^2(G) is never built.  For n = 1 that is
    the module: I(K)I(H) lies in I(G)I(H), and I(G)I(H) is a left ideal.

    For n = 2 the rows (s - 1)(t - 1) are added, for s in the generators
    of K and t in those of H (`small_generators`), giving M = I(K)I(H) +
    I^2(G)I(H).  They are enough, as (k - 1)(h - 1) is bilinear modulo
    I^2(G)I(H):
        (kk' - 1)(h - 1) = (k - 1)(h - 1) + (k' - 1)(h - 1)
                           + (k - 1)(k' - 1)(h - 1),
        (k - 1)(hh' - 1) = (k - 1)(h - 1) + (k - 1)(h' - 1)
                           + (k - 1)(h - 1)(h' - 1),
    and each last term lies in I(G)I(G)I(H) = I^2(G)I(H), as h - 1 lies
    in I(G).  K and H are finite, so every k and h is a word in the
    generators with no inverses, and induction on the word lengths puts
    every (k - 1)(h - 1) in M: |T_K||T_H| rows instead of
    (|K| - 1)(|H| - 1).  M is then asserted to be a left ideal: the left
    translate by every generator t of G of every product row that grew M
    must lie in M.  That is enough:
    I^2(G)I(H) is a left ideal, and M is spanned by I^2(G)I(H) and the
    rows that grew it (a row that did not grow M lies in the span of
    those before it), so tM lies in M for each t, and gM in M for every
    g, a product of the t (G is finite).  A left ideal containing
    I(K)I(H) contains R(G)I(K)I(H), so M is the prefixed module itself.
    The assertion holds by g(k - 1)(h - 1) = (k - 1)(h - 1) +
    (g - 1)(k - 1)(h - 1), the last term in I^2(G)I(H).
    """
    _check_fox(n)
    if H.parent is not G or K.parent is not G:
        raise GroupError("subgroup of a different group")
    frame = CosetFrame.of(G, H)
    if n == 0:
        return _to_top_span(G, ring, ((y, frame.tops[y]) for y in frame.cols))
    whole = whole_group(G)
    module = right_ideal_product(augmentation_ideal(G, whole, ring), H, frame)
    if n == 1:
        return module
    module = left_ideal_product(whole, module, frame)
    hgens = small_generators(G, H.generators)
    rows = (_product_row(G, k, h) for k in small_generators(G, K.generators) for h in hgens)
    grew = [row for row in rows if module.add_row(row)]
    for t in small_generators(G, G.generators):
        for row in grew:
            if not module.contains_row(row_translate(G, t, row)):
                raise GroupError("I(K)I(H) + I^2(G)I(H) is not a left ideal")
    return module


def fox_subgroup_brute(G: FiniteGroup, H: Subgroup, K: Subgroup, n: int, ring: CoeffRing) -> Subgroup:
    """G cut along the `fox_module` of weight n, over the `slice_ring` of
    weight max(n, 1).

    For n = 1, 2 only the members of H are tested: the module lies in
    L = R(G)I(H), as each of its rows is asserted to, and over Z/d (d = 0
    for Z) g - 1 in L + d*Z^|G| maps to e_gH - e_H, which lies in
    d*Z(G/H), so gH = H.  Each h - 1 is tested in the coordinates of L the
    module is built in, where the lattice over Z/d is M + d*L, the module
    `slice_ring` reads the slice from.  For n = 0 every g in G is tested,
    |G| reductions in place of |H|: the module is L itself, written down
    with no such assertion, and its formula is H, so a slice over H alone
    would only ask whether the module holds I(H), and a module that is too
    large would pass.  By the same coset argument a correct module gives
    the same slice either way.

    As for `dim_subgroup_brute`, the group order cap of `build_group` is
    the one size guard; only the weight is checked here, also when the
    slice ring leaves nothing to build.
    """
    _check_fox(n)
    R = slice_ring(G, ring, max(n, 1))
    if R is None:
        return H
    candidates = G.elements() if n == 0 else H.members
    return _slice_of(G, candidates, fox_module(G, H, K, n, R))


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
