"""Exact linear algebra inside group algebras R(G), R = Z or Z/m.

A span is an R-submodule of the free module R^|G| given by generator
rows; its canonical lattice is computed eagerly, so span equality is
canonical-form equality and membership is row reduction.  Dimension and
Fox subgroups are computed by brute force as {g : g - 1 lies in the
relevant span}, with subgroup closure of the slice asserted rather than
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .groups import (
    ClosureError,
    FiniteGroup,
    GroupError,
    NSeries,
    Subgroup,
    small_generators,
    subgroup_from_members,
    whole_group,
)
from .intlinalg import IntLattice
from .abelian import Presentation

DEFAULT_BRUTE_CAP = 256


@dataclass(frozen=True)
class CoeffRing:
    """Coefficient ring descriptor.

    kind "integers" (modulus 0), "mod" (Z/m, modulus m >= 2), or
    "abstract": a (sigma, characteristic) descriptor that supports
    formula evaluation but no group-algebra computation.  sigma maps a
    prime p to the stabilization exponent e(p) of the chain p^n R.
    """

    kind: str
    modulus: int = 0
    sigma: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def integers() -> "CoeffRing":
        return CoeffRing("integers", 0)

    @staticmethod
    def mod(m: int) -> "CoeffRing":
        if m < 2:
            raise GroupError("modulus must be >= 2")
        return CoeffRing("mod", m)

    @staticmethod
    def abstract(sigma: dict[int, int], characteristic: int) -> "CoeffRing":
        return CoeffRing("abstract", characteristic, tuple(sorted(sigma.items())))

    @staticmethod
    def parse(text: str | int) -> "CoeffRing":
        """A ring from "Z", "Z/m" or a modulus m (0 for Z), as text or an int."""
        t = str(text).strip()
        if t in ("Z", "Z/0", "0"):
            return CoeffRing.integers()
        if t.startswith("Z/"):
            return CoeffRing.mod(int(t[2:]))
        if t.isdigit():
            m = int(t)
            return CoeffRing.integers() if m == 0 else CoeffRing.mod(m)
        raise GroupError(f"cannot parse ring {text!r}")

    @property
    def is_concrete(self) -> bool:
        return self.kind in ("integers", "mod")

    @property
    def characteristic(self) -> int:
        return self.modulus

    def sigma_exponent(self, p: int) -> int | None:
        """e(p) if p is in sigma(R), else None."""
        if self.kind == "integers":
            return None
        if self.kind == "mod":
            m, e = self.modulus, 0
            while m % p == 0:
                m //= p
                e += 1
            return e
        for q, e in self.sigma:
            if q == p:
                return e
        return None

    def __str__(self):
        if self.kind == "integers":
            return "Z"
        if self.kind == "mod":
            return f"Z/{self.modulus}"
        return f"abstract(char={self.modulus})"


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
    """An R-submodule of R(G) with an eagerly canonicalized lattice."""

    def __init__(self, group: FiniteGroup, ring: CoeffRing, rows: Sequence[Sequence[int]] = ()):
        if not ring.is_concrete:
            raise GroupError("group-algebra spans need a concrete ring")
        self.group = group
        self.ring = ring
        self.lattice = IntLattice(group.order, ring.modulus)
        for row in rows:
            self.lattice.add(row)

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


def zero_span(G: FiniteGroup, ring: CoeffRing) -> ModuleSpan:
    return ModuleSpan(G, ring)


def augmentation_ideal(G: FiniteGroup, S: Subgroup, ring: CoeffRing) -> ModuleSpan:
    """R-span of {s - 1 : s in S} inside R(G)."""
    if S.parent is not G:
        raise GroupError("subgroup of a different group")
    rows = [elem_minus_one(G, s) for s in S.sorted_members() if s != G.identity]
    return ModuleSpan(G, ring, rows)


def span_sum(parts: Sequence[ModuleSpan]) -> ModuleSpan:
    if not parts:
        raise GroupError("span_sum needs at least one span")
    first = parts[0]
    for p in parts[1:]:
        if p.group is not first.group or p.ring != first.ring:
            raise GroupError("span_sum: group/ring mismatch")
    out = ModuleSpan(first.group, first.ring)
    for p in parts:
        for row in p.canonical():
            out.lattice.add(list(row))
    return out


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


def _generator_product(M: ModuleSpan, S: Subgroup, shifts: list[list[int]]) -> ModuleSpan:
    """R-span of the rows b*t - b (shifts = G.mul_cols()) or t*b - b
    (shifts = G.mul_rows()) for b in basis(M) and t in a small generating
    set of S."""
    if S.parent is not M.group:
        raise GroupError("subgroup of a different group")
    out = ModuleSpan(M.group, M.ring)
    basis = M.canonical()
    for t in small_generators(M.group, S.members):
        perm = shifts[t]
        for b in basis:
            row = [-c for c in b]
            for j, c in enumerate(b):
                if c:
                    row[perm[j]] += c
            out.lattice.add(row)
    return out


def right_ideal_product(M: ModuleSpan, S: Subgroup) -> ModuleSpan:
    """M*I(S) for an R-submodule M of R(G) with M*s in M for every s in S.

    If M*s lies in M for every s in S, and T generates S, then
    M*I(S) = R-span{b(t - 1) : b in basis(M), t in T}.  Proof: by
    m(st - 1) = (ms)(t - 1) + m(s - 1) and induction on the length of s
    as a word in T; S is finite, so inverses are positive powers and
    words in T reach every s.  A product then costs rank(M)*|T| row
    translates instead of rank(M)*(|S| - 1) row products.
    """
    return _generator_product(M, S, M.group.mul_cols())


def left_ideal_product(S: Subgroup, M: ModuleSpan) -> ModuleSpan:
    """I(S)*M for an R-submodule M of R(G) with s*M in M for every s in S.

    The mirror of `right_ideal_product`: (st - 1)m = (s - 1)(tm) + (t - 1)m
    gives I(S)*M = R-span{(t - 1)b : b in basis(M), t in T} for any T
    generating S.
    """
    return _generator_product(M, S, M.group.mul_rows())


def translate_closure(span: ModuleSpan) -> ModuleSpan:
    """R(G)*span: the R-span of all left G-translates of the given span.

    Closes under left translates by a small generating set of G with a
    worklist.  A translate is queued for further translation only when it
    grew the span: the base rows and the rows that grew it span the
    result, and each of them has its generator translates inside, so the
    span is closed under left translation by G.
    """
    G = span.group
    gens = small_generators(G, G.elements())
    out = ModuleSpan(G, span.ring)
    queue = [list(row) for row in span.canonical()]
    for row in queue:
        out.lattice.add(row)
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
    each J_{n-j}*I(N_j) is a `right_ideal_product`.  Validated against
    the no-shortcut generator set in the test suite.
    """
    if n < 1:
        raise GroupError("ideal weight must be >= 1")
    J: dict[int, ModuleSpan] = {}
    for k in range(1, n + 1):
        parts = [augmentation_ideal(G, N.term(k), ring)]
        parts += [right_ideal_product(J[k - j], N.term(j)) for j in range(1, k)]
        J[k] = span_sum(parts)
    return J[n]


def membership(G: FiniteGroup, v: Sequence[int], span: ModuleSpan) -> bool:
    if span.group is not G:
        raise GroupError("membership: group mismatch")
    return span.contains_row(v)


def group_slice(G: FiniteGroup, span: ModuleSpan) -> Subgroup:
    """{g : g - 1 in span}, with subgroup closure asserted."""
    hits = [g for g in G.elements() if span.contains_row(elem_minus_one(G, g))]
    try:
        return subgroup_from_members(G, hits)
    except ClosureError as exc:
        raise ClosureError(f"group slice is not a subgroup: {exc}") from exc


def dim_modules(
    G: FiniteGroup, K: Subgroup, N: NSeries, n: int, ring: CoeffRing
) -> tuple[ModuleSpan, ModuleSpan]:
    """I(G) and I(K)I(G) + (weight-n filtration ideal), in that order.

    I(K)I(G) is a `left_ideal_product`: I(G) is a left ideal.
    """
    ig = augmentation_ideal(G, whole_group(G), ring)
    return ig, span_sum([left_ideal_product(K, ig), nseries_ideal_power(G, N, n, ring)])


def dim_subgroup_brute(
    G: FiniteGroup,
    K: Subgroup,
    N: NSeries,
    n: int,
    ring: CoeffRing,
    max_order: int = DEFAULT_BRUTE_CAP,
) -> Subgroup:
    """G cut along I(K)I(G) + (weight-n filtration ideal)."""
    if G.order > max_order:
        raise GroupError(f"brute force capped at order {max_order}")
    if not ring.is_concrete:
        raise GroupError("brute force needs a concrete ring")
    return group_slice(G, dim_modules(G, K, N, n, ring)[1])


def fox_modules(
    G: FiniteGroup,
    H: Subgroup,
    K: Subgroup,
    n: int,
    ring: CoeffRing,
    max_order: int = DEFAULT_BRUTE_CAP,
) -> tuple[ModuleSpan, ModuleSpan]:
    """R(G)I(K)I(H) + I^n(G)I(H) and I(K)I(H) + I^n(G)I(H), in that order.

    Both forms share I(H), I(K)I(H) and I^n(G)I(H), which are built once.
    For n = 0 both are R(G)I(H), which contains R(G)I(K)I(H).  I^n(G) and
    I^n(G)I(H) are `right_ideal_product`s, since I^(n-1)(G) is a two-sided
    ideal; I(K)I(H) stays a `span_product`, as neither factor is stable
    under the other subgroup.
    """
    if G.order > max_order:
        raise GroupError(f"brute force capped at order {max_order}")
    if not ring.is_concrete:
        raise GroupError("brute force needs a concrete ring")
    if n not in (0, 1, 2):
        raise GroupError("fox subgroup implemented for n in {0, 1, 2}")
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


def fox_subgroup_brute(
    G: FiniteGroup,
    H: Subgroup,
    K: Subgroup,
    n: int,
    ring: CoeffRing,
    max_order: int = DEFAULT_BRUTE_CAP,
) -> Subgroup:
    """G cut along R(G)I(K)I(H) + I^n(G)I(H); n = 0 uses R(G)I(H)."""
    return group_slice(G, fox_modules(G, H, K, n, ring, max_order)[0])


def quotient_invariants(sub: ModuleSpan, sup: ModuleSpan) -> tuple[int, ...]:
    """Invariant factors of sup/sub as an abelian group.

    Verifies containment first.  Factors >= 2 come first (ascending by
    divisibility), infinite cyclic factors are reported as trailing 0s.
    """
    return module_quotient_presentation(sub, sup)[0].group.invariants


def module_quotient_presentation(sub: ModuleSpan, sup: ModuleSpan):
    """Presentation of sup/sub on sup's lattice basis, with a coord map.

    Returns (presentation, coords) where coords(row) are the canonical
    coordinates of an R(G)-row lying in sup.
    """
    if sub.group is not sup.group or sub.ring != sup.ring:
        raise GroupError("group/ring mismatch")
    basis = sup.basis_rows()
    relations = []
    for row in sub.basis_rows():
        residual, coeffs = sup.lattice.reduce_with_coeffs(list(row))
        if any(residual):
            raise GroupError("sub is not contained in sup")
        relations.append(coeffs)
    pres = Presentation(relations, len(basis))

    def coords(row: Sequence[int]) -> tuple[int, ...]:
        residual, c = sup.lattice.reduce_with_coeffs(list(row))
        if any(residual):
            raise GroupError("row is not in the ambient span")
        return pres.push(c)

    return pres, coords
