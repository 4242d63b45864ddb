"""Finitely generated abelian groups and their functor calculus.

Groups live in invariant-factor coordinates (d_1 | d_2 | ... with 0 for
an infinite cyclic factor, free factors last).  Presentations keep both
Smith change-of-basis matrices so elements can be transported between
user generators and canonical coordinates; tensor, Tor, exterior and
symmetric squares are built as explicit presentations with evaluators.

The two checkers at the bottom compare, by exhaustive enumeration over
small groups, a kernel computed elementwise against its closed
description: one for the wedge/tensor kernel identity through the
torsion-product connecting map, one for the kernel of the quadratic map
a -> binom(m,2) * (a (x) a) on m-torsion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import gcd, prod
from typing import Callable, Iterable, Sequence

from .intlinalg import IntLattice, lattice_from_rows, preimage_lattice, smith_normal_form

DEFAULT_ENUM_CAP = 4096


class AbelianError(ValueError):
    pass


@dataclass(frozen=True)
class FgAb:
    """Z/d_1 + Z/d_2 + ... in invariant-factor form.

    invariants: each d >= 2 or d = 0 (infinite cyclic); nonzero factors
    ascend by divisibility and precede the zeros.  Elements are integer
    tuples reduced mod the factors.
    """

    invariants: tuple[int, ...]

    def __post_init__(self):
        prev = None
        seen_zero = False
        for d in self.invariants:
            if d == 1 or d < 0:
                raise AbelianError("invariant factors must be 0 or >= 2")
            if d == 0:
                seen_zero = True
                continue
            if seen_zero:
                raise AbelianError("free factors must come last")
            if prev is not None and d % prev:
                raise AbelianError("invariant factors must form a divisibility chain")
            prev = d

    @property
    def rank(self) -> int:
        return len(self.invariants)

    @property
    def is_finite(self) -> bool:
        return 0 not in self.invariants

    @property
    def size(self) -> int:
        if not self.is_finite:
            raise AbelianError("infinite group")
        out = 1
        for d in self.invariants:
            out *= d
        return out

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != len(self.invariants):
            raise AbelianError("coordinate length mismatch")
        return tuple([x % d if d else x for x, d in zip(vec, self.invariants)])

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def add(self, a, b):
        return self.reduce([x + y for x, y in zip(a, b)])

    def sub(self, a, b):
        return self.reduce([x - y for x, y in zip(a, b)])

    def smul(self, k: int, a):
        return self.reduce([k * x for x in a])

    def basis(self) -> list[tuple[int, ...]]:
        out = []
        for i in range(self.rank):
            v = [0] * self.rank
            v[i] = 1
            out.append(tuple(v))
        return out

    def order_of(self, a) -> int:
        """Additive order; 0 means infinite."""
        a = self.reduce(a)
        out = 1
        for x, d in zip(a, self.invariants):
            if d == 0:
                if x:
                    return 0
                continue
            out = out * (d // gcd(d, x)) // gcd(out, d // gcd(d, x))
        return out

    def elements(self, cap: int = DEFAULT_ENUM_CAP):
        if not self.is_finite:
            raise AbelianError("cannot enumerate an infinite group")
        if self.size > cap:
            raise AbelianError(f"enumeration over {self.size} elements exceeds cap {cap}")
        return iproduct(*[range(d) for d in self.invariants])

    def torsion_elements(self, m: int, cap: int = DEFAULT_ENUM_CAP):
        """All a with m*a = 0.  For m = 0 this is the whole (finite) group."""
        if m == 0:
            yield from self.elements(cap)
            return
        ranges = []
        for d in self.invariants:
            if d == 0:
                ranges.append([0])
                continue
            g = gcd(d, m)
            step = d // g
            ranges.append(range(0, d, step))
        total = 1
        for r in ranges:
            total *= len(r)
        if total > cap:
            raise AbelianError(f"torsion enumeration exceeds cap {cap}")
        yield from iproduct(*ranges)

    def span(self, gens: Iterable[tuple[int, ...]], cap: int = DEFAULT_ENUM_CAP) -> frozenset:
        """Subgroup generated by the given elements, as an element set."""
        gens = [self.reduce(g) for g in gens]
        found = {self.zero()}
        frontier = [self.zero()]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = self.add(cur, g)
                if nxt not in found:
                    if len(found) >= cap:
                        raise AbelianError("span enumeration exceeds cap")
                    found.add(nxt)
                    frontier.append(nxt)
        return frozenset(found)

    def __str__(self):
        if not self.invariants:
            return "0"
        return " + ".join("Z" if d == 0 else f"Z/{d}" for d in self.invariants)


ZERO_GROUP = FgAb(())


def Z(n: int = 0) -> FgAb:
    """Z/n (n = 0 gives the integers, n = 1 the zero group)."""
    if n == 1:
        return ZERO_GROUP
    return FgAb((n,))


class Presentation:
    """Z^rank modulo the row span of a relation matrix.

    Keeps the Smith column transforms so that push (generator
    coordinates to canonical) and lift (canonical to generator
    coordinates) are exact mutual sections.
    """

    def __init__(self, relations: Sequence[Sequence[int]], rank: int):
        self.rank = rank
        diag, V, Vinv = smith_normal_form(relations, rank)
        keep = [i for i in range(rank) if diag[i] != 1]
        nonzero = sorted([diag[i] for i in keep if diag[i] != 0])
        invariants = tuple(nonzero) + (0,) * sum(1 for i in keep if diag[i] == 0)
        order = sorted(keep, key=lambda i: (diag[i] == 0, diag[i]))
        self._keep = order
        self.group = FgAb(invariants)
        self._V = V
        self._Vinv = Vinv

    def push(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.rank:
            raise AbelianError("generator coordinate length mismatch")
        nonzero = [(x, self._V[i]) for i, x in enumerate(vec) if x]
        return self.group.reduce([sum(x * row[j] for x, row in nonzero) for j in self._keep])

    def lift(self, elem: Sequence[int]) -> list[int]:
        nonzero = [(c, self._Vinv[i]) for c, i in zip(elem, self._keep) if c]
        return [sum(c * row[j] for c, row in nonzero) for j in range(self.rank)]


def quotient_presentation(
    lattice: IntLattice, sub_rows: Iterable[Sequence[int] | dict[int, int]]
) -> tuple[Presentation, Callable[[Sequence[int] | dict[int, int]], tuple[int, ...]]]:
    """L/S presented on the normalized basis of the lattice L, with its
    coordinate map.

    The relations are the `reduce_with_coeffs` coefficients of the rows of
    S against that basis.  coords(v) reduces a vector v of L the same way,
    checks that nothing is left over and pushes the coefficients to the
    invariant-factor coordinates of L/S.  Rows and vectors are dense or
    {column: entry} maps, as the lattice takes them.  A row of S, or a
    vector given to coords, outside L raises AbelianError.
    """

    def coefficients(vec: Sequence[int] | dict[int, int]) -> list[int]:
        residual, coeffs = lattice.reduce_with_coeffs(vec)
        if any(residual):
            raise AbelianError("vector is not in the lattice")
        return coeffs

    pres = Presentation([coefficients(row) for row in sub_rows], lattice.rank())
    return pres, lambda vec: pres.push(coefficients(vec))


def diagonal_rows(divisors: Sequence[int]) -> list[list[int]]:
    """The relation rows d * e_i of + Z/divisors[i], one per nonzero d, in order."""
    rows = []
    for i, d in enumerate(divisors):
        if d:
            row = [0] * len(divisors)
            row[i] = d
            rows.append(row)
    return rows


class AbHom:
    """Homomorphism between FgAb groups, as images of the canonical basis."""

    def __init__(self, dom: FgAb, cod: FgAb, rows: Sequence[Sequence[int]]):
        if len(rows) != dom.rank:
            raise AbelianError("need one image row per domain basis vector")
        self.dom = dom
        self.cod = cod
        self.rows = [cod.reduce(r) for r in rows]
        for d, row in zip(dom.invariants, self.rows):
            if d and any(cod.smul(d, row)):
                raise AbelianError("map does not respect the relations")

    def __call__(self, elem: Sequence[int]) -> tuple[int, ...]:
        out = [0] * self.cod.rank
        for c, row in zip(elem, self.rows):
            if c:
                out = [x + c * y for x, y in zip(out, row)]
        return self.cod.reduce(out)

    def compose(self, inner: "AbHom") -> "AbHom":
        """self o inner."""
        if inner.cod is not self.dom and inner.cod != self.dom:
            raise AbelianError("composition mismatch")
        return AbHom(inner.dom, self.cod, [self(r) for r in inner.rows])

    def kernel_set(self, cap: int = DEFAULT_ENUM_CAP) -> frozenset:
        return frozenset(a for a in self.dom.elements(cap) if not any(self(a)))


# -- subgroups given by generators -------------------------------------------


class SubgroupData:
    """A subgroup B of an FgAb A, with its own invariant-factor structure."""

    def __init__(self, ambient: FgAb, gens: Sequence[Sequence[int]]):
        self.ambient = ambient
        ambient_rels = diagonal_rows(ambient.invariants)
        rows = [list(ambient.reduce(g)) for g in gens] + ambient_rels
        self._lattice = lattice_from_rows(rows, ambient.rank)
        self._basis = self._lattice.basis_rows()
        # coords(vec): the coordinates in the subgroup of an ambient vector lying in it
        self.presentation, self.coords = quotient_presentation(self._lattice, ambient_rels)
        self.group = self.presentation.group

    def contains(self, vec: Sequence[int]) -> bool:
        return self._lattice.contains(list(vec))

    def inclusion(self) -> AbHom:
        rows = []
        for b in self.group.basis():
            gen_coords = self.presentation.lift(b)
            vec = [0] * self.ambient.rank
            for c, row in zip(gen_coords, self._basis):
                if c:
                    vec = [x + c * y for x, y in zip(vec, row)]
            rows.append(self.ambient.reduce(vec))
        return AbHom(self.group, self.ambient, rows)


# -- binary functors ----------------------------------------------------------


class TensorProduct:
    """(A (x) B) / <extra_rows> with the universal bilinear evaluator.

    Generated by the e_i (x) e_j, at index i * rank(B) + j, with the
    relations gcd(d_i, e_j) * (e_i (x) e_j) followed by extra_rows.
    """

    def __init__(self, A: FgAb, B: FgAb, extra_rows: Sequence[Sequence[int]] = ()):
        self.A, self.B = A, B
        rels = diagonal_rows([gcd(a, b) for a in A.invariants for b in B.invariants])
        self.presentation = Presentation(rels + list(extra_rows), A.rank * B.rank)
        self.group = self.presentation.group

    def pair(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        b = self.B.reduce(b)
        return self.presentation.push([x * y for x in self.A.reduce(a) for y in b])

    def hom(self, f: AbHom, g: AbHom, target: "TensorProduct") -> AbHom:
        """f (x) g : a (x) b -> f(a) (x) g(b), into target = f.cod (x) g.cod / extra."""
        gen_images = [target.pair(fa, gb) for fa in f.rows for gb in g.rows]
        return hom_on_generators(self.presentation, gen_images, self.group, target.group)


def tensor(A: FgAb, B: FgAb) -> TensorProduct:
    return TensorProduct(A, B)


def hom_on_generators(pres: Presentation, gen_images: Sequence[Sequence[int]], dom: FgAb, cod: FgAb) -> AbHom:
    """Build dom -> cod from images of the presentation's generators
    (AbHom reduces the rows)."""
    rows = []
    for b in dom.basis():
        out = [0] * cod.rank
        for c, img in zip(pres.lift(b), gen_images):
            if c:
                out = [x + c * y for x, y in zip(out, img)]
        rows.append(out)
    return AbHom(dom, cod, rows)


class TorProduct:
    """Tor_1(A, B): pairs of torsion factors, with the triple evaluator.

    Generators are indexed by pairs (i, j) of finite factors of A and B;
    the pair (i, j) carries Z/gcd(d_i, e_j).  A class <a, k, b> with
    k*a = 0 and k*b = 0 evaluates to the coordinates
    c_ij = (k*a_i/d_i) * b_j / (e_j/g_ij)  mod g_ij.
    """

    def __init__(self, A: FgAb, B: FgAb):
        self.A, self.B = A, B
        self.pairs = [
            (i, j)
            for i in range(A.rank)
            if A.invariants[i]
            for j in range(B.rank)
            if B.invariants[j]
        ]
        divisors = [gcd(A.invariants[i], B.invariants[j]) for i, j in self.pairs]
        self.presentation = Presentation(diagonal_rows(divisors), len(divisors))
        self.group = self.presentation.group

    def triple(self, a: Sequence[int], k: int, b: Sequence[int]) -> tuple[int, ...]:
        a = self.A.reduce(a)
        b = self.B.reduce(b)
        if any(self.A.smul(k, a)) or any(self.B.smul(k, b)):
            raise AbelianError("invalid triple: k must kill both entries")
        vec = []
        for i, j in self.pairs:
            d = self.A.invariants[i]
            e = self.B.invariants[j]
            g = gcd(d, e)
            ka = k * a[i]
            if ka % d:
                raise AbelianError("triple evaluation failed divisibility")
            y = (ka // d * b[j]) % e
            step = e // g
            if y % step:
                raise AbelianError("triple evaluation failed divisibility")
            vec.append((y // step) % g)
        return self.presentation.push(vec)

    def generators(self):
        """Generating triples (a, k, b) with their index pair."""
        out = []
        for idx, (i, j) in enumerate(self.pairs):
            d = self.A.invariants[i]
            e = self.B.invariants[j]
            g = gcd(d, e)
            a = [0] * self.A.rank
            a[i] = 1
            b = [0] * self.B.rank
            b[j] = e // g
            out.append((idx, tuple(a), d, tuple(b)))
        return out


def tor1(A: FgAb, B: FgAb) -> TorProduct:
    return TorProduct(A, B)


def _swap_rows(r: int, sign: int) -> list[list[int]]:
    """The rows e_i (x) e_j + sign * e_j (x) e_i of A (x) A, for i < j < r."""
    rows = []
    for i in range(r):
        for j in range(i + 1, r):
            row = [0] * (r * r)
            row[i * r + j] = 1
            row[j * r + i] = sign
            rows.append(row)
    return rows


class ExteriorSquare(TensorProduct):
    """A ^ A = (A (x) A) / <a (x) a>, with the injective ell."""

    def __init__(self, A: FgAb):
        r = A.rank
        # e_i (x) e_i, then e_i (x) e_j + e_j (x) e_i
        diagonal = diagonal_rows([int(i == j) for i in range(r) for j in range(r)])
        super().__init__(A, A, diagonal + _swap_rows(r, 1))
        self.tensorAA = tensor(A, A)

    def ell(self) -> AbHom:
        """A ^ A -> A (x) A, a ^ b -> a (x) b - b (x) a."""
        r = self.A.rank
        gen_images = []
        for i in range(r):
            for j in range(r):
                ei = [0] * r
                ei[i] = 1
                ej = [0] * r
                ej[j] = 1
                fwd = self.tensorAA.pair(ei, ej)
                bwd = self.tensorAA.pair(ej, ei)
                gen_images.append(self.tensorAA.group.sub(fwd, bwd))
        return hom_on_generators(self.presentation, gen_images, self.group, self.tensorAA.group)


def exterior_square(A: FgAb) -> ExteriorSquare:
    return ExteriorSquare(A)


class SymmetricSquare(TensorProduct):
    """SP^2(A) = (A (x) A) / <a (x) b - b (x) a>."""

    def __init__(self, A: FgAb):
        super().__init__(A, A, _swap_rows(A.rank, -1))


def symmetric_square(A: FgAb) -> SymmetricSquare:
    return SymmetricSquare(A)


# -- the connecting map of 0 -> B -> A -> A/B -> 0, tensored with A/B ---------


class ConnectingTau:
    """tau : Tor_1(A/B, A/B) -> (A/B) (x) B for a subgroup B of A.

    On triples <a-bar, k, b-bar> the map sends the class to
    a-bar (x) (k*b), with k*b computed in A (it lands in B).
    """

    def __init__(self, A: FgAb, b_gens: Sequence[Sequence[int]]):
        self.A = A
        self.B = SubgroupData(A, b_gens)
        self.q_pres = Presentation([list(g) for g in b_gens] + diagonal_rows(A.invariants), A.rank)
        self.Q = self.q_pres.group
        self.tor = tor1(self.Q, self.Q)
        self.target = tensor(self.Q, self.B.group)
        self.hom = self._build_hom()

    def quotient_map(self) -> AbHom:
        rows = [self.q_pres.push(list(b)) for b in self.A.basis()]
        return AbHom(self.A, self.Q, rows)

    def tau_on_triple(self, abar, k: int, bbar) -> tuple[int, ...]:
        lift_b = self.q_pres.lift(self.Q.reduce(bbar))
        kb = [k * x for x in lift_b]
        b_coords = self.B.coords(self.A.reduce(kb))
        return self.target.pair(abar, b_coords)

    def _build_hom(self) -> AbHom:
        gen_images = []
        for idx, a, k, b in self.tor.generators():
            gen_images.append(self.tau_on_triple(a, k, b))
        return hom_on_generators(
            self.tor.presentation, gen_images, self.tor.group, self.target.group
        )


def connecting_tau(A: FgAb, b_gens: Sequence[Sequence[int]]) -> ConnectingTau:
    return ConnectingTau(A, b_gens)


# -- quadratic torsion map -----------------------------------------------------


class TorsionSquareMap:
    """a -> 1 (x) binom(m, 2) * (a (x) a) on the m-torsion of A.

    Applied pointwise; nothing about additivity is assumed, so the
    kernel is found by enumerating the m-torsion subgroup.
    """

    def __init__(self, A: FgAb, m: int):
        if m < 0:
            raise AbelianError("m must be >= 0")
        if m == 0 and not A.is_finite:
            raise AbelianError("m = 0 needs a finite group to enumerate")
        self.A = A
        self.m = m
        self.sp2 = symmetric_square(A)
        self.R = Z(m)
        self.target = tensor(self.R, self.sp2.group)

    def domain_elements(self):
        return self.A.torsion_elements(self.m)

    def __call__(self, a: Sequence[int]) -> tuple[int, ...]:
        c = self.m * (self.m - 1) // 2
        sq = self.sp2.group.smul(c, self.sp2.pair(a, a))
        one = self.R.reduce([1]) if self.R.rank else self.R.zero()
        return self.target.pair(one, sq)

    def kernel_set(self) -> frozenset:
        return frozenset(a for a in self.domain_elements() if not any(self(a)))


def tau3(A: FgAb, m: int) -> TorsionSquareMap:
    return TorsionSquareMap(A, m)


# -- checkers ------------------------------------------------------------------


@dataclass
class CheckReport:
    ok: bool
    detail: dict

    def __bool__(self):
        return self.ok


def relation_lattice(group: FgAb) -> IntLattice:
    return lattice_from_rows(diagonal_rows(group.invariants), group.rank)


def subgroup_lattice(group: FgAb, gens: Iterable[Sequence[int]]) -> IntLattice:
    """Preimage lattice in Z^rank of the subgroup the elements generate."""
    lat = relation_lattice(group)
    for g in gens:
        lat.add(list(group.reduce(g)))
    return lat


def hom_preimage_lattice(f: AbHom, target: IntLattice) -> IntLattice:
    """Preimage lattice of a subgroup lattice of the codomain; with
    target = relation_lattice(f.cod) it is the kernel of f.

    The target must contain the codomain's relation rows, which is
    checked.  Then `preimage_lattice`, {x : x.rows in target}, already
    holds the domain's relation rows d_i*e_i: their image d_i*f.rows[i]
    is zero in the codomain (`AbHom` checks this), so it lies in
    relation_lattice(f.cod), inside the target.
    """
    if not all(target.contains(row) for row in diagonal_rows(f.cod.invariants)):
        raise AbelianError("target lattice does not contain the codomain's relations")
    return preimage_lattice([list(r) for r in f.rows], target)


def check_wedge_kernel_identity(A: FgAb, b_gens: Sequence[Sequence[int]]) -> CheckReport:
    """Ker((q x id) . ell) against nu((q x id)^(-1) Im(tau)) inside A ^ A.

    Every map involved is additive, so both sides are computed as
    subgroup lattices of the exterior square and compared canonically;
    no element enumeration is needed even when tensor squares are huge.
    """
    if not A.is_finite:
        raise AbelianError("checker needs a finite group")
    ct = connecting_tau(A, b_gens)
    B = ct.B.group
    wedge = exterior_square(A)
    qmap = ct.quotient_map()
    id_A = AbHom(A, A, A.basis())
    q_tensor_id_AA = wedge.tensorAA.hom(qmap, id_A, tensor(ct.Q, A))
    composite = q_tensor_id_AA.compose(wedge.ell())
    lhs = hom_preimage_lattice(composite, relation_lattice(composite.cod))

    im_tau = subgroup_lattice(ct.target.group, ct.hom.rows)
    t_AB = tensor(A, B)
    q_tensor_id_AB = t_AB.hom(qmap, AbHom(B, B, B.basis()), ct.target)
    pre = hom_preimage_lattice(q_tensor_id_AB, im_tau)
    nu_AB = t_AB.hom(id_A, ct.B.inclusion(), wedge)  # a (x) b -> a ^ incl(b)
    rhs = relation_lattice(wedge.group)
    for row in pre.basis_rows():
        rhs.add(list(nu_AB(t_AB.group.reduce(row))))

    ok = lhs.canonical() == rhs.canonical()
    witnesses = []
    if not ok:
        for row in lhs.basis_rows():
            if not rhs.contains(row):
                witnesses.append(tuple(wedge.group.reduce(row)))
        for row in rhs.basis_rows():
            if not lhs.contains(row):
                witnesses.append(tuple(wedge.group.reduce(row)))
    return CheckReport(
        ok,
        {
            "lhs_rank": len(lhs.canonical()),
            "rhs_rank": len(rhs.canonical()),
            "witnesses": witnesses[:8],
            "wedge": str(wedge.group),
        },
    )


def check_torsion_square_kernel(A: FgAb, m: int) -> CheckReport:
    """Enumerated Ker(tau3) against its closed description.

    Odd m: the whole m-torsion.  Even m (including 0): the product of
    the doubles inside the m-torsion and the (m/2)-torsion.  Every
    enumeration is capped at DEFAULT_ENUM_CAP elements.
    """
    if not A.is_finite:
        raise AbelianError("checker needs a finite group")
    tmap = tau3(A, m)
    kernel = tmap.kernel_set()
    torsion = frozenset(A.torsion_elements(m))
    if m % 2 == 1:
        formula = torsion
    else:
        doubles = frozenset(A.smul(2, a) for a in A.elements())
        part1 = torsion & doubles
        part2 = frozenset(A.torsion_elements(m // 2)) if m else torsion
        formula = A.span(list(part1 | part2)) if (part1 or part2) else frozenset({A.zero()})
    ok = kernel == formula
    witnesses = sorted(kernel ^ formula)[:8]
    return CheckReport(
        ok,
        {
            "kernel_size": len(kernel),
            "formula_size": len(formula),
            "witnesses": witnesses,
        },
    )


def all_invariant_shapes(max_size: int) -> list[tuple[int, ...]]:
    """Every invariant-factor chain with group order 2..max_size."""
    shapes: list[tuple[int, ...]] = []

    def extend(chain: tuple[int, ...], size: int):
        last = chain[-1]
        k = last
        while size * k <= max_size:
            if k % last == 0:
                shapes.append(chain + (k,))
                extend(chain + (k,), size * k)
            k += 1

    for d in range(2, max_size + 1):
        shapes.append((d,))
        extend((d,), d)
    shapes.sort(key=lambda s: (prod(s), len(s), s))
    return shapes
