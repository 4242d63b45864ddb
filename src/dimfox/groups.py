"""Finite groups as validated Cayley tables, and subgroup-level primitives.

Elements are indices 0..order-1.  Built-in families (cyclic, dihedral,
quaternion, elementary abelian, two-generator class-2 p-groups, direct
products) are constructed from closed multiplication laws and skip the
cubic associativity check; ingested tables are checked in full.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import partial, reduce
from math import lcm, prod
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .abelian import Presentation
from .intlinalg import IntLattice

DEFAULT_ORDER_CAP = 1024


class GroupError(ValueError):
    """Invalid table, bad family parameters, or an exceeded order cap."""


class ClosureError(GroupError):
    """A set that was asserted to be a subgroup failed closure."""


class FiniteGroup:
    """A finite group given by its Cayley table.

    table[a, b] is the index of the product a*b.  The identity, the
    inverse table and element orders are derived.  Instances are
    immutable after construction and safe to share.
    """

    def __init__(
        self,
        table: np.ndarray,
        names: Sequence[str] | None = None,
        generators: Sequence[int] = (),
        spec: str = "",
        check: bool = True,
    ):
        table = np.asarray(table, dtype=np.int32)
        n = table.shape[0]
        if table.shape != (n, n):
            raise GroupError("table must be square")
        self.order = n
        self.table = table
        self.table.setflags(write=False)
        if check:
            self._validate_table()
        self.identity = self._find_identity()
        self.inverse = self._build_inverses()
        self._inv = self.inverse.tolist()
        if names is None:
            names = [f"g{i}" for i in range(n)]
        if len(names) != n or len(set(names)) != n:
            raise GroupError("names must be distinct and match the order")
        self.names = tuple(names)
        self.generators = tuple(int(g) for g in generators)
        self.spec = spec or f"table:{n}"
        self._name_index = {nm: i for i, nm in enumerate(self.names)}
        self._orders: list[int] | None = None
        self._exponent: int | None = None
        self._rows: list[list[int]] | None = None
        self._cols: list[list[int]] | None = None
        self._powers: list[list[int]] | None = None
        self._comm: np.ndarray | None = None

    def mul_rows(self) -> list[list[int]]:
        """Table rows as plain int lists (fast path for inner loops)."""
        if self._rows is None:
            self._rows = self.table.tolist()
        return self._rows

    def mul_cols(self) -> list[list[int]]:
        if self._cols is None:
            self._cols = self.table.T.tolist()
        return self._cols

    def power_rows(self) -> list[list[int]]:
        """power_rows()[k][g] = g^k for k in [0, exponent), as plain int lists."""
        if self._powers is None:
            rows = self.mul_rows()
            powers = [[self.identity] * self.order]
            for _ in range(1, self.exponent()):
                powers.append([rows[x][g] for g, x in enumerate(powers[-1])])
            self._powers = powers
        return self._powers

    def comm_table(self) -> np.ndarray:
        """comm_table()[a, b] = [a, b] = a b a^-1 b^-1, built once and read-only."""
        if self._comm is None:
            t, inv = self.table, self.inverse
            self._comm = t[t, t[inv][:, inv]]
            self._comm.setflags(write=False)
        return self._comm

    # -- construction checks ------------------------------------------------

    def _validate_table(self) -> None:
        n = self.order
        t = self.table
        if t.min() < 0 or t.max() >= n:
            raise GroupError("table entries out of range")
        idx = np.arange(n)
        for a in range(n):
            if not (np.sort(t[a]) == idx).all() or not (np.sort(t[:, a]) == idx).all():
                raise GroupError("table is not a Latin square")
        for a in range(n):
            # (a*b)*c == a*(b*c) for all b, c at once
            if not (t[t[a], :] == t[a][t]).all():
                raise GroupError("table is not associative")

    def _find_identity(self) -> int:
        n = self.order
        idx = np.arange(n)
        for e in range(n):
            if (self.table[e] == idx).all() and (self.table[:, e] == idx).all():
                return e
        raise GroupError("table has no identity element")

    def _build_inverses(self) -> np.ndarray:
        idx = np.arange(self.order)
        rows, inv = np.nonzero(self.table == self.identity)
        # exactly one right inverse per row (rows come out in order), and it is a left inverse
        if not np.array_equal(rows, idx) or (self.table[inv, idx] != self.identity).any():
            raise GroupError("element without a two-sided inverse")
        inv = inv.astype(np.int32)
        inv.setflags(write=False)
        return inv

    # -- element arithmetic --------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.mul_rows()[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self._inv[a], -k
        rows = self.mul_rows()
        result = self.identity
        while k:
            if k & 1:
                result = rows[result][a]
            a = rows[a][a]
            k >>= 1
        return result

    def conj(self, g: int, a: int) -> int:
        """g * a * g^-1."""
        rows = self.mul_rows()
        return rows[rows[g][a]][self._inv[g]]

    def comm(self, a: int, b: int) -> int:
        """[a, b] = a b a^-1 b^-1."""
        rows, inv = self.mul_rows(), self._inv
        return rows[rows[a][b]][rows[inv[a]][inv[b]]]

    def order_of(self, a: int) -> int:
        if self._orders is None:
            idx = np.arange(self.order)
            orders = np.zeros(self.order, dtype=np.int64)
            x, k = idx, 1  # x[g] = g^k
            while True:
                orders[(x == self.identity) & (orders == 0)] = k
                if orders.all():
                    break
                x, k = self.table[x, idx], k + 1
            self._orders = orders.tolist()
        return self._orders[a]

    def exponent(self) -> int:
        if self._exponent is None:
            self._exponent = reduce(lcm, (self.order_of(g) for g in range(self.order)), 1)
        return self._exponent

    def is_abelian(self) -> bool:
        return bool((self.table == self.table.T).all())

    def elements(self) -> range:
        return range(self.order)

    def name(self, a: int) -> str:
        return self.names[a]

    def summary(self) -> dict:
        """Spec, order, exponent, generators, lower central sizes and (up
        to 64) element names, as `dimfox group show` prints them."""
        return {
            "spec": self.spec,
            "order": self.order,
            "abelian": self.is_abelian(),
            "exponent": self.exponent(),
            "generators": [self.names[g] for g in self.generators],
            "lower_central_sizes": [len(t) for t in lower_central_series(self).chain],
            "elements": list(self.names) if self.order <= 64 else list(self.names[:64]) + ["..."],
        }

    def index_of(self, token: str) -> int:
        if token in self._name_index:
            return self._name_index[token]
        try:
            i = int(token)
        except ValueError:
            raise GroupError(f"unknown element {token!r}") from None
        if not 0 <= i < self.order:
            raise GroupError(f"element index {i} out of range")
        return i

    def __repr__(self):
        return f"FiniteGroup({self.spec}, order={self.order})"


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    members: frozenset[int]
    generators: tuple[int, ...] = ()

    def __post_init__(self):
        if self.parent.identity not in self.members:
            raise ClosureError("subgroup must contain the identity")

    def __contains__(self, g: int) -> bool:
        return g in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.members == other.members
        )

    def __hash__(self):
        return hash((id(self.parent), self.members))

    def sorted_members(self) -> list[int]:
        return sorted(self.members)

    def member_names(self) -> list[str]:
        return sorted(self.parent.names[g] for g in self.members)

    def is_whole(self) -> bool:
        return len(self.members) == self.parent.order

    def is_trivial(self) -> bool:
        return len(self.members) == 1

    def is_normal(self) -> bool:
        G = self.parent
        return bool(_mask(G, self.members)[_conjugates(G, G.elements(), self.members)].all())

    def contains_subgroup(self, other: "Subgroup") -> bool:
        return other.members <= self.members


def _index_array(elements: Iterable[int]) -> np.ndarray:
    return np.fromiter(elements, dtype=np.intp)


def _mask(G: FiniteGroup, *parts) -> np.ndarray:
    """Boolean membership mask of the union of the parts (index arrays or iterables)."""
    mask = np.zeros(G.order, dtype=bool)
    for part in parts:
        mask[part if isinstance(part, np.ndarray) else _index_array(part)] = True
    return mask


def _distinct(G: FiniteGroup, parts) -> list[int]:
    """The distinct elements of the parts in index order; a mask, not np.unique, which
    costs more peak memory on its first call than the rest of a small run."""
    return np.flatnonzero(_mask(G, *parts)).tolist()


def _conjugates(G: FiniteGroup, A: Iterable[int], B: Iterable[int]) -> np.ndarray:
    """[[a b a^-1 for b in B] for a in A] as one fancy index over the table."""
    A, B = _index_array(A), _index_array(B)
    return G.table[G.table[np.ix_(A, B)], G.inverse[A][:, None]]


def _closure(G: FiniteGroup, seeds: Iterable[int]) -> frozenset[int]:
    # Closing under right multiplication by the seeds is enough: in a finite group
    # s^-1 = s^(ord(s) - 1), so the monoid the seeds generate is the subgroup.
    rows = G.mul_rows()
    seeds = list(seeds)
    members = {G.identity}
    frontier = [G.identity]
    for g in frontier:  # the list grows while it is walked
        row = rows[g]
        for s in seeds:
            h = row[s]
            if h not in members:
                members.add(h)
                frontier.append(h)
    return frozenset(members)


def generated_subgroup(G: FiniteGroup, seeds: Iterable[int]) -> Subgroup:
    """Smallest subgroup of G containing the given elements."""
    seeds = sorted(set(int(s) for s in seeds))
    members = _closure(G, seeds)
    return Subgroup(G, members, tuple(seeds))


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, frozenset({G.identity}), ())


def whole_group(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, frozenset(G.elements()), tuple(G.generators))


def subgroup_from_members(G: FiniteGroup, members: Iterable[int]) -> Subgroup:
    """Wrap an already-closed member set, recording a small generator set."""
    members = frozenset(int(m) for m in members)
    mem = _index_array(members)
    escapes = ~_mask(G, mem)[G.table[np.ix_(mem, mem)]]
    if escapes.any():
        i, j = np.argwhere(escapes)[0]
        raise ClosureError(f"set is not closed: {G.name(mem[i])} * {G.name(mem[j])} escapes")
    return Subgroup(G, members, small_generators(G, members))


def small_generators(G: FiniteGroup, members: Iterable[int]) -> tuple[int, ...]:
    """Greedy generating set of a subgroup, scanning members in index order.

    Each element taken at least doubles the span, so there are at most
    log2 |members| of them.
    """
    gens: list[int] = []
    have = frozenset({G.identity})
    for m in sorted(members):
        if m not in have:
            gens.append(m)
            have = _closure(G, gens)
    return tuple(gens)


def join(G: FiniteGroup, parts: Sequence[Subgroup]) -> Subgroup:
    """Subgroup generated by the union of the parts."""
    seeds: set[int] = set()
    for p in parts:
        if p.parent is not G:
            raise GroupError("join across different groups")
        seeds.update(p.generators if p.generators else p.members)
    return generated_subgroup(G, seeds)


def commutator_seeds(
    G: FiniteGroup, pairs: Iterable[tuple[Iterable[int], Iterable[int]]]
) -> list[int]:
    """The distinct [a, b] for a in A, b in B over the (A, B) pairs, in index
    order, read from slices of the commutator table."""
    C = G.comm_table()
    return _distinct(G, [C[np.ix_(_index_array(A), _index_array(B))] for A, B in pairs])


def commutator_subgroup(G: FiniteGroup, A: Subgroup, B: Subgroup) -> Subgroup:
    return generated_subgroup(G, commutator_seeds(G, [(A.members, B.members)]))


def power_subgroup(G: FiniteGroup, A: Subgroup, m: int) -> Subgroup:
    """sgp{a^m : a in A};  m = 0 gives the trivial subgroup."""
    if m < 0:
        raise GroupError("power exponent must be >= 0")
    if m == 0:
        return trivial_subgroup(G)
    seeds = {G.power(a, m) for a in A.members}
    return generated_subgroup(G, seeds)


def centre(G: FiniteGroup) -> Subgroup:
    return subgroup_from_members(G, np.flatnonzero((G.table == G.table.T).all(axis=1)))


def normal_closure(G: FiniteGroup, seeds: Iterable[int]) -> Subgroup:
    return generated_subgroup(G, _distinct(G, [_conjugates(G, G.elements(), seeds)]))


def subgroup_exponent(A: Subgroup) -> int:
    G = A.parent
    return reduce(lcm, (G.order_of(a) for a in A.members), 1)


@dataclass(frozen=True)
class NSeries:
    """Descending chain N_1 = G, N_2, ... with [N_i, N_j] <= N_{i+j}.

    The chain is stored finitely; terms past the end repeat the last one
    (the stored tail must be the stable tail for that to be sound, which
    `validate_nseries` checks).
    """

    chain: tuple[Subgroup, ...]

    def term(self, i: int) -> Subgroup:
        if i < 1:
            raise GroupError("series terms are 1-based")
        return self.chain[min(i, len(self.chain)) - 1]

    def __len__(self):
        return len(self.chain)


class NSeriesError(GroupError):
    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.pair = pair


def validate_nseries(G: FiniteGroup, chain: Sequence[Subgroup]) -> NSeries:
    if not chain:
        raise NSeriesError("empty chain")
    if not chain[0].is_whole():
        raise NSeriesError("chain must start at the whole group")
    L = len(chain)
    for i in range(L - 1):
        if not chain[i].contains_subgroup(chain[i + 1]):
            raise NSeriesError(f"chain is not descending at index {i + 1}", (i + 1, i + 2))
    for i in range(1, L + 1):
        for j in range(i, L + 1):
            target = chain[min(i + j, L) - 1]
            com = commutator_subgroup(G, chain[i - 1], chain[j - 1])
            if not target.contains_subgroup(com):
                raise NSeriesError(
                    f"[N_{i}, N_{j}] is not contained in N_{i + j}", (i, j)
                )
    return NSeries(tuple(chain))


def lower_central_series(G: FiniteGroup) -> NSeries:
    chain = [whole_group(G)]
    while True:
        nxt = commutator_subgroup(G, chain[-1], chain[0])
        if nxt == chain[-1]:
            break
        chain.append(nxt)
    return NSeries(tuple(chain))


def nseries_from_level2(G: FiniteGroup, M: Subgroup) -> NSeries:
    """Fastest-descending valid series with N_2 = M*[G,G]."""
    g2 = commutator_subgroup(G, whole_group(G), whole_group(G))
    chain = [whole_group(G), join(G, [M, g2])]
    while True:
        k = len(chain) + 1
        parts = [
            commutator_subgroup(G, chain[i - 1], chain[k - i - 1])
            for i in range(1, k)
        ]
        nxt = join(G, parts)
        if nxt == chain[-1]:
            break
        chain.append(nxt)
    return validate_nseries(G, chain)


def p_torsion_mod(
    G: FiniteGroup, S: Subgroup, p: int, within: Subgroup | None = None
) -> Subgroup:
    """{g : g^(p^k) in S for some k >= 0}, asserted to be a subgroup.

    Sound whenever the ambient-mod-S quotient is nilpotent (always true
    in this workbench's call sites: S contains a term under which the
    quotient is abelian-by-central).  A closure failure is surfaced,
    never repaired.
    """
    ambient = within if within is not None else whole_group(G)
    if not S.members <= ambient.members:
        raise GroupError("p_torsion_mod: S must lie in the ambient subgroup")
    if not _mask(G, S.members)[_conjugates(G, ambient.members, S.members)].all():
        raise GroupError("p_torsion_mod: S is not normal in the ambient subgroup")
    kmax = 1
    q = p
    while q < G.order:
        q *= p
        kmax += 1
    hits = set()
    for g in ambient.members:
        x = g
        for _ in range(kmax + 1):
            if x in S.members:
                hits.add(g)
                break
            x = G.power(x, p)
    try:
        return subgroup_from_members(G, hits)
    except ClosureError as exc:
        raise ClosureError(f"p-torsion set mod S is not a subgroup: {exc}") from exc


# -- quotients and abelian structure ----------------------------------------


def quotient_group(
    G: FiniteGroup, S: Subgroup
) -> tuple[FiniteGroup, np.ndarray, list[int]]:
    """G/S for normal S: the quotient table, projection and a section.

    Returns (Q, proj, section) with proj[g] the coset index of g and
    section[c] the minimal representative of coset c.
    """
    if not S.is_normal():
        raise GroupError("quotient by a non-normal subgroup")
    n = G.order
    rep = G.table[:, _index_array(S.members)].min(axis=1)  # least element of the coset gS
    reps = np.flatnonzero(_mask(G, rep))
    cid = np.full(n, -1, dtype=np.int64)
    cid[reps] = np.arange(len(reps))
    proj = cid[rep]
    table = proj[G.table[np.ix_(reps, reps)]]
    reps = reps.tolist()
    names = [G.names[r] for r in reps]
    gens = sorted({int(proj[g]) for g in (G.generators or range(n))} - {int(proj[G.identity])})
    Q = FiniteGroup(table, names, gens, spec=f"{G.spec}/|{len(S)}|", check=False)
    return Q, proj, reps


@dataclass
class AbelianSection:
    """An abelian quotient A/S with chosen representatives in the parent."""

    invariants: tuple[int, ...]
    reps: tuple[int, ...]  # parent elements mapping to the basis
    _proj: np.ndarray = field(repr=False)
    _coords: dict[int, tuple[int, ...]] = field(repr=False)

    def coords(self, g: int) -> tuple[int, ...]:
        return self._coords[int(self._proj[g])]


def abelian_quotient(G: FiniteGroup, A: Subgroup, S: Subgroup) -> AbelianSection:
    """A/S in invariant-factor form, for S normal in A with [A, A] <= S.

    The cosets are walked breadth-first over a small generating set T of A,
    which gives each coset an exponent vector in Z^T.  The Schreier
    relations of the walk span the kernel of Z^T -> A/S; the Smith form of
    that kernel gives the invariants, each coset's coordinates (push) and
    the basis representatives (lift of the unit vectors).
    """
    if not S.members <= A.members:
        raise GroupError("S must be contained in A")
    com = commutator_subgroup(G, A, A)
    if not S.contains_subgroup(com):
        raise GroupError("quotient is not abelian")
    members = _index_array(A.members)
    proj = np.full(G.order, -1, dtype=np.int64)
    proj[members] = G.table[np.ix_(members, _index_array(S.members))].min(axis=1)  # least element of aS
    gens = small_generators(G, A.members)
    rows = G.mul_rows()
    start = int(proj[G.identity])
    vecs = {start: [0] * len(gens)}
    kernel = IntLattice(len(gens))
    frontier = [start]
    for c in frontier:  # the list grows while it is walked
        for j, t in enumerate(gens):
            step = vecs[c][:]
            step[j] += 1
            nxt = int(proj[rows[c][t]])
            if nxt in vecs:
                kernel.add([x - y for x, y in zip(step, vecs[nxt])])
            else:
                vecs[nxt] = step
                frontier.append(nxt)
    pres = Presentation(kernel.basis_rows(), len(gens))
    invariants = pres.group.invariants
    coords = {c: pres.push(v) for c, v in vecs.items()}
    # certify the direct sum: distinct coordinates per coset, and as many cosets as coordinates
    if len(set(coords.values())) != len(vecs) or prod(invariants) != len(vecs):
        raise GroupError("abelian decomposition is not direct")
    reps = []
    for j in range(len(invariants)):
        word = pres.lift([int(i == j) for i in range(len(invariants))])
        g = G.identity
        for t, k in zip(gens, word):
            g = rows[g][G.power(t, k)]
        reps.append(g)
    return AbelianSection(invariants, tuple(reps), proj, coords)


# -- subgroup enumeration ----------------------------------------------------


def cyclic_subgroups(G: FiniteGroup) -> list[Subgroup]:
    seen: dict[frozenset[int], Subgroup] = {}
    for g in G.elements():
        sub = generated_subgroup(G, [g])
        seen.setdefault(sub.members, sub)
    return sorted(seen.values(), key=lambda s: (len(s), s.sorted_members()))


def all_subgroups(G: FiniteGroup, cap: int = 16) -> list[Subgroup]:
    """Every subgroup, as the join closure of the cyclic ones."""
    if G.order > cap:
        raise GroupError(f"subgroup enumeration capped at order {cap}")
    atoms = cyclic_subgroups(G)
    found: dict[frozenset[int], Subgroup] = {s.members: s for s in atoms}
    frontier = list(found.values())
    while frontier:
        nxt = []
        for s in frontier:
            for a in atoms:
                j = join(G, [s, a])
                if j.members not in found:
                    found[j.members] = j
                    nxt.append(j)
        frontier = nxt
    return sorted(found.values(), key=lambda s: (len(s), s.sorted_members()))


def normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    atoms: dict[frozenset[int], Subgroup] = {}
    for g in G.elements():
        sub = normal_closure(G, [g])
        atoms.setdefault(sub.members, sub)
    found = dict(atoms)
    frontier = list(found.values())
    while frontier:
        nxt = []
        for s in frontier:
            for a in atoms.values():
                j = join(G, [s, a])
                if j.members not in found:
                    found[j.members] = j
                    nxt.append(j)
        frontier = nxt
    triv = trivial_subgroup(G)
    found.setdefault(triv.members, triv)
    return sorted(found.values(), key=lambda s: (len(s), s.sorted_members()))


# -- built-in families -------------------------------------------------------


class _Table(NamedTuple):
    """A built-in group before it becomes a FiniteGroup; element 0 is its identity."""

    table: np.ndarray
    names: list[str]
    generators: list[int]
    spec: str


def _group(t: _Table) -> FiniteGroup:
    # closed multiplication laws: no associativity check needed
    return FiniteGroup(t.table, t.names, t.generators, spec=t.spec, check=False)


def _cyclic(n: int) -> _Table:
    if n < 1:
        raise GroupError("cyclic order must be >= 1")
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    names = ["1"] + [f"x{k}" if k > 1 else "x" for k in range(1, n)]
    return _Table(table, names, [1] if n > 1 else [], f"cyclic:{n}")


def _dihedral(n: int) -> _Table:
    if n < 1:
        raise GroupError("dihedral parameter must be >= 1")
    # elements r^a f^b encoded as a + n*b
    size = 2 * n
    table = np.zeros((size, size), dtype=np.int32)
    for a in range(n):
        for b in range(2):
            for c in range(n):
                for d in range(2):
                    if b == 0:
                        e = ((a + c) % n, d)
                    else:
                        e = ((a - c) % n, 1 - d)
                    table[a + n * b, c + n * d] = e[0] + n * e[1]
    names = []
    for b in range(2):
        for a in range(n):
            r = "1" if a == 0 else ("r" if a == 1 else f"r{a}")
            if b:
                r = "f" if a == 0 else r + "f"
            names.append(r)
    return _Table(table, names, [1, n] if n > 1 else [n], f"dihedral:{n}")


def _quaternion8() -> _Table:
    # elements x^a y^b, a mod 4, b mod 2, with y x = x^-1 y and y^2 = x^2
    table = np.zeros((8, 8), dtype=np.int32)
    for a in range(4):
        for b in range(2):
            for c in range(4):
                for d in range(2):
                    if b == 0:
                        ea, eb = (a + c) % 4, d
                    else:
                        ea, eb = (a - c) % 4, 1 + d
                    if eb == 2:
                        ea, eb = (ea + 2) % 4, 0
                    table[a + 4 * b, c + 4 * d] = ea + 4 * eb
    names = ["1", "x", "x2", "x3", "y", "xy", "x2y", "x3y"]
    return _Table(table, names, [1, 4], "quaternion:8")


def _class2(p: int, s: int) -> _Table:
    """Two-generator class-2 group: x, y of order p^(s+1), [x, y] central.

    Elements are triples (i, j, k) mod q = p^(s+1) in the normal form
    x^i y^j c^k with c = [x, y]; the product law
    (i1,j1,k1)(i2,j2,k2) = (i1+i2, j1+j2, k1+k2 - i2*j1) realizes
    y^j x^i = c^(-ij) x^i y^j.  Order q^3.
    """
    if p < 2 or s < 1:
        raise GroupError("class2 needs a prime p >= 2 and s >= 1")
    q = p ** (s + 1)
    n = q * q * q

    def enc(i, j, k):
        return (i * q + j) * q + k

    iv, jv, kv = np.meshgrid(np.arange(q), np.arange(q), np.arange(q), indexing="ij")
    iv, jv, kv = iv.ravel(), jv.ravel(), kv.ravel()
    table = np.zeros((n, n), dtype=np.int32)
    for a in range(n):
        i1, j1, k1 = int(iv[a]), int(jv[a]), int(kv[a])
        ti = (i1 + iv) % q
        tj = (j1 + jv) % q
        tk = (k1 + kv - iv * j1) % q
        table[a] = (ti * q + tj) * q + tk
    names = []
    for a in range(n):
        i, j, k = int(iv[a]), int(jv[a]), int(kv[a])
        parts = []
        if i:
            parts.append(f"x{i}" if i > 1 else "x")
        if j:
            parts.append(f"y{j}" if j > 1 else "y")
        if k:
            parts.append(f"c{k}" if k > 1 else "c")
        names.append("*".join(parts) if parts else "1")
    return _Table(table, names, [enc(1, 0, 0), enc(0, 1, 0)], f"class2:{p},{s}")


def _direct_product(t1: _Table, t2: _Table) -> _Table:
    """Pairs (a, b) at index a * |t2| + b; the identity stays at 0."""
    n1, n2 = len(t1.names), len(t2.names)
    t = t1.table[:, None, :, None] * n2 + t2.table[None, :, None, :]
    table = t.reshape(n1 * n2, n1 * n2)
    names = [f"({a},{b})" for a in t1.names for b in t2.names]
    gens = [g * n2 for g in t1.generators] + list(t2.generators)
    return _Table(table, names, gens, f"{t1.spec} x {t2.spec}")


def _elementary_abelian(p: int, k: int) -> _Table:
    if p < 2 or k < 1:
        raise GroupError("elementary-abelian needs p >= 2, k >= 1")
    power = reduce(_direct_product, [_cyclic(p)] * k)
    return power._replace(spec=f"elementary-abelian:{p},{k}")


_FAMILY_RE = re.compile(r"^([a-z0-9-]+):([0-9,]+)$")


def _family(token: str) -> tuple[int, Callable[[], _Table]]:
    """A family token's order, read from its parameters, and the function
    that fills its table, so the order cap is checked before any table is."""
    m = _FAMILY_RE.match(token.strip())
    if not m:
        raise GroupError(f"cannot parse group family {token!r}")
    fam, params = m.group(1), [int(x) for x in m.group(2).split(",")]
    if fam == "cyclic" and len(params) == 1:
        return params[0], partial(_cyclic, params[0])
    if fam == "dihedral" and len(params) == 1:
        return 2 * params[0], partial(_dihedral, params[0])
    if fam == "quaternion" and params == [8]:
        return 8, _quaternion8
    if fam == "class2" and len(params) == 2:
        p, s = params
        if any(p % d == 0 for d in range(2, p)) or p < 2:
            raise GroupError("class2 parameter p must be prime")
        return p ** (3 * (s + 1)), partial(_class2, p, s)
    if fam == "elementary-abelian" and len(params) == 2:
        return params[0] ** params[1], partial(_elementary_abelian, *params)
    raise GroupError(f"unknown group family {token!r}")


def _parse_cycles(perm_spec: Sequence[Sequence[int]], npoints: int) -> tuple[int, ...]:
    img = list(range(npoints))
    touched: set[int] = set()
    for cycle in perm_spec:
        for a in cycle:
            if not 0 <= a < npoints:
                raise GroupError(f"cycle point {a} out of range")
            if a in touched:
                raise GroupError(f"cycle point {a} repeated within one permutation")
            touched.add(a)
        for a, b in zip(cycle, list(cycle[1:]) + [cycle[0]]):
            img[a] = b
    if sorted(img) != list(range(npoints)):
        raise GroupError("cycles do not describe a permutation")
    return tuple(img)


def group_from_permutations(gens: Sequence[Sequence[Sequence[int]]], cap: int) -> FiniteGroup:
    """Closure of permutation generators given as lists of cycles (0-based)."""
    npoints = 0
    for g in gens:
        for cyc in g:
            if cyc:
                npoints = max(npoints, max(cyc) + 1)
    npoints = max(npoints, 1)
    pgens = [_parse_cycles(g, npoints) for g in gens]
    ident = tuple(range(npoints))
    elems = {ident: 0}
    order = [ident]
    frontier = [ident]
    while frontier:
        cur = frontier.pop()
        for g in pgens:
            nxt = tuple(g[cur[i]] for i in range(npoints))
            if nxt not in elems:
                if len(elems) >= cap:
                    raise GroupError(f"permutation closure exceeds the cap {cap}")
                elems[nxt] = len(order)
                order.append(nxt)
                frontier.append(nxt)
    n = len(order)
    table = np.zeros((n, n), dtype=np.int32)
    for i, a in enumerate(order):
        for j, b in enumerate(order):
            prod = tuple(a[b[t]] for t in range(npoints))
            table[i, j] = elems[prod]
    names = [f"p{i}" for i in range(n)]
    gen_idx = [elems[g] for g in pgens]
    # composition of permutations is associative by construction
    return FiniteGroup(table, names, gen_idx, spec=f"perms:{n}", check=False)


def build_group(spec, max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build a group from a family string, a JSON dict, or a JSON string.

    Family strings: "cyclic:n", "dihedral:n", "quaternion:8",
    "class2:p,s", "elementary-abelian:p,k", combined with " x " for
    direct products.  Dicts: {"order", "table", "names"?} for an
    explicit (fully checked) Cayley table, or {"perm_gens": [...]} for
    permutation generators in cycle notation.
    """
    if isinstance(spec, str):
        text = spec.strip()
        if text.startswith("{"):
            try:
                spec = json.loads(text)
            except json.JSONDecodeError as exc:
                raise GroupError(f"cannot parse group spec {text!r}: {exc}") from None
        else:
            parts = [p for p in re.split(r"\s+x\s+|(?<=\d)x(?=[a-z])", text) if p] or [text]
            families = [_family(p) for p in parts]
            order = prod(n for n, _ in families)
            if order > max_order:
                raise GroupError(f"group order {order} exceeds the cap {max_order}")
            return _group(reduce(_direct_product, [build() for _, build in families]))
    if isinstance(spec, dict):
        if "table" in spec:
            table = spec["table"]
            if len(table) > max_order:
                raise GroupError("ingested table exceeds the order cap")
            return FiniteGroup(
                np.asarray(table), spec.get("names"), spec.get("generators", ()), spec="table", check=True
            )
        if "perm_gens" in spec:
            return group_from_permutations(spec["perm_gens"], max_order)
        raise GroupError("group dict needs 'table' or 'perm_gens'")
    raise GroupError(f"cannot interpret group spec {spec!r}")


def make_counterexample(p: int, r: int, s: int, max_order: int = DEFAULT_ORDER_CAP):
    """The minimal family witnessing a strict third relative dimension subgroup.

    Returns (G, K, z): G = class2:p,s, K = sgp{x^(p^r), y^(p^s), [x,y]},
    z = [x,y]^(p^s).  Requires 0 < r <= s and p prime.
    """
    if not (0 < r <= s):
        raise GroupError("need 0 < r <= s")
    G = build_group(f"class2:{p},{s}", max_order)
    q = p ** (s + 1)

    def enc(i, j, k):
        return (i * q + j) * q + k

    x = enc(1, 0, 0)
    y = enc(0, 1, 0)
    c = G.comm(x, y)
    K = generated_subgroup(G, [G.power(x, p**r), G.power(y, p**s), c])
    z = G.power(c, p**s)
    if z == G.identity:
        raise GroupError("z collapsed; parameters out of range")
    return G, K, z
