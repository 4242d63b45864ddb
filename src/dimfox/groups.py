"""Finite groups as validated Cayley tables, and subgroup-level primitives.

Elements are indices 0..order-1, and a table is a list of int rows;
the module needs only the standard library.  Built-in families (cyclic,
dihedral, quaternion, elementary abelian, two-generator class-2 p-groups,
direct products) are constructed from closed multiplication laws and skip
the associativity check; ingested tables are checked in full, associativity
by Light's test over a generating set.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import partial, reduce
from math import gcd, isqrt, lcm, prod
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .abelian import Presentation
from .intlinalg import IntLattice

DEFAULT_ORDER_CAP = 1024

# build_group's memo of family groups by stripped spec text, least recently
# used first, and its bounds: groups, and table entries (sum of |G|^2)
_MEMO_GROUPS = 64
_MEMO_ENTRIES = 1 << 18
_built: dict[str, "FiniteGroup"] = {}

# the bound of each group's memo of subgroup facts (FiniteGroup.fact):
# at most _FACT_SLOTS // |G| facts, so about |G| member slots per fact
_FACT_SLOTS = 1 << 16


class GroupError(ValueError):
    """Invalid table, bad family parameters, or an exceeded order cap."""


class ClosureError(GroupError):
    """A set that was asserted to be a subgroup failed closure."""


def is_prime(p: int) -> bool:
    """Trial division, for the small primes of family parameters, series
    tags and sigma descriptors."""
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


@dataclass(frozen=True)
class CoeffRing:
    """A commutative coefficient ring R, as the closed formulas read it: its
    characteristic `modulus` (0, or n >= 2), and, in characteristic 0, the
    pairs (p, e(p)) in `sigma` for the primes p whose chain pR >= p^2R >= ...
    stops falling, at p^e(p)R.  Z has an empty sigma, and only Z and Z/m
    have group algebras that the brute side builds.

    In characteristic n > 0, e(p) = v_p(n) for every prime p, so Z/n
    stands for every ring of characteristic n.  Proof: write n = p^a*u
    with p not dividing u.  As p^a and u are coprime and nR = 0,
    R = A x B with A = R/p^aR and B = R/uR; p is a unit on B, and A has
    characteristic p^a, as n = lcm(char A, char B) and char B divides u.
    So p^kR = p^kA x B is constant from k = a on.  For k < a,
    p^kA = p^(k+1)A would give p^k = p^(k+1)r in A, so p^k(1 - pr) = 0
    with 1 - pr a unit (pr is nilpotent), and p^k = 0 in A.
    """

    modulus: int = 0
    sigma: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.modulus < 0 or self.modulus == 1:
            raise GroupError(f"ring characteristic {self.modulus} is neither 0 nor >= 2")
        if self.sigma and self.modulus:
            raise GroupError(f"sigma {dict(self.sigma)} needs characteristic 0, not {self.modulus}")
        for p, e in self.sigma:  # trial division stays quick on keys of up to 12 digits
            if not (p < 10**12 and is_prime(p)) or e < 0:
                raise GroupError(f"sigma entry e({p}) = {e} needs a prime p of at most 12 digits and e >= 0")

    @staticmethod
    def integers() -> "CoeffRing":
        return CoeffRing(0)

    @staticmethod
    def mod(m: int) -> "CoeffRing":
        return CoeffRing(m)

    @staticmethod
    def abstract(sigma: dict[int, int]) -> "CoeffRing":
        """The characteristic-0 ring with e(p) = sigma[p], and no finite e(p)
        for a prime not in sigma."""
        return CoeffRing(0, tuple(sorted(sigma.items())))

    @staticmethod
    def parse(text: str | int) -> "CoeffRing":
        """A ring from "Z", "Z/m" or a modulus m (0 for Z), as text or an int."""
        t = str(text).strip()
        digits = "0" if t == "Z" else t[2:] if t.startswith("Z/") else t
        if not digits.isdecimal() or len(digits) > 4300:  # int() refuses longer strings
            raise GroupError(f"cannot parse ring {text!r}")
        return CoeffRing(int(digits))

    @property
    def is_concrete(self) -> bool:
        return not self.sigma

    def sigma_exponent(self, p: int) -> int | None:
        """e(p) if the chain p^k R stops falling, else None."""
        if not self.modulus:
            return dict(self.sigma).get(p)
        m, e = self.modulus, 0
        while m % p == 0:
            m //= p
            e += 1
        return e


def _check_latin_square(table) -> None:
    """Refuse, by name, an ingested table that is not a square list of
    int rows (bool is not an int) with entries in range, each row and
    each column a permutation of the elements."""
    if not isinstance(table, list):
        raise GroupError(f"table must be a list of rows, not {table!r}")
    n = len(table)
    for a, row in enumerate(table):
        if not isinstance(row, list) or len(row) != n:
            raise GroupError(f"table row {a} is not a list of {n} entries: the table must be square")
        for x in row:
            if type(x) is not int:
                raise GroupError(f"table entry {x!r} in row {a} is not an int")
            if not 0 <= x < n:
                raise GroupError(f"table entry {x} in row {a} is out of range for order {n}")
    if any(len(set(line)) != n for line in table + list(zip(*table))):
        raise GroupError("table is not a Latin square")


class FiniteGroup:
    """A finite group given by its Cayley table.

    table[a][b] is the index of the product a*b.  The identity, the
    inverse list and element orders are derived.  With check=True the
    table and generators are outside input, and every group axiom is
    checked.

    The table is one list of int rows, which mul_rows() returns itself;
    each fact of the whole group is kept once, built on first read: the
    columns, the element orders and the powers as plain int lists, the
    exponent, and the whole group and its lower central series as a
    Subgroup and an NSeries (`whole_group`, `lower_central_series`).

    The group also keeps a memo of subgroup facts (`fact`): values that
    depend only on the table and on the member sets or generator tuples
    passed in.  generated_subgroup, commutator_subgroup, power_subgroup,
    power_preimage, abelian_quotient and the formula helpers that are pure
    functions of (G, member sets) read it.  Each fact is keyed by its
    builder and exactly the inputs the builder reads: the seed set of
    generated_subgroup, the generator tuples of commutator_subgroup, the
    member sets (a Subgroup hashes and compares by its members) and
    exponents for the others; the seed tuple of generated_subgroup is also
    its generators.  Equal keys build equal values, generators included,
    so a hit returns the very object a miss would build.  The memo holds
    at most _FACT_SLOTS // |G| facts (2^16 member slots; 4096 facts at
    order 16, 64 at order 1024) and drops the least recently used first;
    the whole default corpus leaves 9,840 facts on its 33 groups, 2.6 MB
    under tracemalloc.  The kept subgroups share one frozenset per
    distinct member set (shared_members).  One kind of fact depends on a
    modulus d as well: the Hermite rows of I^3(G) over Z/d, which
    `dim_modules` keeps under the key d, as a tuple of tuples.  Facts that
    depend on K, H or anything but the table and their key are not kept
    here.

    An instance is shared: `build_group` hands the same one to every
    caller that names the same family spec in a process, so every case of
    a campaign on that group reads one table and one set of derived facts.
    Sharing is safe because nothing writes to an instance or to any list
    or set it holds after construction, apart from the memo; a derived
    fact is written once, on first read, and depends on the table and its
    key alone, so every reader sees the same value whichever builds it.
    The kept values are frozen (Subgroup, NSeries and AbelianSection are
    frozen dataclasses over frozensets and tuples, and the I^3(G) rows are
    tuples), so no reader can change a fact that another reads.
    """

    def __init__(
        self,
        table: list[list[int]],
        names: Sequence[str] | None = None,
        generators: Sequence[int] = (),
        spec: str = "",
        check: bool = True,
    ):
        if check:
            _check_latin_square(table)
        n = len(table)
        self.order = n
        self.table = table
        self.identity = self._find_identity()
        self.inverse = self._build_inverses()
        if names is None:
            names = [f"g{i}" for i in range(n)]
        if not isinstance(names, (list, tuple)):
            raise GroupError(f"names must be a list of strings, not {names!r}")
        for nm in names:
            if not isinstance(nm, str):
                raise GroupError(f"element name {nm!r} is not a string")
        if len(names) != n or len(set(names)) != n:
            raise GroupError("names must be distinct and match the order")
        self.names = tuple(names)
        self.spec = spec or f"table:{n}"
        self._name_index = {nm: i for i, nm in enumerate(self.names)}
        self._cols: list[list[int]] | None = None
        self._orders: list[int] | None = None
        self._exponent: int | None = None
        self._powers: list[list[int]] | None = None
        self._whole: Subgroup | None = None
        self._lower_central: NSeries | None = None
        self._facts: dict[tuple, object] = {}
        self._fact_cap = max(1, _FACT_SLOTS // n)
        self.generators = self._generating_set(generators, check)
        if check:
            self._check_associative()

    def _generating_set(self, gens: Sequence[int], check: bool) -> tuple[int, ...]:
        """The given generators, which a checked table must show to generate
        the group, or a greedy generating set when none are given.  Every
        subgroup primitive relies on G.generators generating G."""
        if check:
            if not isinstance(gens, (list, tuple)) or not all(type(g) is int for g in gens):
                raise GroupError(f"generators must be a list of int indices, not {gens!r}")
            if not all(0 <= g < self.order for g in gens):
                raise GroupError(f"generator indices {list(gens)} out of range for order {self.order}")
            span = len(_Span(self, gens).members)
            if gens and span != self.order:
                raise GroupError(
                    f"generators {[self.names[g] for g in gens]} do not generate the group: "
                    f"they generate {span} of its {self.order} elements"
                )
        return tuple(gens) or small_generators(self, self.elements())

    def mul_rows(self) -> list[list[int]]:
        """The table itself: rows of plain ints, for inner loops."""
        return self.table

    def mul_cols(self) -> list[list[int]]:
        if self._cols is None:
            self._cols = [list(col) for col in zip(*self.table)]
        return self._cols

    def element_orders(self) -> list[int]:
        """element_orders()[g] = the order of g, read in one pass over the
        cyclic subgroups: a walk g, g^2, ..., g^n = 1 from each element no
        earlier walk reached gives g^k the order n / gcd(n, k)."""
        if self._orders is None:
            rows, e = self.table, self.identity
            orders = [0] * self.order
            for g, row in enumerate(rows):
                if orders[g]:
                    continue
                walk, x = [g], g
                while x != e:
                    x = row[x]  # g^(k+1) = g g^k, read from row g
                    walk.append(x)
                n = len(walk)
                for k, x in enumerate(walk, 1):
                    orders[x] = n // gcd(n, k)
            self._orders = orders
        return self._orders

    def power_rows(self) -> list[list[int]]:
        """power_rows()[k][g] = g^k for k in [0, exponent), as plain int
        lists, built on the first read of a power row."""
        if self._powers is None:
            rows = self.table
            powers, x = [[self.identity] * self.order], list(self.elements())
            for _ in range(1, self.exponent()):
                powers.append(x)
                x = list(map(list.__getitem__, rows, x))  # g^(k+1) = g g^k, read from row g
            self._powers = powers
        return self._powers

    # -- construction checks ------------------------------------------------

    def _find_identity(self) -> int:
        idx = list(self.elements())
        for e, row in enumerate(self.table):
            if row == idx and all(r[e] == a for a, r in enumerate(self.table)):
                return e
        raise GroupError("table has no identity element")

    def _build_inverses(self) -> list[int]:
        # each row of a Latin square holds the identity once: a right inverse
        e = self.identity
        inv = [row.index(e) for row in self.table]
        if any(self.table[b][a] != e for a, b in enumerate(inv)):
            raise GroupError("element without a two-sided inverse")
        return inv

    def _check_associative(self) -> None:
        """Light's test over the generators: (xg)y = x(gy) for every
        generator g and all x, y.

        Proof that it suffices (Clifford and Preston, The Algebraic Theory
        of Semigroups I, 1961, section 1.2).  Call g a middle when
        (xg)y = x(gy) for all x, y.  The identity is a middle, and so is ab
        for middles a and b: (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by))
        = x((ab)y), using a, b, a and b in turn.  Every element is a
        product ((1 g1) g2)...gk of generators, as the generators span the
        group by right products (_generating_set), so every element is a
        middle, which is associativity.  It takes |generators| n^2 reads in
        place of n^3.
        """
        rows = self.table
        for g in self.generators:
            grow = rows[g]
            for row in rows:
                if rows[row[g]] != list(map(row.__getitem__, grow)):
                    raise GroupError("table is not associative")

    # -- element arithmetic --------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.mul_rows()[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def power(self, a: int, k: int) -> int:
        """a^k for any integer k, read from the power table."""
        return self.power_rows()[k % self.exponent()][a]

    def conj(self, g: int, a: int) -> int:
        """g * a * g^-1."""
        rows = self.mul_rows()
        return rows[rows[g][a]][self.inverse[g]]

    def comm(self, a: int, b: int) -> int:
        """[a, b] = a b a^-1 b^-1."""
        rows, inv = self.mul_rows(), self.inverse
        return rows[rows[a][b]][rows[inv[a]][inv[b]]]

    def order_of(self, a: int) -> int:
        """The least k >= 1 with a^k = 1."""
        return self.element_orders()[a]

    def exponent(self) -> int:
        if self._exponent is None:
            self._exponent = lcm(*self.element_orders())
        return self._exponent

    def fact(self, build: Callable, *args):
        """build(self, *args), kept in the group's memo of subgroup facts
        under the key (build, *args), which must hold every input that
        build reads beyond the table (see the class docstring).  A hit
        moves the fact to the most recently used end; a miss keeps the new
        fact there and drops the least recently used ones past the bound."""
        facts = self._facts
        key = (build, *args)
        value = facts.pop(key, None)
        if value is None:
            value = build(self, *args)
            while len(facts) >= self._fact_cap:
                del facts[next(iter(facts))]
        facts[key] = value
        return value

    def is_abelian(self) -> bool:
        """Whether the generators commute pairwise, which makes G abelian,
        as they generate it."""
        rows = self.table
        return all(rows[a][b] == rows[b][a] for a in self.generators for b in self.generators)

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


@dataclass(frozen=True, slots=True)
class Subgroup:
    """A subgroup of `parent`: its member set and generators that generate it.

    The primitives below read `generators` in place of the members (joins,
    normality, commutator subgroups), so they must generate `members`.
    When they are omitted, a greedy generating set is taken from the
    members in index order, and a member set that is not closed raises
    ClosureError naming an escaping product.
    """

    parent: FiniteGroup
    members: frozenset[int]
    generators: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.generators is None:
            span = _Span(self.parent, sorted(self.members), inside=self.members)
            object.__setattr__(self, "generators", tuple(span.gens))
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
        return _normalizes(self.parent, self.parent.generators, self)

    def contains_subgroup(self, other: "Subgroup") -> bool:
        return other.members <= self.members


class _Span:
    """A subgroup grown one generator at a time: a member set closed under
    right multiplication by the generators taken so far.

    Right multiplication is enough: in a finite group s^-1 = s^(ord(s) - 1),
    so the monoid the generators make is the subgroup.  When s is taken the
    old members need only their product by s, and each new member its
    products by every generator.  A seed already in the span is skipped, and
    each one taken at least doubles it (Lagrange), so at most log2 of its
    order are taken.

    With `inside`, the span must stay in that set: a product that leaves it
    raises ClosureError naming its two factors, both in `inside`.  Taking
    every element of `inside` then spans exactly `inside` or raises.
    """

    def __init__(self, G: FiniteGroup, seeds: Iterable[int] = (), inside: frozenset[int] | None = None):
        self.G = G
        self.rows = G.mul_rows()
        self.inside = inside
        self.members = {G.identity}
        self.listed = [G.identity]
        self.gens: list[int] = []
        if inside and G.identity not in inside:
            # the powers of any s in `inside` come back to the identity
            s = x = min(inside)
            while self.rows[x][s] in inside:
                x = self.rows[x][s]
            self._escape(x, s)
        for s in seeds:
            self.take(s)

    def _escape(self, g: int, t: int):
        raise ClosureError(f"set is not closed: {self.G.name(g)} * {self.G.name(t)} escapes")

    def take(self, s: int) -> bool:
        """Add s as a generator unless the span holds it; True when taken."""
        members, inside = self.members, self.inside
        if s in members:
            return False
        rows, gens = self.rows, self.gens
        gens.append(s)
        fresh = []
        for g in self.listed:
            h = rows[g][s]
            if h not in members:
                if inside is not None and h not in inside:
                    self._escape(g, s)
                members.add(h)
                fresh.append(h)
        for g in fresh:  # the list grows while it is walked
            row = rows[g]
            for t in gens:
                h = row[t]
                if h not in members:
                    if inside is not None and h not in inside:
                        self._escape(g, t)
                    members.add(h)
                    fresh.append(h)
        self.listed += fresh
        return True


def _normalizes(G: FiniteGroup, conjugators: Iterable[int], S: Subgroup) -> bool:
    """t S t^-1 <= S for every conjugator t, read on the generators s of S,
    as s -> t s t^-1 is a homomorphism.  Then the group the conjugators
    generate normalizes S, since t^-1 is a power of t."""
    rows, inv = G.mul_rows(), G.inverse
    return all(rows[rows[t][s]][inv[t]] in S.members for t in conjugators for s in S.generators)


def _normal_closure(G: FiniteGroup, seeds: Iterable[int], conjugators: Sequence[int]) -> Subgroup:
    """The smallest subgroup N holding the seeds with t N t^-1 <= N for each
    conjugator t: the normal closure of the seeds in the group J that the
    conjugators generate, as t^-1 is a power of t.  Each generator taken
    queues its conjugates, and every queued element ends in N, so N is
    normalized by every t (see _normalizes); any normal subgroup of J
    holding the seeds holds every queued element."""
    rows, inv = G.mul_rows(), G.inverse
    span = _Span(G)
    queue = list(seeds)
    for s in queue:  # the list grows while it is walked
        if span.take(s):
            queue.extend(rows[rows[t][s]][inv[t]] for t in conjugators)
    return Subgroup(G, shared_members(G, frozenset(span.members)), tuple(span.gens))


def generated_subgroup(G: FiniteGroup, seeds: Iterable[int]) -> Subgroup:
    """Smallest subgroup of G containing the given elements, with the
    distinct seeds in index order as its generators; kept on G by seed set."""
    return G.fact(_generated, tuple(sorted(set(map(int, seeds)))))


def _generated(G: FiniteGroup, seeds: tuple[int, ...]) -> Subgroup:
    return Subgroup(G, shared_members(G, frozenset(_Span(G, seeds).members)), seeds)


def shared_members(G: FiniteGroup, members: frozenset[int]) -> frozenset[int]:
    """The member set equal to `members` that G's memo holds, kept there on
    first sight: the kept subgroups share one frozenset per distinct member
    set, as a group has few subgroups and its memo many facts."""
    return G.fact(_same, members)


def _same(G: FiniteGroup, members: frozenset[int]) -> frozenset[int]:
    return members


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, frozenset({G.identity}), ())


def whole_group(G: FiniteGroup) -> Subgroup:
    """G as a subgroup of itself, built on first read and kept on G."""
    if G._whole is None:
        G._whole = Subgroup(G, frozenset(G.elements()), G.generators)
    return G._whole


def subgroup_from_members(G: FiniteGroup, members: Iterable[int]) -> Subgroup:
    """A member set as a Subgroup with a greedy generating set; a set that
    is not closed raises ClosureError naming an escaping product."""
    return Subgroup(G, frozenset(int(m) for m in members))


def small_generators(G: FiniteGroup, seeds: Iterable[int]) -> tuple[int, ...]:
    """The seeds in their order, less each one that those before it already
    generate (_Span): a generating set of the subgroup they generate, with
    at most log2 of its order elements.  Pass a subgroup's own generators
    rather than its members where it has them; its members in index order
    give the greedy generating set."""
    return tuple(_Span(G, seeds).gens)


def join(G: FiniteGroup, parts: Sequence[Subgroup]) -> Subgroup:
    """Subgroup generated by the union of the parts."""
    seeds: set[int] = set()
    for p in parts:
        if p.parent is not G:
            raise GroupError("join across different groups")
        seeds.update(p.generators)
    return generated_subgroup(G, seeds)


def commutator_subgroup(G: FiniteGroup, A: Subgroup, B: Subgroup) -> Subgroup:
    """[A, B], the normal closure in J = <A, B> of the [x, y] for x over the
    generators X of A and y over the generators Y of B (Robinson, A Course
    in the Theory of Groups, 5.1.7), with [a, b] = a b a^-1 b^-1 and
    ^g c = g c g^-1.

    Proof.  Direct expansion gives
      (1) [xa, b] = ^x[a, b] [x, b]   and   (2) [a, yb] = [a, y] ^y[a, b].
    [A, B] is normal in J: by (1) and (2), ^x[a, b] = [xa, b] [x, b]^-1
    for x in A and ^y[a, b] = [a, y]^-1 [a, yb] for y in B lie in [A, B].
    It holds every [x, y], so it holds their normal closure N.
    Conversely, in a finite group x^-1 = x^(ord(x) - 1), so every a in A is
    a word in X without inverses, and every b in B one in Y.  As N is
    normal in J, induction on the length of a with (1) puts every [a, y]
    (y in Y) in N, and then induction on the length of b with (2) every
    [a, b].  So [A, B] = N, which _normal_closure builds by conjugating
    with X and Y only, as the inverse of each is a power of it.

    Only X and Y are read, so the result is kept on G by the pair (X, Y).
    """
    return G.fact(_commutator, A.generators, B.generators)


def _commutator(G: FiniteGroup, X: tuple[int, ...], Y: tuple[int, ...]) -> Subgroup:
    rows, inv = G.mul_rows(), G.inverse
    seeds = [rows[rows[x][y]][rows[inv[x]][inv[y]]] for x in X for y in Y]
    return _normal_closure(G, seeds, tuple(dict.fromkeys(X + Y)))


def power_subgroup(G: FiniteGroup, A: Subgroup, m: int) -> Subgroup:
    """sgp{a^m : a in A};  m = 0 gives the trivial subgroup.  Kept on G by
    the members of A and m."""
    if m < 0:
        raise GroupError("power exponent must be >= 0")
    if m == 0:
        return trivial_subgroup(G)
    return G.fact(_power, A, m)


def _power(G: FiniteGroup, A: Subgroup, m: int) -> Subgroup:
    powers = G.power_rows()[m % G.exponent()]
    return generated_subgroup(G, {powers[a] for a in A.members})


def power_preimage(G: FiniteGroup, A: Subgroup, k: int, M: Subgroup) -> Subgroup:
    """{a in A : a^k in M}, asserted to be a subgroup: a set that is not
    closed raises ClosureError.  k = 1 gives A ∩ M.  It is a subgroup
    whenever A ∩ M is normal in A with A/(A ∩ M) abelian, as
    a -> a^k (A ∩ M) is then a homomorphism with this kernel.  Kept on G
    by the members of A and M and k mod the exponent, as a^k reads only
    that residue."""
    return G.fact(_power_preimage, A, k % G.exponent(), M)


def _power_preimage(G: FiniteGroup, A: Subgroup, k: int, M: Subgroup) -> Subgroup:
    powers, target = G.power_rows()[k], M.members
    return Subgroup(G, shared_members(G, frozenset(a for a in A.members if powers[a] in target)))


def centre(G: FiniteGroup) -> Subgroup:
    """The elements whose row equals their column."""
    return subgroup_from_members(G, [a for a, (row, col) in enumerate(zip(G.table, G.mul_cols())) if row == col])


def normal_closure(G: FiniteGroup, seeds: Iterable[int]) -> Subgroup:
    return _normal_closure(G, seeds, G.generators)


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
    """G = G_1 > G_2 = [G, G] > ... > G_(i+1) = [G_i, G], up to the first
    term that repeats; built on first read and kept on G."""
    if G._lower_central is None:
        chain = [whole_group(G)]
        while True:
            nxt = commutator_subgroup(G, chain[-1], chain[0])
            if nxt == chain[-1]:
                break
            chain.append(nxt)
        G._lower_central = NSeries(tuple(chain))
    return G._lower_central


def nseries_from_level2(G: FiniteGroup, M: Subgroup) -> NSeries:
    """Fastest-descending valid series with N_2 = M*[G,G]."""
    chain = [whole_group(G), join(G, [M, lower_central_series(G).term(2)])]
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
    """{g in the ambient : g^(p^j) in S for some j >= 0}, asserted to be a
    subgroup.

    Sound whenever the ambient-mod-S quotient is nilpotent (always true
    in this workbench's call sites: S contains a term under which the
    quotient is abelian-by-central).  A closure failure is surfaced,
    never repaired.

    The set is {g : g^q in S} for q = p^b the p-part of exp(G), one power
    row (power_preimage).  Proof.  Let g have order p^a n' with p not
    dividing n', so a <= b.  With u n' + v p^a = 1, g = xy for the powers
    x = g^(u n') and y = g^(v p^a) of g, where x^(p^a) = 1 and y^n' = 1.
    If g^(p^j) is in S: for j <= b, g^q = (g^(p^j))^(p^(b-j)) is in S; for
    j > b, g^(p^j) = y^(p^j), and p^j is a unit mod n', so y is a power of
    g^(p^j) and lies in S, and g^q = y^q is in S.  Conversely take j = b.
    """
    ambient = within if within is not None else whole_group(G)
    if not S.members <= ambient.members:
        raise GroupError("p_torsion_mod: S must lie in the ambient subgroup")
    if not _normalizes(G, ambient.generators, S):
        raise GroupError("p_torsion_mod: S is not normal in the ambient subgroup")
    q, e = 1, G.exponent()
    while e % (q * p) == 0:
        q *= p
    try:
        return power_preimage(G, ambient, q, S)
    except ClosureError as exc:
        raise ClosureError(f"p-torsion set mod S is not a subgroup: {exc}") from exc


# -- quotients and abelian structure ----------------------------------------


def quotient_group(G: FiniteGroup, S: Subgroup) -> tuple[FiniteGroup, list[int], list[int]]:
    """G/S for normal S: the quotient table, projection and a section.

    Returns (Q, proj, section) with proj[g] the coset index of g and
    section[c] the least element of coset c.  The elements are walked in
    index order, so the first one of each coset gS met is its least, and
    the cosets are numbered in the order of their least elements.
    """
    if not S.is_normal():
        raise GroupError("quotient by a non-normal subgroup")
    rows = G.mul_rows()
    proj = [-1] * G.order
    reps: list[int] = []
    for g in G.elements():
        if proj[g] < 0:
            row = rows[g]
            for s in S.members:
                proj[row[s]] = len(reps)
            reps.append(g)
    table = [[proj[rows[a][b]] for b in reps] for a in reps]
    names = [G.names[r] for r in reps]
    gens = sorted({proj[g] for g in G.generators} - {proj[G.identity]})
    Q = FiniteGroup(table, names, gens, spec=f"{G.spec}/|{len(S)}|", check=False)
    return Q, proj, reps


@dataclass(frozen=True)
class AbelianSection:
    """An abelian quotient A/S with chosen representatives in the parent;
    frozen, as its group may share it (abelian_quotient)."""

    invariants: tuple[int, ...]
    reps: tuple[int, ...]  # parent elements mapping to the basis
    _proj: Sequence[int | None] = field(repr=False)  # coset of each element of A, None outside A
    _coords: Sequence[tuple[int, ...]] = field(repr=False)  # coordinates of each coset

    def coords(self, g: int) -> tuple[int, ...]:
        return self._coords[self._proj[g]]


def abelian_quotient(G: FiniteGroup, A: Subgroup, S: Subgroup) -> AbelianSection:
    """A/S in invariant-factor form, for S normal in A with [A, A] <= S.

    The cosets are walked breadth-first over a small generating set T of A,
    which gives each coset an exponent vector in Z^T; each coset's members
    are listed once, when the walk first reaches it.  The Schreier
    relations of the walk span the kernel of Z^T -> A/S; the Smith form of
    that kernel gives the invariants, each coset's coordinates (push) and
    the basis representatives (lift of the unit vectors).

    The section depends on the member sets of A and S alone, and is kept
    on G by them.
    """
    return G.fact(_abelian_quotient, A, S)


def _abelian_quotient(G: FiniteGroup, A: Subgroup, S: Subgroup) -> AbelianSection:
    if not S.members <= A.members:
        raise GroupError("S must be contained in A")
    com = commutator_subgroup(G, A, A)
    if not S.contains_subgroup(com):
        raise GroupError("quotient is not abelian")
    gens = small_generators(G, sorted(A.members))
    rows = G.mul_rows()
    smembers = list(S.members)
    coset_of: list[int | None] = [None] * G.order
    walk: list[int] = []  # the element through which the walk reached each coset
    vecs: list[list[int]] = []

    def reach(g: int, vec: list[int]) -> None:
        row = rows[g]
        for s in smembers:
            coset_of[row[s]] = len(walk)
        walk.append(g)
        vecs.append(vec)

    reach(G.identity, [0] * len(gens))
    kernel = IntLattice(len(gens))
    for c, g in enumerate(walk):  # the list grows while it is walked
        for j, t in enumerate(gens):
            step = vecs[c][:]
            step[j] += 1
            h = rows[g][t]  # gS t = gtS, as S is normal in A
            nxt = coset_of[h]
            if nxt is None:
                reach(h, step)
            else:
                kernel.add([x - y for x, y in zip(step, vecs[nxt])])
    pres = Presentation(kernel.basis_rows(), len(gens))
    invariants = pres.group.invariants
    coords = [pres.push(v) for v in vecs]
    # certify the direct sum: distinct coordinates per coset, and as many cosets as coordinates
    if len(set(coords)) != len(vecs) or prod(invariants) != len(vecs):
        raise GroupError("abelian decomposition is not direct")
    reps = []
    for j in range(len(invariants)):
        word = pres.lift([int(i == j) for i in range(len(invariants))])
        g = G.identity
        for t, k in zip(gens, word):
            g = rows[g][G.power(t, k)]
        reps.append(g)
    return AbelianSection(invariants, tuple(reps), tuple(coset_of), tuple(coords))


# -- subgroup enumeration ----------------------------------------------------


def cyclic_subgroups(G: FiniteGroup) -> list[Subgroup]:
    seen: dict[frozenset[int], Subgroup] = {}
    for g in G.elements():
        sub = generated_subgroup(G, [g])
        seen.setdefault(sub.members, sub)
    return sorted(seen.values(), key=lambda s: (len(s), s.sorted_members()))


def _join_closure(G: FiniteGroup, atoms: list[Subgroup]) -> list[Subgroup]:
    """Every join of one or more of the distinct atoms, by order and then
    by members.  Each round joins the subgroups found in the last one with
    every atom."""
    found = {a.members: a for a in atoms}
    frontier = atoms
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


def all_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Every subgroup, as the join closure of the cyclic ones.  The lattice
    grows fast with the order; the corpus takes it up to order 16 only."""
    return _join_closure(G, cyclic_subgroups(G))


def normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Every normal subgroup, as the join closure of the normal closures of
    the elements (the identity's is the trivial subgroup)."""
    atoms: dict[frozenset[int], Subgroup] = {}
    for g in G.elements():
        sub = normal_closure(G, [g])
        atoms.setdefault(sub.members, sub)
    return _join_closure(G, list(atoms.values()))


# -- built-in families -------------------------------------------------------


class _Table(NamedTuple):
    """A built-in group before it becomes a FiniteGroup; element 0 is its identity."""

    table: list[list[int]]
    names: list[str]
    generators: list[int]
    spec: str


def _cyclic(n: int) -> _Table:
    if n < 1:
        raise GroupError("cyclic order must be >= 1")
    idx = list(range(n))
    table = [idx[a:] + idx[:a] for a in idx]
    names = ["1"] + [f"x{k}" if k > 1 else "x" for k in range(1, n)]
    return _Table(table, names, [1] if n > 1 else [], f"cyclic:{n}")


def _compose_table(order: int, gen_rows: Mapping[int, list[int]]) -> list[list[int]]:
    """The Cayley table of an associative law on range(order) with identity
    0, from the rows of its generators alone: gen_rows[s][b] = s*b.

    The walk starts from the identity row and takes row(g*s) =
    row(g) o row(s), as (g*s)*b = g*(s*b) by associativity, one map per
    row; g*s is read from row(g) itself.  Right products by the
    generators reach the whole group when they generate it (s^-1 is a
    power of s); rows that reach fewer elements are refused.
    """
    table: list[list[int] | None] = [None] * order
    table[0] = list(range(order))
    reached = [0]
    for g in reached:  # the list grows while it is walked
        row = table[g]
        for s, srow in gen_rows.items():
            h = row[s]
            if table[h] is None:
                table[h] = list(map(row.__getitem__, srow))
                reached.append(h)
    if len(reached) != order:
        raise GroupError(
            f"generator rows {sorted(gen_rows)} do not generate the group: "
            f"they reach {len(reached)} of its {order} elements"
        )
    return table


def _dihedral(n: int) -> _Table:
    if n < 1:
        raise GroupError("dihedral parameter must be >= 1")
    # elements r^a f^b encoded as a + n*b; (a, b)(c, d) = (a + (-1)^b c, b xor d)
    pairs = [(a, b) for b in range(2) for a in range(n)]

    def row(g):
        a, b = pairs[g]
        return [(a + (1 - 2 * b) * c) % n + n * (b ^ d) for c, d in pairs]

    gens = [1, n] if n > 1 else [n]
    table = _compose_table(2 * n, {g: row(g) for g in gens})
    names = []
    for b in range(2):
        for a in range(n):
            r = "1" if a == 0 else ("r" if a == 1 else f"r{a}")
            if b:
                r = "f" if a == 0 else r + "f"
            names.append(r)
    return _Table(table, names, gens, f"dihedral:{n}")


def _quaternion8() -> _Table:
    # elements x^a y^b, a mod 4, b mod 2, with y x = x^-1 y and y^2 = x^2:
    # (a, b)(c, d) = (a + (-1)^b c + 2 b d, b xor d)
    pairs = [(a, b) for b in range(2) for a in range(4)]
    table = [[(a + (1 - 2 * b) * c + 2 * (b & d)) % 4 + 4 * (b ^ d) for c, d in pairs] for a, b in pairs]
    names = ["1", "x", "x2", "x3", "y", "xy", "x2y", "x3y"]
    return _Table(table, names, [1, 4], "quaternion:8")


def _class2(p: int, s: int) -> _Table:
    """Two-generator class-2 group: x, y of order p^(s+1), [x, y] central.

    Elements are triples (i, j, k) mod q = p^(s+1) in the normal form
    x^i y^j c^k with c = [x, y]; the product law
    (i1,j1,k1)(i2,j2,k2) = (i1+i2, j1+j2, k1+k2 - i2*j1) realizes
    y^j x^i = c^(-ij) x^i y^j.  Order q^3.  The law is evaluated for the
    rows of x and y only (`_compose_table`).
    """
    if p < 2 or s < 1:
        raise GroupError("class2 needs a prime p >= 2 and s >= 1")
    q = p ** (s + 1)

    def enc(i, j, k):
        return (i * q + j) * q + k

    triples = [(i, j, k) for i in range(q) for j in range(q) for k in range(q)]

    def row(g):
        i1, j1, k1 = triples[g]
        return [enc((i1 + i2) % q, (j1 + j2) % q, (k1 + k2 - i2 * j1) % q) for i2, j2, k2 in triples]

    gens = [enc(1, 0, 0), enc(0, 1, 0)]
    table = _compose_table(q**3, {g: row(g) for g in gens})
    names = []
    for i, j, k in triples:
        parts = []
        if i:
            parts.append(f"x{i}" if i > 1 else "x")
        if j:
            parts.append(f"y{j}" if j > 1 else "y")
        if k:
            parts.append(f"c{k}" if k > 1 else "c")
        names.append("*".join(parts) if parts else "1")
    return _Table(table, names, gens, f"class2:{p},{s}")


def _direct_product(t1: _Table, t2: _Table) -> _Table:
    """Pairs (a, b) at index a * |t2| + b; the identity stays at 0."""
    n2 = len(t2.names)
    table = [[c * n2 + d for c in r1 for d in r2] for r1 in t1.table for r2 in t2.table]
    names = [f"({a},{b})" for a in t1.names for b in t2.names]
    gens = [g * n2 for g in t1.generators] + list(t2.generators)
    return _Table(table, names, gens, f"{t1.spec} x {t2.spec}")


def _elementary_abelian(p: int, k: int) -> _Table:
    if p < 2 or k < 1:
        raise GroupError("elementary-abelian needs p >= 2, k >= 1")
    power = reduce(_direct_product, [_cyclic(p)] * k)
    return power._replace(spec=f"elementary-abelian:{p},{k}")


_FAMILY_RE = re.compile(r"^([a-z0-9-]+):([0-9,]+)$")


def _capped_power(p: int, k: int, max_order: int) -> int:
    """p^k, refused without building it when it exceeds max_order by far."""
    if k * (p.bit_length() - 1) >= 64 + max_order.bit_length():
        raise GroupError(f"group order {p}^{k} exceeds the cap {max_order}")
    return p**k


def _family(token: str, max_order: int) -> tuple[int, Callable[[], _Table]]:
    """A family token's order, read from its parameters, and the function
    that fills its table, so the order cap is checked before any table is."""
    m = _FAMILY_RE.match(token.strip())
    if not m:
        raise GroupError(f"cannot parse group family {token!r}")
    try:  # int() refuses an empty parameter and one of over 4300 digits
        fam, params = m.group(1), [int(x) for x in m.group(2).split(",")]
    except ValueError:
        raise GroupError(f"cannot parse group family {token!r}") from None
    if fam == "cyclic" and len(params) == 1:
        return params[0], partial(_cyclic, params[0])
    if fam == "dihedral" and len(params) == 1:
        return 2 * params[0], partial(_dihedral, params[0])
    if fam == "quaternion" and params == [8]:
        return 8, _quaternion8
    if fam == "class2" and len(params) == 2:
        p, s = params
        order = _capped_power(p, 3 * (s + 1), max_order)
        if not is_prime(p):
            raise GroupError("class2 parameter p must be prime")
        return order, partial(_class2, p, s)
    if fam == "elementary-abelian" and len(params) == 2:
        return _capped_power(*params, max_order), partial(_elementary_abelian, *params)
    raise GroupError(f"unknown group family {token!r}")


def _perm_points(gens) -> dict[int, int]:
    """Refuse, by name, a perm_gens spec that is not a list of generators,
    each a list of cycles, each a list of int points >= 0 (bool is not an
    int); return the label of each point that occurs, in ascending order.
    A point that occurs in no cycle is fixed by every generator, so
    dropping it leaves the group, its element order and its table as they
    are, and a large label costs nothing."""
    if not isinstance(gens, list):
        raise GroupError(f"perm_gens must be a list of generators, not {gens!r}")
    points: set[int] = set()
    for i, gen in enumerate(gens):
        if not isinstance(gen, list):
            raise GroupError(f"perm_gens generator {i} is not a list of cycles: {gen!r}")
        for cycle in gen:
            if not isinstance(cycle, list):
                raise GroupError(f"perm_gens generator {i} has a cycle that is not a list of points: {cycle!r}")
            for a in cycle:
                if type(a) is not int:
                    raise GroupError(f"cycle point {a!r} in generator {i} is not an int")
                if a < 0:
                    raise GroupError(f"cycle point {a} out of range")
            points.update(cycle)
    return {a: k for k, a in enumerate(sorted(points))}


def _parse_cycles(perm_spec: list[list[int]], label: dict[int, int]) -> tuple[int, ...]:
    img = list(range(len(label)))
    touched: set[int] = set()
    for cycle in perm_spec:
        for a in cycle:
            if a in touched:
                raise GroupError(f"cycle point {a} repeated within one permutation")
            touched.add(a)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            img[label[a]] = label[b]
    if sorted(img) != list(range(len(label))):
        raise GroupError("cycles do not describe a permutation")
    return tuple(img)


def group_from_permutations(gens: list[list[list[int]]], cap: int) -> FiniteGroup:
    """Closure of permutation generators given as lists of cycles (0-based),
    on the points that occur, numbered in ascending order."""
    label = _perm_points(gens)
    npoints = len(label)
    pgens = [_parse_cycles(g, label) for g in gens]
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
    # row a, column b: the permutation t -> a[b[t]]
    table = [[elems[tuple(map(a.__getitem__, b))] for b in order] for a in order]
    names = [f"p{i}" for i in range(n)]
    gen_idx = [elems[g] for g in pgens]
    # composition of permutations is associative by construction
    return FiniteGroup(table, names, gen_idx, spec=f"perms:{n}", check=False)


def build_group(spec, max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build a group from a family string, a JSON dict, or a JSON string.

    Family strings: "cyclic:n", "dihedral:n", "quaternion:8",
    "class2:p,s", "elementary-abelian:p,k", combined with " x " for
    direct products.  Dicts: {"table", "order"?, "names"?, "generators"?}
    for an explicit (fully checked) Cayley table, whose order, when given,
    must be the table's size, or {"perm_gens": [...]} for permutation
    generators in cycle notation.

    A family string builds one FiniteGroup per spec text (stripped) per
    process: the group is kept in a memo and the same instance is returned
    to every later call, which shares its table and derived facts (see
    FiniteGroup for why that is safe).  A hit checks the order cap against
    the kept group's order, with no parse of the spec; the cap is checked
    on every call, before a group is returned, and a refused spec is never
    kept.  The memo holds at most 64 groups (_MEMO_GROUPS) whose |G|^2 sum
    to at most 2^18 table entries (_MEMO_ENTRIES), dropping the least
    recently used; a group of order above 512 is not kept.  With every
    derived table built (columns, commutators, powers, whole group, lower
    central series), order-512 groups measured 33-43 bytes per table
    entry, so the memo pins at most about 12 MB beyond the per-instance
    overhead of its groups, their memos of subgroup facts included.  Dict
    and JSON specs are built fresh on every call.
    """
    if isinstance(spec, str):
        text = spec.strip()
        G = _built.get(text)
        if G is not None:
            _check_order_cap(G.order, max_order)
            _built[text] = _built.pop(text)  # now the most recently used
            return G
        if text.startswith("{"):
            try:
                spec = json.loads(text)
            except json.JSONDecodeError as exc:
                raise GroupError(f"cannot parse group spec {text!r}: {exc}") from None
        else:
            parts = [p for p in re.split(r"\s+x\s+|(?<=\d)x(?=[a-z])", text) if p] or [text]
            families = [_family(p, max_order) for p in parts]
            _check_order_cap(prod(n for n, _ in families), max_order)
            t = reduce(_direct_product, [build() for _, build in families])
            # closed multiplication laws: no check needed
            G = FiniteGroup(t.table, t.names, t.generators, spec=t.spec, check=False)
            _remember(text, G)
            return G
    if isinstance(spec, dict):
        if "table" in spec:
            table = spec["table"]
            if not isinstance(table, list):
                raise GroupError(f"table must be a list of rows, not {table!r}")
            if len(table) > max_order:
                raise GroupError("ingested table exceeds the order cap")
            order = spec.get("order", len(table))
            if type(order) is not int or order != len(table):
                raise GroupError(f"table spec order {order!r} is not the table's size {len(table)}")
            return FiniteGroup(table, spec.get("names"), spec.get("generators", ()), spec="table", check=True)
        if "perm_gens" in spec:
            return group_from_permutations(spec["perm_gens"], max_order)
        raise GroupError("group dict needs 'table' or 'perm_gens'")
    raise GroupError(f"cannot interpret group spec {spec!r}")


def _check_order_cap(order: int, max_order: int) -> None:
    if order > max_order:
        shown = order if order.bit_length() < 10000 else "past 2^10000"
        raise GroupError(f"group order {shown} exceeds the cap {max_order}")


def _remember(text: str, G: FiniteGroup) -> None:
    """Keep G in build_group's memo as its most recently used group, then
    drop the least recently used groups until the memo is within its
    bounds; a group over the entry bound on its own is not kept."""
    if G.order**2 > _MEMO_ENTRIES:
        return
    _built[text] = G
    while len(_built) > _MEMO_GROUPS or sum(H.order**2 for H in _built.values()) > _MEMO_ENTRIES:
        del _built[next(iter(_built))]


def make_counterexample(p: int, r: int, s: int, max_order: int = DEFAULT_ORDER_CAP):
    """The minimal family witnessing a strict third relative dimension subgroup.

    Returns (G, K, z): G = class2:p,s, K = sgp{x^(p^r), y^(p^s), [x,y]},
    z = [x,y]^(p^s).  Requires 0 < r <= s and p prime.
    """
    if not (0 < r <= s):
        raise GroupError("need 0 < r <= s")
    G = build_group(f"class2:{p},{s}", max_order)
    x, y = G.generators
    c = G.comm(x, y)
    K = generated_subgroup(G, [G.power(x, p**r), G.power(y, p**s), c])
    z = G.power(c, p**s)
    if z == G.identity:
        raise GroupError("z collapsed; parameters out of range")
    return G, K, z
