"""Closed-form subgroup expressions for third dimension and second Fox subgroups.

Every right-hand side the workbench verifies is built here as an
explicit Subgroup by direct enumeration: the commutator families U_m,
T_1, T_2, the power-condition sets V and W, the 2-primary correction
Z_2, the assembled third-dimension formulas (both the per-modulus form
and the sigma-decomposition form), the Fox formulas for n = 0, 1, 2,
and the generator-family enumeration behind the n = 2 description.

Exponents that range over the integers are enumerated over one full
period modulo the exponent of the relevant group; powers in a finite
group are periodic with that period.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps
from itertools import product as iproduct
from math import gcd, log2
from typing import Iterable, Sequence

from .abelian import Presentation, diagonal_rows
from .groups import (
    AbelianSection,
    FiniteGroup,
    GroupError,
    NSeries,
    Subgroup,
    abelian_quotient,
    centre,
    commutator_seeds,
    commutator_subgroup,
    generated_subgroup,
    join,
    lower_central_series,
    normal_subgroups,
    p_torsion_mod,
    power_subgroup,
    quotient_group,
    subgroup_exponent,
    subgroup_from_members,
    trivial_subgroup,
    whole_group,
)
from .groupring import CoeffRing

# budgets of the fox2 enumerations: fox2_formula enumerates at most
# FOX2_TUPLE_CAP exponent tuples, over at most FOX2_BUDGET_BITS bits of basis
# (r * log2(exponent)); fox2_generator_family keeps at most FAMILY_STATE_CAP
# scan states and obstruction classes
FOX2_BUDGET_BITS = 20
FOX2_TUPLE_CAP = 1 << 22
FAMILY_STATE_CAP = 1 << 17


class EnumerationCapError(GroupError):
    """A formula enumeration would exceed its configured budget."""


def _memoized(method):
    """Keep a FormulaContext method's value per argument in the context's _cache."""

    @wraps(method)
    def cached(ctx, *args):
        key = (method.__name__, *args)
        if key not in ctx._cache:
            ctx._cache[key] = method(ctx, *args)
        return ctx._cache[key]

    return cached


@dataclass
class FormulaContext:
    """The tuple (G, K, H, N, R) threaded through the closed formulas; each
    per-case subgroup the formulas share is built once per context."""

    G: FiniteGroup
    K: Subgroup
    ring: CoeffRing
    N: NSeries | None = None
    H: Subgroup | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.N is None:
            self.N = self.gamma()
        if self.H is None:
            self.H = whole_group(self.G)

    @property
    def m(self) -> int:
        return self.ring.modulus

    @_memoized
    def gamma(self) -> NSeries:
        return lower_central_series(self.G)

    def G2(self) -> Subgroup:
        return self.gamma().term(2)

    @_memoized
    def power_of_G(self, m: int) -> Subgroup:
        return power_subgroup(self.G, whole_group(self.G), m)

    @_memoized
    def KN2Gm(self, m: int) -> Subgroup:
        """The normal subgroup K N_2 G^m (contains [G, G])."""
        return join(self.G, [self.K, self.N.term(2), self.power_of_G(m)])

    @_memoized
    def KG2Gm(self, m: int) -> Subgroup:
        return join(self.G, [self.K, self.G2(), self.power_of_G(m)])

    @_memoized
    def U(self, m: int) -> Subgroup:
        return U_subgroup(self, m)

    @_memoized
    def U0N3(self) -> Subgroup:
        return join(self.G, [self.U(0), self.N.term(3)])

    @_memoized
    def H2(self) -> Subgroup:
        return commutator_subgroup(self.G, self.H, self.H)

    @_memoized
    def H3(self) -> Subgroup:
        return commutator_subgroup(self.G, self.H2(), self.H)

    @_memoized
    def H2Hm(self, m: int) -> Subgroup:
        return join(self.G, [self.H2(), power_subgroup(self.G, self.H, m)])


def _power_commutators(G: FiniteGroup, A: Iterable[int], M: frozenset[int]) -> Subgroup:
    """sgp{[a, b^k] : a, b in A with a^k and b^k in M}, k over one period."""
    pairs = []
    for ptab in G.power_rows():
        admissible = [a for a in A if ptab[a] in M]
        pairs.append((admissible, [ptab[b] for b in admissible]))
    return generated_subgroup(G, commutator_seeds(G, pairs))


def _power_preimage(G: FiniteGroup, A: Iterable[int], k: int, M: frozenset[int]) -> Subgroup:
    """{a in A : a^k in M}, asserted to be a subgroup."""
    ptab = G.power_rows()[k % G.exponent()]
    return subgroup_from_members(G, [a for a in A if ptab[a] in M])


def U_subgroup(ctx: FormulaContext, m: int) -> Subgroup:
    """sgp{[a, b^k] : a^k and b^k both fall into K N_2 G^m}."""
    return _power_commutators(ctx.G, ctx.G.elements(), ctx.KN2Gm(m).members)


def V_subgroup(ctx: FormulaContext, m: int) -> Subgroup:
    """{a : a^(m/2) in K N_2 G^m}; only defined for even m > 0."""
    if m <= 0 or m % 2:
        raise GroupError("V is defined for even m > 0")
    return _power_preimage(ctx.G, ctx.G.elements(), m // 2, ctx.KN2Gm(m).members)


def W_subgroup(ctx: FormulaContext, m: int) -> Subgroup:
    """{h in H : h^(m/2) in K G_2 G^m}; even m > 0."""
    if m <= 0 or m % 2:
        raise GroupError("W is defined for even m > 0")
    return _power_preimage(ctx.G, ctx.H.members, m // 2, ctx.KG2Gm(m).members)


def Z2_subgroup(ctx: FormulaContext, literal_exponent: bool = False) -> Subgroup:
    """The 2-primary factor of the sigma-decomposition formula.

    Trivial when 2 is not in sigma(R); otherwise
    t_2(G mod U_0 N_3) meet (U_q N_3 G^(2q) V^q) with q = 2^e(2), where
    V collects elements whose 2^(e-1)-th power falls into K N_2 G^q when
    e > 0, and V = G when e = 0.  With literal_exponent the printed
    exponent e(2)-1 is used as-is instead of 2^(e(2)-1).
    """
    G = ctx.G
    e = ctx.ring.sigma_exponent(2)
    if e is None:
        return trivial_subgroup(G)
    tors2 = p_torsion_mod(G, ctx.U0N3(), 2)
    q = 2**e
    if e == 0:
        V = whole_group(G)
    else:
        exp = (e - 1) if literal_exponent else 2 ** (e - 1)
        V = _power_preimage(G, G.elements(), exp, ctx.KN2Gm(q).members)
    bulk = join(G, [ctx.U(q), ctx.N.term(3), ctx.power_of_G(2 * q), power_subgroup(G, V, q)])
    return subgroup_from_members(G, tors2.members & bulk.members)


@dataclass
class Dim3Formula:
    """The closed third-dimension formula and whether its two routes agree."""

    result: Subgroup
    routes_agree: bool


def _primes_dividing(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def dim3_sigma_route(ctx: FormulaContext, literal_z2: bool = False) -> Subgroup:
    """U_0 N_3 Z_2 * prod over odd p in sigma(R) of the p-torsion factors.

    The product is restricted to primes dividing |G|: for p coprime to
    the order the torsion factor collapses into U_0 N_3.
    """
    G = ctx.G
    u0n3 = ctx.U0N3()
    parts = [u0n3, Z2_subgroup(ctx, literal_exponent=literal_z2)]
    for p in _primes_dividing(G.order):
        if p == 2:
            continue
        e = ctx.ring.sigma_exponent(p)
        if e is None:
            continue
        q = p**e
        tors = p_torsion_mod(G, u0n3, p)
        bulk = join(G, [ctx.U(q), ctx.N.term(3), ctx.power_of_G(q)])
        parts.append(subgroup_from_members(G, tors.members & bulk.members))
    return join(G, parts)


def dim3_per_modulus(ctx: FormulaContext) -> Subgroup:
    """The specialization to Z (m = 0) and Z/m coefficients."""
    if not ctx.ring.is_concrete:
        raise GroupError("per-modulus route needs Z or Z/m")
    G = ctx.G
    m = ctx.m
    n3 = ctx.N.term(3)
    if m == 0:
        return ctx.U0N3()
    if m % 2:
        return join(G, [ctx.U(m), n3, ctx.power_of_G(m)])
    V = V_subgroup(ctx, m)
    return join(
        G,
        [ctx.U(m), n3, ctx.power_of_G(2 * m), power_subgroup(G, V, m)],
    )


def dim3_formula(ctx: FormulaContext) -> Dim3Formula:
    """Evaluate the closed formula along both routes and cross-check.

    Abstract rings have only the sigma route, which is then the result.
    """
    sigma = dim3_sigma_route(ctx)
    if ctx.ring.is_concrete:
        per_mod = dim3_per_modulus(ctx)
        return Dim3Formula(per_mod, per_mod == sigma)
    return Dim3Formula(sigma, True)


# -- Fox subgroup formulas -----------------------------------------------------


def fox0_formula(ctx: FormulaContext) -> Subgroup:
    """The weight-0 relative Fox subgroup is H itself."""
    return ctx.H


def fox1_formula(ctx: FormulaContext) -> Subgroup:
    """H_2 * (p^e-th powers of the p-torsion of H mod H_2), or H_2 H^char."""
    G = ctx.G
    h2 = ctx.H2()
    n_r = ctx.ring.characteristic
    if n_r > 0:
        return ctx.H2Hm(n_r)
    parts = [h2]
    if ctx.ring.kind == "integers":
        return h2
    for p in _primes_dividing(G.order):
        e = ctx.ring.sigma_exponent(p)
        if e is None:
            continue
        tors = p_torsion_mod(G, h2, p, within=ctx.H)
        parts.append(power_subgroup(G, tors, p**e))
    return join(G, parts)


def _binom2(m: int) -> int:
    return m * (m - 1) // 2


def fox2_formula(
    ctx: FormulaContext,
    decomposition: AbelianSection | None = None,
) -> Subgroup:
    """The finitely-generated-basis description of the second Fox subgroup.

    Pick any basis h_1..h_r of H/(H_2 H^m) with orders d_k; a generator
    prod_{i<j} [h_i,h_j]^a_ij * (prod h_l^b_l)^m is accepted when, for
    every k, the acceptance word
    h_k^(C b_k^2) * prod_{i<k} h_i^(a_ik + C b_i b_k)
    * prod_{j>k} h_j^(-a_kj + C b_j b_k)   (C = m(m-1)/2)
    falls into K G_2 G^(d_k).  The result multiplies the generated
    subgroup by H_3 H^(m^2).  Exponent tuples are enumerated modulo the
    exponent of H, which is a full period.
    """
    G = ctx.G
    H = ctx.H
    m = ctx.m
    if not ctx.ring.is_concrete:
        raise GroupError("fox2 needs Z or Z/m")
    if decomposition is None:
        decomposition = abelian_quotient(G, H, ctx.H2Hm(m))
    d = decomposition.invariants
    reps = decomposition.reps
    r = len(d)
    E = subgroup_exponent(H)
    if r and r * log2(max(E, 2)) > FOX2_BUDGET_BITS:
        raise EnumerationCapError(
            f"fox2 enumeration budget exceeded: r={r}, exponent={E}"
        )
    ntuples = E ** (r + r * (r - 1) // 2)
    if ntuples > FOX2_TUPLE_CAP:
        raise EnumerationCapError(f"fox2 enumeration needs {ntuples} tuples")
    C = _binom2(m)
    targets = [ctx.KG2Gm(dk).members for dk in d]
    powers = G.power_rows()
    ex = len(powers)
    comms = [[G.comm(reps[i], reps[j]) for j in range(r)] for i in range(r)]
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    seeds: set[int] = set()
    for a in iproduct(range(E), repeat=len(pairs)):
        aij = {}
        for (i, j), v in zip(pairs, a):
            aij[(i, j)] = v
        for b in iproduct(range(E), repeat=r):
            ok = True
            for k in range(r):
                word = powers[C * b[k] * b[k] % ex][reps[k]]
                for i in range(k):
                    word = G.mul(word, powers[(aij[(i, k)] + C * b[i] * b[k]) % ex][reps[i]])
                for j in range(k + 1, r):
                    word = G.mul(word, powers[(C * b[j] * b[k] - aij[(k, j)]) % ex][reps[j]])
                if word not in targets[k]:
                    ok = False
                    break
            if not ok:
                continue
            gen = G.identity
            for (i, j), v in zip(pairs, a):
                gen = G.mul(gen, powers[v][comms[i][j]])
            g = G.identity
            for l in range(r):
                g = G.mul(g, powers[b[l]][reps[l]])
            seeds.add(G.mul(gen, G.power(g, m)))
    smfg = generated_subgroup(G, seeds)
    return join(G, [smfg, ctx.H3(), power_subgroup(G, H, m * m)])


def fox2_generator_family(
    ctx: FormulaContext,
    cap: int = 8,
    elem_order: Sequence[int] | None = None,
) -> Subgroup:
    """The element-indexed generator family for the second Fox subgroup.

    Generators are indexed by exponent tuples a: H x H -> Z/E and
    b: H -> Z/E (E = exponent of H): the element
    prod_{(h,k)} [h,k]^a_hk * (prod_l l^b_l)^m is accepted when for
    every k in H some d >= 0 has k^d in H_2 H^m and
    prod_h h^(a_hk - a_kh + C b_h b_k) in K G_2 G^d.

    The witness exponent resolves to d_k = order of k in H/(H_2 H^m):
    valid witnesses are exactly the multiples of d_k (0 included), and
    the membership target K G_2 G^d is largest at d = d_k itself.

    The tuple space is astronomically large, but the generated subgroup
    is computed exactly: [H, H] is abelian for |H| <= 8, so the
    commutator-letter product is order-independent and a homomorphism
    of the a-block, whose joint reachability with the acceptance words
    is a single lattice; the b-block is folded by a forward scan over H
    in a fixed order (elem_order), merging states with equal
    (partial product, obstruction) pairs.  Every accepted tuple's value
    is realized by some surviving state, so the value set is exact.
    """
    G = ctx.G
    H = ctx.H
    m = ctx.m
    helems = sorted(H.members)
    if len(helems) > cap:
        raise EnumerationCapError(f"generator family capped at |H| <= {cap}")
    E = subgroup_exponent(H)
    C = _binom2(m)
    h2 = ctx.H2()
    h2elems = sorted(h2.members)
    if not commutator_subgroup(G, h2, h2).is_trivial():
        raise EnumerationCapError("commutator letters do not commute; |H| too large")
    h2hm = ctx.H2Hm(m).members
    powers = G.power_rows()
    ex = len(powers)
    # order of k modulo H_2 H^m, the canonical witness exponent (k^ex = 1 ends the search)
    d_of = {k: next(t for t in range(1, ex + 1) if powers[t % ex][k] in h2hm) for k in helems}
    sections: dict[int, AbelianSection] = {}
    for k in helems:
        dk = d_of[k]
        if dk not in sections:
            M = ctx.KG2Gm(dk)
            sections[dk] = abelian_quotient(G, whole_group(G), M)
    # obstruction ambient: coords of [H,H] basis + one block per condition k
    h2_section = abelian_quotient(G, h2, trivial_subgroup(G)) if len(h2) > 1 else None
    h2_dims = list(h2_section.invariants) if h2_section else []

    cond_elems = [k for k in helems if sections[d_of[k]].invariants]
    block_dims: list[int] = list(h2_dims)
    block_at: dict[int, int] = {}
    for k in cond_elems:
        block_at[k] = len(block_dims)
        block_dims.extend(sections[d_of[k]].invariants)
    total_dim = len(block_dims)

    def cond_coords(k: int, g: int) -> tuple[int, ...]:
        return sections[d_of[k]].coords(g)

    # relation rows: moduli, plus one reachability row per ordered pair
    relations = diagonal_rows(block_dims)
    for h in helems:
        for k in helems:
            if h == k:
                continue
            row = [0] * total_dim
            if h2_section is not None:
                c = G.comm(h, k)
                for i, x in enumerate(h2_section.coords(c)):
                    row[i] = x
            if k in block_at:
                for i, x in enumerate(cond_coords(k, h)):
                    row[block_at[k] + i] += x
            if h in block_at:
                for i, x in enumerate(cond_coords(h, k)):
                    row[block_at[h] + i] -= x
            relations.append(row)
    pres = Presentation(relations, total_dim)
    Cgrp = pres.group
    if Cgrp.is_finite and Cgrp.size > FAMILY_STATE_CAP:
        raise EnumerationCapError("obstruction quotient too large")

    order = list(elem_order) if elem_order is not None else helems
    if sorted(order) != helems:
        raise GroupError("elem_order must be a permutation of H")

    seeds: set[int] = set()
    for g_target in helems:
        # contribution of b_k to the obstruction, given the final product
        contrib = {}
        for k in helems:
            row = [0] * total_dim
            if k in block_at and C:
                for i, x in enumerate(cond_coords(k, g_target)):
                    row[block_at[k] + i] = C * x
            contrib[k] = pres.push(row)
        # scan b over H in the fixed order, merging equal states
        states: dict[tuple[int, tuple[int, ...]], None] = {(G.identity, Cgrp.zero()): None}
        for l in order:
            nxt: dict[tuple[int, tuple[int, ...]], None] = {}
            obs_step = contrib[l]
            obs = Cgrp.zero()
            for t in range(E):
                lp = powers[t][l]
                for (p, o) in states:
                    key = (G.mul(p, lp), Cgrp.add(o, obs))
                    nxt[key] = None
                obs = Cgrp.add(obs, obs_step)
                if len(nxt) > FAMILY_STATE_CAP:
                    raise EnumerationCapError("state budget exceeded")
            states = nxt
        gm = G.power(g_target, m)
        for (p, o) in states:
            if p != g_target:
                continue
            # accept letter products w whose combined class matches the
            # accumulated b-obstruction: (w, -T_b) lies in the image of
            # the a-block map exactly when psi(w, 0) = psi(0, T_b)
            for w in h2elems:
                row = [0] * total_dim
                if h2_section is not None:
                    for i, x in enumerate(h2_section.coords(w)):
                        row[i] = x
                if pres.push(row) == o:
                    seeds.add(G.mul(w, gm))
    return generated_subgroup(G, seeds)


def remark_lower_bound(ctx: FormulaContext) -> Subgroup:
    """H_3 V_H T_1 T_2: the directly-verifiable lower bound for n = 2."""
    G = ctx.G
    H = ctx.H
    m = ctx.m
    if m % 2 or m == 0:  # H^m, trivial at m = 0
        vh = power_subgroup(G, H, m)
    else:
        vh = join(G, [power_subgroup(G, H, 2 * m), power_subgroup(G, W_subgroup(ctx, m), m)])
    M = ctx.KG2Gm(m).members
    T1 = _power_commutators(G, H.members, M)
    # T_2 pairs h in H with h^q in H_2 against k in H with k in K G_2 G^m G^q,
    # which is K G_2 G^gcd(m, q) because G/G_2 is abelian
    h2 = ctx.H2().members
    h_in_M = [h for h in H.members if h in M]
    t2_pairs = []
    for q, ptab in enumerate(G.power_rows()):
        target = ctx.KG2Gm(gcd(m, q)).members
        t2_pairs.append(([h for h in h_in_M if ptab[h] in h2], [k for k in H.members if k in target]))
    T2 = generated_subgroup(G, commutator_seeds(G, t2_pairs))
    return join(G, [ctx.H3(), vh, T1, T2])


def corollary_hypotheses(G: FiniteGroup, K: Subgroup) -> dict[str, bool]:
    """The five sufficient conditions under which the lower-central third
    dimension subgroup collapses onto K_2 G_3.

    Torsion-freeness is tested literally; on finite groups it, like
    divisibility, can only hold for trivial quotients.
    """
    gamma = lower_central_series(G)
    G2, G3 = gamma.term(2), gamma.term(3)
    KG = whole_group(G)
    cond1 = G3.contains_subgroup(commutator_subgroup(G, K, KG))
    cond2 = False
    zg = centre(G)
    for N in normal_subgroups(G):
        if len(N) * len(K) < G.order:
            continue
        prod = {G.mul(n, k) for n in N.members for k in K.members}
        if len(prod) == G.order and (N.members & K.members) <= zg.members:
            cond2 = True
            break
    cond3 = False
    if K.is_normal():
        Q, _, _ = quotient_group(G, K)
        cond3 = any(Q.order_of(g) == Q.order for g in Q.elements())
    k2g3 = join(G, [commutator_subgroup(G, K, K), G3])
    q1 = G.order // len(k2g3)
    gk_g3 = join(G, [commutator_subgroup(G, KG, K), G3])
    q2 = len(gk_g3) // len(k2g3)
    kg2 = join(G, [K, G2])
    q3 = G.order // len(kg2)
    cond4 = q1 == 1 or q2 == 1 or q3 == 1
    # divisibility of K G_2 / G_2: a nontrivial finite abelian group has an element
    # of order p for each prime p dividing its order, so it is never p-divisible
    cond5 = len(kg2) == len(G2)
    return {
        "central_commutator": cond1,
        "central_complement": cond2,
        "cyclic_quotient": cond3,
        "torsion_free_quotient": cond4,
        "divisible_image": cond5,
    }
