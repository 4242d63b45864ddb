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
from itertools import product as iproduct
from math import log2
from typing import Sequence

from .abelian import FgAb, Presentation
from .groups import (
    AbelianSection,
    FiniteGroup,
    GroupError,
    NSeries,
    Subgroup,
    abelian_quotient,
    centre,
    commutator_subgroup,
    generated_subgroup,
    join,
    lower_central_series,
    normal_subgroups,
    p_torsion_mod,
    power_subgroup,
    quotient_group,
    subgroup_as_group,
    subgroup_exponent,
    subgroup_from_members,
    trivial_subgroup,
    whole_group,
)
from .groupring import CoeffRing


class EnumerationCapError(GroupError):
    """A formula enumeration would exceed its configured budget."""


@dataclass
class FormulaContext:
    """The tuple (G, K, H, N, R) threaded through the closed formulas."""

    G: FiniteGroup
    K: Subgroup
    ring: CoeffRing
    N: NSeries | None = None
    H: Subgroup | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.N is None:
            self.N = lower_central_series(self.G)
        if self.H is None:
            self.H = whole_group(self.G)

    @property
    def m(self) -> int:
        return self.ring.modulus

    def gamma(self) -> NSeries:
        if "gamma" not in self._cache:
            self._cache["gamma"] = lower_central_series(self.G)
        return self._cache["gamma"]

    def G2(self) -> Subgroup:
        return self.gamma().term(2)

    def power_of_G(self, m: int) -> Subgroup:
        key = ("Gm", m)
        if key not in self._cache:
            self._cache[key] = power_subgroup(self.G, whole_group(self.G), m)
        return self._cache[key]

    def KN2Gm(self, m: int) -> Subgroup:
        """The normal subgroup K N_2 G^m (contains [G, G])."""
        key = ("KN2Gm", m)
        if key not in self._cache:
            self._cache[key] = join(self.G, [self.K, self.N.term(2), self.power_of_G(m)])
        return self._cache[key]

    def KG2Gm(self, m: int) -> Subgroup:
        key = ("KG2Gm", m)
        if key not in self._cache:
            self._cache[key] = join(self.G, [self.K, self.G2(), self.power_of_G(m)])
        return self._cache[key]


def _power_table(G: FiniteGroup) -> list[list[int]]:
    """pow_table[k][g] = g^k for k in [0, exponent)."""
    e = G.exponent()
    table = [[G.identity] * G.order]
    for _ in range(1, e):
        prev = table[-1]
        table.append([G.mul(prev[g], g) for g in G.elements()])
    return table


def U_subgroup(ctx: FormulaContext, m: int) -> Subgroup:
    """sgp{[a, b^k] : a^k and b^k both fall into K N_2 G^m}."""
    G = ctx.G
    M = ctx.KN2Gm(m).members
    powers = _power_table(G)
    seeds: set[int] = set()
    for ptab in powers:
        admissible = [g for g in G.elements() if ptab[g] in M]
        for a in admissible:
            for b in admissible:
                seeds.add(G.comm(a, ptab[b]))
    return generated_subgroup(G, seeds)


def V_subgroup(ctx: FormulaContext, m: int) -> Subgroup:
    """{a : a^(m/2) in K N_2 G^m}; only defined for even m > 0."""
    if m <= 0 or m % 2:
        raise GroupError("V is defined for even m > 0")
    G = ctx.G
    M = ctx.KN2Gm(m).members
    members = [a for a in G.elements() if G.power(a, m // 2) in M]
    return subgroup_from_members(G, members)


def W_subgroup(ctx: FormulaContext, m: int) -> Subgroup:
    """{h in H : h^(m/2) in K G_2 G^m}; even m > 0."""
    if m <= 0 or m % 2:
        raise GroupError("W is defined for even m > 0")
    G = ctx.G
    M = ctx.KG2Gm(m).members
    members = [h for h in ctx.H.members if G.power(h, m // 2) in M]
    return subgroup_from_members(G, members)


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
    u0n3 = join(G, [U_subgroup(ctx, 0), ctx.N.term(3)])
    tors2 = p_torsion_mod(G, u0n3, 2)
    q = 2**e
    if e == 0:
        V = whole_group(G)
    else:
        exp = (e - 1) if literal_exponent else 2 ** (e - 1)
        M = ctx.KN2Gm(q).members
        V = subgroup_from_members(
            G, [g for g in G.elements() if G.power(g, exp) in M]
        )
    bulk = join(
        G,
        [
            U_subgroup(ctx, q),
            ctx.N.term(3),
            ctx.power_of_G(2 * q),
            power_subgroup(G, V, q),
        ],
    )
    members = tors2.members & bulk.members
    return subgroup_from_members(G, members)


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
    u0n3 = join(G, [U_subgroup(ctx, 0), ctx.N.term(3)])
    parts = [u0n3, Z2_subgroup(ctx, literal_exponent=literal_z2)]
    for p in _primes_dividing(G.order):
        if p == 2:
            continue
        e = ctx.ring.sigma_exponent(p)
        if e is None:
            continue
        q = p**e
        tors = p_torsion_mod(G, u0n3, p)
        bulk = join(G, [U_subgroup(ctx, q), ctx.N.term(3), ctx.power_of_G(q)])
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
        return join(G, [U_subgroup(ctx, 0), n3])
    if m % 2:
        return join(G, [U_subgroup(ctx, m), n3, ctx.power_of_G(m)])
    V = V_subgroup(ctx, m)
    return join(
        G,
        [U_subgroup(ctx, m), n3, ctx.power_of_G(2 * m), power_subgroup(G, V, m)],
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
    H = ctx.H
    h2 = commutator_subgroup(G, H, H)
    n_r = ctx.ring.characteristic
    if n_r > 0:
        return join(G, [h2, power_subgroup(G, H, n_r)])
    parts = [h2]
    if ctx.ring.kind == "integers":
        return h2
    for p in _primes_dividing(G.order):
        e = ctx.ring.sigma_exponent(p)
        if e is None:
            continue
        tors = p_torsion_mod(G, h2, p, within=H)
        parts.append(power_subgroup(G, tors, p**e))
    return join(G, parts)


def _binom2(m: int) -> int:
    return m * (m - 1) // 2


def fox2_formula(
    ctx: FormulaContext,
    decomposition: AbelianSection | None = None,
    budget: int = 20,
    tuple_cap: int = 1 << 22,
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
    h2 = commutator_subgroup(G, H, H)
    h2hm = join(G, [h2, power_subgroup(G, H, m)])
    if decomposition is None:
        decomposition = abelian_quotient(G, H, h2hm)
    d = decomposition.invariants
    reps = decomposition.reps
    r = len(d)
    E = subgroup_exponent(H)
    if r and r * log2(max(E, 2)) > budget:
        raise EnumerationCapError(
            f"fox2 enumeration budget exceeded: r={r}, exponent={E}"
        )
    ntuples = E ** (r + r * (r - 1) // 2)
    if ntuples > tuple_cap:
        raise EnumerationCapError(f"fox2 enumeration needs {ntuples} tuples")
    C = _binom2(m)
    targets = [ctx.KG2Gm(dk).members for dk in d]
    # precompute rep powers mod element orders
    rep_pow = []
    for h in reps:
        o = G.order_of(h)
        row = [G.identity]
        for _ in range(1, o):
            row.append(G.mul(row[-1], h))
        rep_pow.append((o, row))

    def hp(i: int, e: int) -> int:
        o, row = rep_pow[i]
        return row[e % o]

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
                word = hp(k, C * b[k] * b[k])
                for i in range(k):
                    word = G.mul(word, hp(i, aij[(i, k)] + C * b[i] * b[k]))
                for j in range(k + 1, r):
                    word = G.mul(word, hp(j, -aij[(k, j)] + C * b[j] * b[k]))
                if word not in targets[k]:
                    ok = False
                    break
            if not ok:
                continue
            gen = G.identity
            for (i, j), v in zip(pairs, a):
                gen = G.mul(gen, G.power(comms[i][j], v))
            g = G.identity
            for l in range(r):
                g = G.mul(g, hp(l, b[l]))
            seeds.add(G.mul(gen, G.power(g, m)))
    smfg = generated_subgroup(G, seeds)
    h3 = commutator_subgroup(G, h2, H)
    return join(G, [smfg, h3, power_subgroup(G, H, m * m)])


def fox2_generator_family(
    ctx: FormulaContext,
    cap: int = 8,
    state_cap: int = 1 << 17,
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
    h2 = commutator_subgroup(G, H, H)
    h2sub, h2elems = subgroup_as_group(G, h2)
    if not h2sub.is_abelian():
        raise EnumerationCapError("commutator letters do not commute; |H| too large")
    h2hm = join(G, [h2, power_subgroup(G, H, m)])

    # order of k modulo H_2 H^m: the canonical witness exponent
    def order_mod(k: int) -> int:
        x, t = k, 1
        while x not in h2hm.members:
            x = G.mul(x, k)
            t += 1
        return t

    d_of = {k: order_mod(k) for k in helems}
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
    relations: list[list[int]] = []
    for i, dd in enumerate(block_dims):
        row = [0] * total_dim
        row[i] = dd
        relations.append(row)
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
    if Cgrp.is_finite and Cgrp.size > state_cap:
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
            lp = G.identity
            obs_step = contrib[l]
            obs = Cgrp.zero()
            for t in range(E):
                for (p, o) in states:
                    key = (G.mul(p, lp), Cgrp.add(o, obs))
                    nxt[key] = None
                lp = G.mul(lp, l)
                obs = Cgrp.add(obs, obs_step)
                if len(nxt) > state_cap:
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
    h2 = commutator_subgroup(G, H, H)
    h3 = commutator_subgroup(G, h2, H)
    if m == 0 or m % 2 == 0:
        if m == 0:
            vh = trivial_subgroup(G)
        else:
            vh = join(
                G,
                [
                    power_subgroup(G, H, 2 * m),
                    power_subgroup(G, W_subgroup(ctx, m), m),
                ],
            )
    else:
        vh = power_subgroup(G, H, m)
    M = ctx.KG2Gm(m).members
    powers = _power_table(G)
    t1_seeds: set[int] = set()
    for ptab in powers:
        admissible = [h for h in H.members if ptab[h] in M]
        for h in admissible:
            for k in admissible:
                t1_seeds.add(G.comm(h, ptab[k]))
    T1 = generated_subgroup(G, t1_seeds)
    t2_seeds: set[int] = set()
    h_in_M = [h for h in H.members if h in M]
    for ptab, q in zip(powers, range(len(powers))):
        MGq = join(G, [ctx.KG2Gm(m), ctx.power_of_G(q)]).members
        k_admiss = [k for k in H.members if k in MGq]
        for h in h_in_M:
            if ptab[h] in h2.members:
                for k in k_admiss:
                    t2_seeds.add(G.comm(h, k))
    T2 = generated_subgroup(G, t2_seeds)
    return join(G, [h3, vh, T1, T2])


def corollary_hypotheses(G: FiniteGroup, K: Subgroup) -> dict[str, bool]:
    """The five sufficient conditions under which the lower-central third
    dimension subgroup collapses onto K_2 G_3.

    Torsion-freeness and divisibility are tested literally; on finite
    groups they can only hold for trivial quotients.
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
    # divisibility of K G_2 / G_2: every element a p-th power, all p | order
    kg2_over_g2_size = len(kg2) // len(G2)
    cond5 = True
    if kg2_over_g2_size > 1:
        sec = abelian_quotient(G, kg2, G2)
        A = FgAb(sec.invariants)
        for p in _primes_dividing(kg2_over_g2_size):
            pA = {A.smul(p, a) for a in A.elements()}
            if len(pA) != A.size:
                cond5 = False
                break
    return {
        "central_commutator": cond1,
        "central_complement": cond2,
        "cyclic_quotient": cond3,
        "torsion_free_quotient": cond4,
        "divisible_image": cond5,
    }
