"""Closed-form subgroup expressions for third dimension and second Fox subgroups.

Every right-hand side the workbench verifies is built here as an
explicit Subgroup: the commutator families U_m, T_1, T_2 and the
power-condition sets V and W, from the group layer's commutator, power
and power-preimage subgroups; the 2-primary correction Z_2; the assembled
third-dimension formulas (both the per-modulus form and the
sigma-decomposition form); the Fox formulas for n = 0, 1, 2; and the
generator-family enumeration behind the n = 2 description.

Exponents that range over the integers are enumerated over one full
period modulo the exponent of the relevant group, as powers in a finite
group are periodic with that period; the commutator families need only
the divisors of the exponent (_build_power_commutators).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import gcd
from typing import Sequence

from .abelian import FgAb, Presentation, diagonal_rows
from .groups import (
    AbelianSection,
    CoeffRing,
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
    power_preimage,
    power_subgroup,
    quotient_group,
    subgroup_exponent,
    subgroup_from_members,
    trivial_subgroup,
    whole_group,
)

# budgets of the fox2 enumerations: fox2_formula enumerates at most
# FOX2_TUPLE_CAP exponent tuples; fox2_generator_family runs for |H| at most
# FOX_FAMILY_CAP and keeps at most FAMILY_STATE_CAP scan states and
# obstruction classes.  These are the measured costs that bound what dimfox
# certifies under the group order cap, not the brute side: fox --n 2 on
# dihedral:128 with H = G enumerates 2,097,152 tuples and took 15 s on a
# 2-core x86-64 host, where its brute slice took 0.03 s.
FOX2_TUPLE_CAP = 1 << 22
# The |H| cap is a real time and memory guard: with H = G at order 64-81 a
# case took up to 22 s (0.03-0.14 s by brute force), and class2:3,1 (order
# 729) builds 530,712 relation rows before the structural guards
# ([H_2, H_2] = 1, FAMILY_STATE_CAP) are read, and did not finish.
FOX_FAMILY_CAP = 8
FAMILY_STATE_CAP = 1 << 17


class EnumerationCapError(GroupError):
    """A formula enumeration would exceed its configured budget."""


@dataclass
class FormulaContext:
    """The tuple (G, K, H, N, R) threaded through the closed formulas.

    The subgroups the formulas share (K N_2 G^m, H_2, ...) are joins,
    commutator and power subgroups, which G keeps in its memo of subgroup
    facts, so each is built once per group and read again on every later
    case; the whole group and its lower central series are facts of G too.
    A context keeps nothing of its own.
    """

    G: FiniteGroup
    K: Subgroup
    ring: CoeffRing
    series: NSeries | None = None
    H: Subgroup | None = None

    def __post_init__(self):
        if self.H is None:
            self.H = whole_group(self.G)

    @property
    def N(self) -> NSeries:
        """The given series, or the lower central series, which G keeps."""
        return self.series if self.series is not None else lower_central_series(self.G)

    @property
    def m(self) -> int:
        if not self.ring.is_concrete:
            raise GroupError(f"this formula needs Z or Z/m, not sigma {dict(self.ring.sigma)}")
        return self.ring.modulus

    def G2(self) -> Subgroup:
        return lower_central_series(self.G).term(2)

    def KN2Gm(self, m: int) -> Subgroup:
        """The normal subgroup K N_2 G^m (contains [G, G])."""
        return join(self.G, [self.K, self.N.term(2), power_subgroup(self.G, whole_group(self.G), m)])

    def KG2Gm(self, m: int) -> Subgroup:
        return join(self.G, [self.K, self.G2(), power_subgroup(self.G, whole_group(self.G), m)])

    def U0N3(self) -> Subgroup:
        return join(self.G, [U_subgroup(self, 0), self.N.term(3)])

    def H2(self) -> Subgroup:
        return commutator_subgroup(self.G, self.H, self.H)

    def H3(self) -> Subgroup:
        return commutator_subgroup(self.G, self.H2(), self.H)

    def H2Hm(self, m: int) -> Subgroup:
        return join(self.G, [self.H2(), power_subgroup(self.G, self.H, m)])


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _power_commutators(G: FiniteGroup, A: Subgroup, M: Subgroup) -> Subgroup:
    """sgp{[a, b^k] : a, b in A with a^k and b^k in M}, k over one period,
    for a subgroup A and a normal M >= G_2; a pure function of (G, A, M),
    kept on G."""
    return G.fact(_build_power_commutators, A, M)


def _build_power_commutators(G: FiniteGroup, A: Subgroup, M: Subgroup) -> Subgroup:
    """The join over the divisors d of e = exp(G) of [A_d, A_d^(d)], with
    A_k = {a in A : a^k in M} and A_k^(k) = sgp{b^k : b in A_k}.

    Proof.  G/M is abelian, as M >= G_2, so a -> a^k M is a homomorphism
    and A_k is a subgroup, normal in A (power_preimage).  For k fixed the
    seeds are [a, c] with a in A_k and c in P_k = {b^k : b in A_k}, and P_k
    is closed under conjugation by A_k, as ^y(b^k) = (^y b)^k.  By
    [a, yz] = [a, y] ^y[a, z] and ^y[a, c] = [^y a, ^y c], induction on the
    length of y as a word in P_k puts every [a, y], y in sgp(P_k) =
    A_k^(k), in the subgroup the seeds generate; so it is [A_k, A_k^(k)].
    With d = gcd(k, e) = uk + ve, a^d = (a^k)^u and a^k = (a^d)^(k/d), so
    A_k = A_d and A_k^(k) = A_d^(d): only the divisors d of e matter, and
    d = e is skipped, as A_e^(e) = 1.
    """
    parts = []
    for d in _divisors(G.exponent())[:-1]:
        Ad = power_preimage(G, A, d, M)
        parts.append(commutator_subgroup(G, Ad, power_subgroup(G, Ad, d)))
    return join(G, parts)


def U_subgroup(ctx: FormulaContext, m: int) -> Subgroup:
    """sgp{[a, b^k] : a^k and b^k both fall into K N_2 G^m}."""
    return _power_commutators(ctx.G, whole_group(ctx.G), ctx.KN2Gm(m))


def V_subgroup(ctx: FormulaContext, m: int) -> Subgroup:
    """{a : a^(m/2) in K N_2 G^m}; only defined for even m > 0."""
    if m <= 0 or m % 2:
        raise GroupError("V is defined for even m > 0")
    return power_preimage(ctx.G, whole_group(ctx.G), m // 2, ctx.KN2Gm(m))


def W_subgroup(ctx: FormulaContext, m: int) -> Subgroup:
    """{h in H : h^(m/2) in K G_2 G^m}; even m > 0."""
    if m <= 0 or m % 2:
        raise GroupError("W is defined for even m > 0")
    return power_preimage(ctx.G, ctx.H, m // 2, ctx.KG2Gm(m))


def Z2_subgroup(ctx: FormulaContext) -> Subgroup:
    """The 2-primary factor of the sigma-decomposition formula.

    Trivial when 2 is not in sigma(R); otherwise
    t_2(G mod U_0 N_3) meet (U_q N_3 V^q) with q = 2^e(2), where V
    collects the elements whose 2^(e-1)-th power falls into K N_2 G^q when
    e > 0, and V = G when e = 0.

    The paper prints the join as U_q N_3 G^(2q) V^q, with the exponent
    e(2) - 1 for V.  Read as 2^(e-1) = q/2, the term G^(2q) lies in V^q:
    for b in G, (b^2)^(q/2) = b^q is in G^q <= K N_2 G^q, so b^2 is in V
    and b^(2q) = (b^2)^q in V^q; at e = 0, V = G and G^2 <= V^q = G.  So
    the term is dropped.  The printed exponent e - 1 gives no such proof,
    and disagrees with brute force (the tests keep the printed form as an
    oracle for both facts).
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
        V = power_preimage(G, whole_group(G), 2 ** (e - 1), ctx.KN2Gm(q))
    bulk = join(G, [U_subgroup(ctx, q), ctx.N.term(3), power_subgroup(G, V, q)])
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


def dim3_sigma_route(ctx: FormulaContext) -> Subgroup:
    """U_0 N_3 Z_2 * prod over odd p in sigma(R) of the p-torsion factors.

    The product is restricted to primes dividing |G|: for p coprime to
    the order the torsion factor collapses into U_0 N_3.
    """
    G = ctx.G
    u0n3 = ctx.U0N3()
    parts = [u0n3, Z2_subgroup(ctx)]
    for p in _primes_dividing(G.order):
        if p == 2:
            continue
        e = ctx.ring.sigma_exponent(p)
        if e is None:
            continue
        q = p**e
        tors = p_torsion_mod(G, u0n3, p)
        bulk = join(G, [U_subgroup(ctx, q), ctx.N.term(3), power_subgroup(G, whole_group(G), q)])
        parts.append(subgroup_from_members(G, tors.members & bulk.members))
    return join(G, parts)


def dim3_per_modulus(ctx: FormulaContext) -> Subgroup:
    """The specialization to Z (m = 0) and Z/m coefficients.

    For even m the paper's join U_m N_3 G^(2m) V^m has no G^(2m) here: for
    b in G, (b^2)^(m/2) = b^m is in G^m <= K N_2 G^m, so b^2 is in
    V = {a : a^(m/2) in K N_2 G^m} and b^(2m) = (b^2)^m in V^m.
    """
    G = ctx.G
    m = ctx.m
    n3 = ctx.N.term(3)
    if m == 0:
        return ctx.U0N3()
    if m % 2:
        return join(G, [U_subgroup(ctx, m), n3, power_subgroup(G, whole_group(G), m)])
    return join(G, [U_subgroup(ctx, m), n3, power_subgroup(G, V_subgroup(ctx, m), m)])


def dim3_formula(ctx: FormulaContext) -> Dim3Formula:
    """Evaluate the closed formula along both routes and cross-check.

    A sigma ring has only the sigma route, which is then the result.
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
    if ctx.ring.modulus:
        return ctx.H2Hm(ctx.ring.modulus)
    G = ctx.G
    h2 = ctx.H2()
    parts = [h2]
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
    if decomposition is None:
        decomposition = abelian_quotient(G, H, ctx.H2Hm(m))
    d = decomposition.invariants
    reps = decomposition.reps
    r = len(d)
    E = subgroup_exponent(H)
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


def _family_scan(
    G: FiniteGroup,
    Cgrp: FgAb,
    order: Sequence[int],
    signature: Sequence[tuple[int, ...]],
    E: int,
) -> dict[tuple[int, ...], set[int]]:
    """The b-scan of fox2_generator_family for one obstruction signature.

    Returns, for each obstruction class o, the partial products
    prod_l l^b_l reached with accumulated obstruction o, over every
    b: H -> Z/E, letters taken in `order` and letter l adding b_l times
    signature[l's position].
    """
    powers = G.power_rows()
    cols = G.mul_cols()
    states: dict[tuple[int, ...], set[int]] = {Cgrp.zero(): {G.identity}}
    for l, step in zip(order, signature):
        nxt: dict[tuple[int, ...], set[int]] = {}
        shift = Cgrp.zero()
        for t in range(E):
            col = cols[powers[t][l]]
            for o, reached in states.items():
                key = Cgrp.add(o, shift)
                moved = {col[p] for p in reached}
                if key in nxt:
                    nxt[key] |= moved
                else:
                    nxt[key] = moved
            shift = Cgrp.add(shift, step)
        if sum(map(len, nxt.values())) > FAMILY_STATE_CAP:
            raise EnumerationCapError("state budget exceeded")
        states = nxt
    return states


def fox2_generator_family(
    ctx: FormulaContext,
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
    is computed exactly: the guard [H_2, H_2] = 1 (checked below; the
    family is refused otherwise) makes the commutator-letter product
    order-independent and a homomorphism of the a-block, whose joint
    reachability with the acceptance words is a single lattice; the
    b-block is folded by a forward scan over H in a fixed order
    (elem_order), merging states with equal (partial product,
    obstruction) pairs.  Every accepted tuple's value is realized by
    some surviving state, so the value set is exact.  The enumeration
    runs for |H| <= FOX_FAMILY_CAP only.

    Each condition section G/(K G_2 G^d) is A/dA for the one abelian
    section A = G/(K G_2), since G^d maps onto dA.  With A = + Z/a_i in
    invariant-factor form, A/dA = + Z/gcd(a_i, d), and a coordinate of A
    reduces mod gcd(a_i, d).  The factors with gcd 1 come first in the
    chain, so dropping them leaves an invariant-factor form.

    One scan serves every target with the same obstruction signature.
    - The scan for a final product g reads g only through the pushed
      contributions contrib_g[l] = psi(C * coords_{d_l}(g) in block l),
      so targets with equal tuples (contrib_g[l] for l in elem_order)
      share one scan (_family_scan).
    - The scan keeps, for each obstruction class o, the set of reachable
      partial products; g is accepted with class o when g lies in
      states[o].  Each distinct o is shifted by each t * contrib[l] once.
    - The letter products w in H_2 are indexed by psi(w, 0) once per call.
    - The state budget counts (partial product, class) pairs after each
      letter.  Within a letter the pairs only accumulate, so this refuses
      exactly the inputs that a check after each exponent t refuses.
    """
    G = ctx.G
    H = ctx.H
    m = ctx.m
    helems = sorted(H.members)
    if len(helems) > FOX_FAMILY_CAP:
        raise EnumerationCapError(f"generator family capped at |H| <= {FOX_FAMILY_CAP}")
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
    # the condition sections G/(K G_2 G^d), read from A = G/(K G_2)
    A = abelian_quotient(G, whole_group(G), ctx.KG2Gm(0))
    moduli = {d: [gcd(a, d) for a in A.invariants] for d in set(d_of.values())}
    # obstruction ambient: coords of [H,H] basis + one block per condition k
    h2_section = abelian_quotient(G, h2, trivial_subgroup(G)) if len(h2) > 1 else None
    h2_dims = list(h2_section.invariants) if h2_section else []

    block_dims: list[int] = list(h2_dims)
    block_at: dict[int, int] = {}
    for k in helems:
        dims = [q for q in moduli[d_of[k]] if q > 1]
        if dims:
            block_at[k] = len(block_dims)
            block_dims.extend(dims)
    total_dim = len(block_dims)

    def cond_coords(k: int, g: int) -> list[int]:
        return [c % q for c, q in zip(A.coords(g), moduli[d_of[k]]) if q > 1]

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

    # the letter products w in H_2, indexed by their class psi(w, 0)
    letters_of: dict[tuple[int, ...], list[int]] = {}
    for w in h2elems:
        row = [0] * total_dim
        if h2_section is not None:
            row[: len(h2_dims)] = h2_section.coords(w)
        letters_of.setdefault(pres.push(row), []).append(w)

    # contribution of b_l to the obstruction, given the final product g
    targets_of: dict[tuple[tuple[int, ...], ...], list[int]] = {}
    for g in helems:
        signature = []
        for l in order:
            row = [0] * total_dim
            if l in block_at and C:
                for i, x in enumerate(cond_coords(l, g)):
                    row[block_at[l] + i] = C * x
            signature.append(pres.push(row))
        targets_of.setdefault(tuple(signature), []).append(g)

    rows = G.mul_rows()
    seeds: set[int] = set()
    for signature, targets in targets_of.items():
        states = _family_scan(G, Cgrp, order, signature, E)
        for g in targets:
            gm = G.power(g, m)
            # accept letter products w whose combined class matches the
            # accumulated b-obstruction: (w, -T_b) lies in the image of
            # the a-block map exactly when psi(w, 0) = psi(0, T_b)
            for o, reached in states.items():
                if g in reached:
                    seeds.update(rows[w][gm] for w in letters_of.get(o, ()))
    return generated_subgroup(G, seeds)


def remark_lower_bound(ctx: FormulaContext) -> Subgroup:
    """H_3 V_H T_1 T_2: the directly-verifiable lower bound for n = 2.

    V_H is H^m, or W^m for even m > 0.  The paper prints H^(2m) W^m there,
    but for h in H, (h^2)^(m/2) = h^m is in G^m <= K G_2 G^m, so h^2 is in
    W and h^(2m) = (h^2)^m in W^m; the term is dropped.

    T_1 = sgp{[h, k^q] : h, k in H with h^q and k^q in M = K G_2 G^m}
    (_power_commutators).  T_2 = sgp{[h, k] : h in H ∩ M with h^q in H_2,
    k in H ∩ K G_2 G^m G^q}, q over one period, is the join over q of
    [X_q, Y_q] with X_q = {h in H ∩ M : h^q in H_2}, a subgroup as H/H_2 is
    abelian, and Y_q = H ∩ K G_2 G^gcd(m, q), as G/G_2 is abelian.  As in
    _build_power_commutators, X_q = X_d and G^n = G^gcd(n, e) for
    d = gcd(q, e), e = exp(G) (q = 0 gives d = e); as
    gcd(gcd(m, q), e) = gcd(m, d), also Y_q = Y_d, so q runs over the
    divisors of e.
    """
    G = ctx.G
    H = ctx.H
    m = ctx.m
    if m % 2 or m == 0:  # H^m, trivial at m = 0
        vh = power_subgroup(G, H, m)
    else:
        vh = power_subgroup(G, W_subgroup(ctx, m), m)
    M = ctx.KG2Gm(m)
    parts = [ctx.H3(), vh, _power_commutators(G, H, M)]
    h2, h_in_M = ctx.H2(), power_preimage(G, H, 1, M)
    Y: dict[int, Subgroup] = {}  # Y_d, which depends on d through gcd(m, d) alone
    for d in _divisors(G.exponent()):
        X = power_preimage(G, h_in_M, d, h2)
        g = gcd(m, d)
        if g not in Y:
            Y[g] = power_preimage(G, H, 1, ctx.KG2Gm(g))
        parts.append(commutator_subgroup(G, X, Y[g]))
    return join(G, parts)


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
        # NK = <N, K> as N is normal
        if join(G, [N, K]).is_whole() and (N.members & K.members) <= zg.members:
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
