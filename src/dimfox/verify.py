"""Verification drivers: brute force against closed formulas, exactness
checks for the four-term and polynomial sequences, and corpus campaigns.

Each driver produces a Report whose element lists are name-sorted, so a
corpus run is deterministic up to timings.  Cases are independent and
may run in parallel; verdicts are aggregated in case-key order.
"""

from __future__ import annotations

import json
import random
import time
import traceback
from dataclasses import dataclass, field, fields
from math import gcd

from .abelian import FgAb
from .formulas import (
    EnumerationCapError,
    FormulaContext,
    dim3_formula,
    fox0_formula,
    fox1_formula,
    fox2_formula,
    fox2_generator_family,
    remark_lower_bound,
)
from .groupring import (
    ModuleSpan,
    augmentation_ideal,
    dim_modules,
    dim_subgroup_brute,
    elem_minus_one,
    fox_subgroup_brute,
    module_quotient_presentation,
    nseries_ideal_power,
    row_translate,
    row_translate_right,
    span_product,  # no longer called here; kept bound for code that reads verify.span_product
)
from .groups import (
    DEFAULT_ORDER_CAP,
    CoeffRing,
    FiniteGroup,
    GroupError,
    NSeries,
    Subgroup,
    abelian_quotient,
    all_subgroups,
    build_group,
    commutator_subgroup,
    cyclic_subgroups,
    generated_subgroup,
    is_prime,
    join,
    lower_central_series,
    make_counterexample,
    nseries_from_level2,
    power_subgroup,
    quotient_group,
    validate_nseries,
    whole_group,
)
from .intlinalg import IntLattice, lattice_from_rows

SCHEMA_VERSION = 1

DERIVATION_SAMPLES = 100  # seeded pairs (a, b) on which the derivation law is checked
DERIVATION_SEED = 0


@dataclass
class Report:
    lhs: list[str]
    rhs: list[str]
    equal: bool
    case: dict = field(default_factory=dict)  # stamped by run_case
    counterexample: bool = False
    containments: dict = field(default_factory=dict)
    witnesses: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    ms: float = 0.0

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "case": self.case,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "equal": self.equal,
            "counterexample": self.counterexample,
            "containments": self.containments,
            "witnesses": self.witnesses,
            "extra": self.extra,
            "ms": self.ms,
        }


def _names(G: FiniteGroup, members) -> list[str]:
    return sorted(G.names[g] for g in members)


def _sym_diff_names(G: FiniteGroup, a: Subgroup, b: Subgroup) -> list[str]:
    return sorted(G.names[g] for g in a.members ^ b.members)


def verify_dim3(
    G: FiniteGroup,
    K: Subgroup,
    N: NSeries,
    ring: CoeffRing,
    check_reduction: bool = False,
) -> Report:
    """Brute third dimension subgroup against the closed formula."""
    brute = dim_subgroup_brute(G, K, N, ring)
    formula = dim3_formula(FormulaContext(G, K, ring, N))
    k2n3 = join(G, [commutator_subgroup(G, K, K), N.term(3)])
    equal = brute == formula.result
    exceeds = not k2n3.contains_subgroup(brute)
    extra = {"exceeds_k2n3": exceeds}
    if check_reduction:
        extra["reduction_agrees"] = _dim3_reduction_agrees(G, K, N, ring, brute)
    return Report(
        lhs=_names(G, brute.members),
        rhs=_names(G, formula.result.members),
        equal=equal,
        # strictness over Z is the noteworthy event; over Z/m the slice
        # exceeding K_2 N_3 is generic
        counterexample=ring.modulus == 0 and exceeds,
        containments={
            "k2n3_in_formula": formula.result.contains_subgroup(k2n3),
            "formula_in_brute": brute.contains_subgroup(formula.result),
            "brute_in_formula": formula.result.contains_subgroup(brute),
            "sigma_route_agrees": formula.routes_agree,
        },
        witnesses=_sym_diff_names(G, brute, formula.result),
        extra=extra,
    )


def _dim3_reduction_agrees(G, K, N, ring, brute) -> bool:
    """D_3 for a custom series matches the lower-central D_3 of G/N_3."""
    n3 = N.term(3)
    Q, proj, _ = quotient_group(G, n3)
    kbar = generated_subgroup(Q, [proj[k] for k in K.members])
    n2bar = generated_subgroup(Q, [proj[a] for a in N.term(2).members])
    kn2bar = join(Q, [kbar, n2bar])
    dq = dim_subgroup_brute(Q, kn2bar, lower_central_series(Q), ring)
    lifted = {g for g in G.elements() if proj[g] in dq.members}
    return lifted == brute.members


def verify_fox(G: FiniteGroup, H: Subgroup, K: Subgroup, n: int, ring: CoeffRing) -> Report:
    """Brute Fox subgroup against the closed formula for its weight."""
    ctx = FormulaContext(G, K, ring, H=H)
    brute = fox_subgroup_brute(G, H, K, n, ring)
    extra: dict = {}
    containments: dict = {}
    if n == 0:
        formula = fox0_formula(ctx)
    elif n == 1:
        formula = fox1_formula(ctx)
    else:
        formula = fox2_formula(ctx)
        lb = remark_lower_bound(ctx)
        containments["lower_bound_in_brute"] = brute.contains_subgroup(lb)
        try:
            fam = fox2_generator_family(ctx)
            containments["generator_family_agrees"] = fam == brute
        except EnumerationCapError as exc:
            extra["generator_family_skipped"] = str(exc)
    return Report(
        lhs=_names(G, brute.members),
        rhs=_names(G, formula.members),
        equal=brute == formula,
        containments={
            "formula_in_brute": brute.contains_subgroup(formula),
            "brute_in_formula": formula.contains_subgroup(brute),
            **containments,
        },
        witnesses=_sym_diff_names(G, brute, formula),
        extra=extra,
    )


# -- exact sequence checks -----------------------------------------------------


def _pushforward_rows(G: FiniteGroup, Q: FiniteGroup, proj, rows) -> list[list[int]]:
    out = []
    for row in rows:
        v = [0] * Q.order
        for g, c in enumerate(row):
            if c:
                v[proj[g]] += c
        out.append(v)
    return out


def _middle_kernel(G: FiniteGroup, proj, reps: list[int], jq: ModuleSpan) -> IntLattice:
    """I(G) ∩ π⁻¹(J) for π : R(G) -> R(G/K) and J = jq ⊆ I(G/K), built
    directly as R(G)I(K) + λ(J), where λ places a row of R(G/K) on the
    coset representatives reps (the section of `quotient_group`).

    The rows are e_g - e_top(gK) for each g that is not the largest
    element top(gK) of its coset, and each canonical row of J placed on
    the representatives.
    - ε∘π = ε gives I(G) = π⁻¹(I(G/K)) ⊇ π⁻¹(J), so the intersection
      is π⁻¹(J).
    - πλ = id, so x - λπx lies in ker π for every x; hence
      π⁻¹(J) = ker π + λ(J).
    - The coset sums of an x in ker π vanish, so
      x = Σ x_g (e_g - e_top(gK)), and ker π = R(G)I(K) is spanned by
      the rows e_g - e_top.  Each such g is below its top and no top is
      such a g, so `IntLattice.from_differences` writes them as the
      Hermite basis directly; the rows of λ(J) are then added one by one.
    - Over Z/m the lattice is the full preimage in Z^|G|, which holds
      m·e_g = m(e_g - e_top) + m·e_top, so seeding mZ^|G| adds nothing;
      for the same reason the seed rows m·e_c of J's lattice, which the
      canonical rows leave out, would place only rows m·e_rep it holds.
    """
    n = G.order
    top = [0] * len(reps)
    for g in range(n):
        top[proj[g]] = g  # g ascends, so the last g of each coset is its largest
    pairs = ((g, top[proj[g]]) for g in range(n) if g != top[proj[g]])
    lat = IntLattice.from_differences(n, pairs, jq.ring.modulus)
    for jrow in jq.canonical():
        lat.add({reps[c]: x for c, x in enumerate(jrow) if x})
    return lat


def _exactness(
    G: FiniteGroup, K: Subgroup, N: NSeries, ring: CoeffRing, check: str
) -> tuple[Subgroup, ModuleSpan, ModuleSpan, dict]:
    """The shared part of the exact-sequence checks: KN_3, I(G), the
    module M = I(K)I(G) + (weight-3 ideal), and the exactness of
    KN_3 -> I(G)/M -> P_R(G/K) -> 0 at the middle and at the right end,
    where P_R(G/K) = I(G/K)/(weight-3 ideal of G/K).

    Middle: M plus the rows a - 1 (a in KN_3) span the kernel of the
    projection (`_middle_kernel`), as lattices.  Right: the
    pushed-forward generators of I(G) plus the target module fill
    I(G/K).  A non-normal K is refused, naming the check.
    """
    if not K.is_normal():
        raise GroupError(f"{check} check needs a normal subgroup")
    kn3 = join(G, [K, N.term(3)])
    ig, mspan = dim_modules(G, K, N, ring)
    n, m = G.order, ring.modulus
    im_lat = lattice_from_rows(
        list(mspan.basis_rows()) + [elem_minus_one(G, a) for a in sorted(kn3.members)], n, m
    )
    Q, proj, reps = quotient_group(G, K)
    piN = validate_nseries(
        Q, [generated_subgroup(Q, [proj[a] for a in t.members]) for t in N.chain]
    )
    jq = nseries_ideal_power(Q, piN, 3, ring)
    push = lattice_from_rows(
        _pushforward_rows(G, Q, proj, ig.basis_rows()) + list(jq.basis_rows()), Q.order, m
    )
    iq = augmentation_ideal(Q, whole_group(Q), ring).lattice
    exact = {
        "exact_at_middle": im_lat.canonical() == _middle_kernel(G, proj, reps, jq).canonical(),
        "surjective_at_right": push.canonical() == iq.canonical(),
    }
    return kn3, ig, mspan, exact


def verify_four_term(
    G: FiniteGroup,
    K: Subgroup,
    N: NSeries,
) -> Report:
    """Exactness of Tor -> KN_3/K_2N_3 -> P_2 -> P_2(G/K) -> 0 over Z.

    The torsion product of G/KN_2 with itself maps a generating triple
    <x1, k, x2> to the commutator [x1, x2^k]; exactness is checked at
    the commutator quotient (element sets), the middle polynomial group
    (integer lattices), and the right end (lattice surjectivity).
    """
    kn3, _, mspan, exact = _exactness(G, K, N, CoeffRing.integers(), "four-term")
    kn2 = join(G, [K, N.term(2)])
    k2n3 = join(G, [commutator_subgroup(G, K, K), N.term(3)])
    section = abelian_quotient(G, whole_group(G), kn2)
    d = section.invariants
    reps = section.reps
    # image generators of the composed commutator-connecting map
    gens = []
    for i in range(len(d)):
        for j in range(len(d)):
            g = gcd(d[i], d[j])
            x2 = G.power(reps[j], d[j] // g)
            img = G.comm(reps[i], G.power(x2, d[i]))
            if img not in kn3.members:
                raise GroupError("connecting image escaped KN_3")
            gens.append(img)
    image = generated_subgroup(G, gens + sorted(k2n3.members))
    # kernel of a -> (a - 1) + I(K)I(G) + (weight-3 ideal)
    kernel = {a for a in kn3.members if mspan.contains_row(elem_minus_one(G, a))}
    containments = {"exact_at_commutator_quotient": image.members == kernel, **exact}
    return Report(
        lhs=_names(G, kernel),
        rhs=_names(G, image.members),
        equal=all(containments.values()),
        containments=containments,
        witnesses=sorted(G.names[g] for g in image.members ^ kernel),
    )


def verify_polynomial_sequence(
    G: FiniteGroup,
    K: Subgroup,
    N: NSeries,
    ring: CoeffRing,
) -> Report:
    """Exactness and the derivation law for the relative polynomial group.

    Checks, over R, that the image of KN_3 -> P_2 matches the kernel of
    P_2 -> P_2(G/K), that the latter map is onto, and that the
    canonical map satisfies the exact product expansions
    ab - 1 = a(b - 1) + (a - 1)  and  ab - 1 = (a - 1)b + (b - 1)
    through the quotient presentation on DERIVATION_SAMPLES sampled pairs
    (`_derivation_law_failures`).
    """
    _, ig, mspan, exact = _exactness(G, K, N, ring, "polynomial sequence")
    pres, coords = module_quotient_presentation(mspan, ig)
    failures = _derivation_law_failures(G, coords, pres.group)
    containments = {**exact, "derivation_law": not failures}
    return Report(
        lhs=[],
        rhs=[],
        equal=all(containments.values()),
        containments=containments,
        witnesses=[f"{G.names[a]}*{G.names[b]}" for a, b in failures[:4]],
    )


def _derivation_law_failures(G: FiniteGroup, coords, group: FgAb) -> list[tuple[int, int]]:
    """The sampled pairs (a, b) at which the canonical map
    p(g) = coords(g - 1) breaks p(ab) = coords(a(b - 1)) + p(a) or
    p(ab) = coords((a - 1)b) + p(b), the sums taken in `group`.

    Each product row goes through coords on its own.  Adding the rows
    first would test nothing: a(b - 1) + (a - 1) and (a - 1)b + (b - 1)
    are both exactly ab - 1 in Z(G).
    """
    p = [coords(elem_minus_one(G, g)) for g in G.elements()]
    rng = random.Random(DERIVATION_SEED)
    failures = []
    for _ in range(DERIVATION_SAMPLES):
        a = rng.randrange(G.order)
        b = rng.randrange(G.order)
        p_ab = p[G.mul(a, b)]
        left = group.add(coords(row_translate(G, a, elem_minus_one(G, b))), p[a])
        right = group.add(coords(row_translate_right(G, elem_minus_one(G, a), b)), p[b])
        if left != p_ab or right != p_ab:
            failures.append((a, b))
    return failures


# -- corpus --------------------------------------------------------------------

DEFAULT_GROUPS = [
    "cyclic:1",
    "cyclic:2",
    "cyclic:3",
    "cyclic:4",
    "cyclic:5",
    "cyclic:6",
    "cyclic:7",
    "cyclic:8",
    "cyclic:9",
    "cyclic:10",
    "cyclic:12",
    "cyclic:15",
    "cyclic:16",
    "dihedral:3",
    "dihedral:4",
    "dihedral:5",
    "dihedral:6",
    "dihedral:7",
    "dihedral:8",
    "quaternion:8",
    "elementary-abelian:2,2",
    "elementary-abelian:2,3",
    "elementary-abelian:2,4",
    "elementary-abelian:3,2",
    "cyclic:2 x cyclic:4",
    "cyclic:2 x cyclic:6",
    "cyclic:4 x cyclic:4",
    "cyclic:2 x cyclic:8",
    "cyclic:3 x cyclic:3",  # same as elementary-abelian:3,2 but through products
    "cyclic:2 x dihedral:3",
    "cyclic:2 x quaternion:8",
    "cyclic:2 x cyclic:2 x cyclic:2",
]

DEFAULT_MODULI = [0, 2, 3, 4]


# the type validate() requires of each corpus config field (subgroup_policy
# is checked by value); a bool passes only for a bool field, never for an int one
_FIELD_TYPES = {
    "groups": list,
    "explicit_subgroups": dict,
    "moduli": list,
    "theorems": list,
    "fox_weights": list,
    "max_group_order": int,
    "jobs": (int, type(None)),
    "include_counterexample": bool,
    "extra_series": bool,
}


@dataclass
class CorpusConfig:
    groups: list[str] = field(default_factory=lambda: list(DEFAULT_GROUPS))
    subgroup_policy: str = "cyclic"  # cyclic | all | explicit
    explicit_subgroups: dict = field(default_factory=dict)  # spec -> [[gens]]
    moduli: list[int] = field(default_factory=lambda: list(DEFAULT_MODULI))
    theorems: list[str] = field(default_factory=lambda: ["dim3", "fox"])
    fox_weights: list[int] = field(default_factory=lambda: [0, 1, 2])
    include_counterexample: bool = True
    extra_series: bool = True
    max_group_order: int = 16
    jobs: int = 1

    @staticmethod
    def from_dict(data: dict) -> "CorpusConfig":
        if not isinstance(data, dict):
            raise GroupError(f"corpus config is not a JSON object: {data!r}")
        names = {f.name for f in fields(CorpusConfig)}
        for key in data:
            if key not in names:
                raise GroupError(f"unknown corpus config key {key!r}")
        cfg = CorpusConfig(**data)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Reject a bad field, naming it and its value, before any case runs."""
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
                raise GroupError(f"corpus config: {name} has the wrong type: {value!r}")
        for spec in self.groups:
            if not isinstance(spec, str):
                raise GroupError(f"corpus config: groups entry {spec!r} is not a string")
        if self.max_group_order <= 0 or (self.jobs is not None and self.jobs < 1):
            raise GroupError("corpus caps must be positive")
        for t in self.theorems:
            if t not in ("dim3", "fox"):
                raise GroupError(f"corpus config: unknown theorems entry {t!r}")
        for m in self.moduli:
            if not isinstance(m, int) or isinstance(m, bool) or m < 0 or m == 1:
                raise GroupError(f"corpus config: moduli entry {m!r} is not 0 or >= 2")
        for n in self.fox_weights:
            if not isinstance(n, int) or isinstance(n, bool) or n not in (0, 1, 2):
                raise GroupError(f"corpus config: fox_weights entry {n!r} is not 0, 1 or 2")
        if self.subgroup_policy not in ("cyclic", "all", "explicit"):
            raise GroupError(f"corpus config: unknown subgroup_policy {self.subgroup_policy!r}")
        for spec, subs in self.explicit_subgroups.items():
            if spec not in self.groups:
                raise GroupError(f"corpus config: explicit_subgroups key {spec!r} is not in groups")
            if not isinstance(subs, list) or not all(
                isinstance(gens, list) and all(isinstance(t, str) for t in gens) for gens in subs
            ):
                raise GroupError(
                    f"corpus config: explicit_subgroups entry for {spec!r} is not a list of "
                    f"lists of element names: {subs!r}"
                )
        if self.subgroup_policy == "cyclic" and self.explicit_subgroups:
            raise GroupError(
                f"corpus config: explicit_subgroups entries for {sorted(self.explicit_subgroups)} "
                f"are never read under subgroup_policy 'cyclic'"
            )
        if self.subgroup_policy == "explicit":
            for spec in self.groups:
                if spec not in self.explicit_subgroups:
                    raise GroupError(
                        f"corpus config: group {spec!r} has no explicit_subgroups entry "
                        f"under subgroup_policy 'explicit'"
                    )


def _series_tags(G: FiniteGroup) -> list[str]:
    tags = ["gamma"]
    tags.append("double")
    if G.is_abelian() and any(G.order % p == 0 for p in (2, 3)):
        tags.append("pow2" if G.order % 2 == 0 else "pow3")
    return tags


def _split_names(text: str) -> list[str]:
    """text cut at its commas outside parentheses, as the element names of
    a direct product, such as ((x,1),x), hold commas of their own."""
    names, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "()":
            depth += 1 if ch == "(" else -1
        elif ch == "," and depth == 0:
            names.append(text[start:i])
            start = i + 1
    return names + [text[start:]]


def _generated(G: FiniteGroup, tokens) -> Subgroup:
    """The subgroup generated by the elements that tokens name: a list of
    element names and indices, or one comma-separated string of names.
    "1" is the identity, and an empty name is skipped."""
    if isinstance(tokens, str):
        tokens = _split_names(tokens)
    gens = []
    for t in tokens:
        if isinstance(t, str):
            t = t.strip()
            if t:
                gens.append(G.identity if t == "1" else G.index_of(t))
        elif isinstance(t, int) and not isinstance(t, bool):
            gens.append(G.index_of(t))
        else:
            raise GroupError(f"{t!r} is neither an element name nor an index")
    return generated_subgroup(G, gens)


def resolve_series(G: FiniteGroup, tag: str) -> NSeries:
    """The N-series a tag names: `gamma` (also the empty tag), `double`,
    `powP` for a prime P, or a chain of levels `N_2;N_3;...` such as
    `r2;1`, each level a comma-separated list of element names generating
    it."""
    tag = tag.strip()
    if tag in ("", "gamma"):
        return lower_central_series(G)
    if tag == "double":
        gamma = lower_central_series(G)
        chain = [gamma.term((i + 1) // 2) for i in range(1, 2 * len(gamma.chain) + 1)]
        return validate_nseries(G, chain)
    if tag.startswith("pow"):
        digits = tag[3:]
        # trial division stays quick on the up to 12 digits accepted
        p = int(digits) if digits.isdecimal() and len(digits) <= 12 else 0
        if not is_prime(p):
            raise GroupError(f"series tag {tag!r}: powP needs a prime P of at most 12 digits")
        if G.is_abelian():
            chain = [whole_group(G)]
            while True:
                nxt = power_subgroup(G, chain[-1], p)
                if nxt == chain[-1]:
                    break
                chain.append(nxt)
            return validate_nseries(G, chain)
        return nseries_from_level2(G, join(G, [power_subgroup(G, whole_group(G), p)]))
    levels = [_generated(G, level) for level in tag.split(";")]
    return validate_nseries(G, [whole_group(G)] + levels)


def _explicit_subgroups(G: FiniteGroup, cfg: CorpusConfig, spec: str) -> list[Subgroup]:
    try:
        return [_generated(G, gens) for gens in cfg.explicit_subgroups.get(spec, [])]
    except GroupError as exc:
        raise GroupError(f"corpus config: explicit_subgroups entry for {spec!r}: {exc}") from exc


def _subgroup_choices(G: FiniteGroup, cfg: CorpusConfig, explicit: list[Subgroup]) -> list[Subgroup]:
    if cfg.subgroup_policy == "cyclic":
        return cyclic_subgroups(G)
    if cfg.subgroup_policy == "all":
        if G.order > 16:
            # full lattices explode; fall back to cyclic plus explicit
            subs = cyclic_subgroups(G)
            have = {s.members for s in subs}
            subs += [s for s in explicit if s.members not in have]
            return subs
        return all_subgroups(G)
    return explicit


def build_cases(cfg: CorpusConfig) -> list[dict]:
    cfg.validate()
    cases = []
    for spec in cfg.groups:
        G = build_group(spec)
        # resolved before the order cap, so a bad element name never passes unread
        explicit = _explicit_subgroups(G, cfg, spec)
        if G.order > cfg.max_group_order:
            continue
        subs = _subgroup_choices(G, cfg, explicit)
        series = _series_tags(G) if cfg.extra_series else ["gamma"]
        if "dim3" in cfg.theorems:
            for K in subs:
                for tag in series:
                    for m in cfg.moduli:
                        cases.append(
                            {
                                "kind": "dim3",
                                "group": spec,
                                "K": K.generators,
                                "series": tag,
                                "m": m,
                            }
                        )
        if "fox" in cfg.theorems:
            for H in subs:
                for K in subs:
                    for n in cfg.fox_weights:
                        for m in cfg.moduli:
                            cases.append(
                                {
                                    "kind": "fox",
                                    "group": spec,
                                    "H": H.generators,
                                    "K": K.generators,
                                    "n": n,
                                    "m": m,
                                }
                            )
    if cfg.include_counterexample and "dim3" in cfg.theorems:
        cases.append({"kind": "counterexample", "p": 2, "r": 1, "s": 1})
    if not cases:
        raise GroupError(
            f"corpus config: no case selected by theorems={cfg.theorems}, "
            f"moduli={cfg.moduli}, fox_weights={cfg.fox_weights} and "
            f"{len(cfg.groups)} groups up to order {cfg.max_group_order}"
        )
    for i, case in enumerate(cases):
        case["id"] = i
    return cases


def run_case(case: dict, max_order: int = DEFAULT_ORDER_CAP) -> dict:
    """Run one case and return its report as a dict, stamped with the case
    and the milliseconds it took, so a report's case can be run again.

    A case names its `kind` and inputs: `group`, the generators `K` and `H`
    (see _generated), `series` (see resolve_series), the modulus `m`
    (0 or absent for Z; a four_term case runs over Z and refuses any
    other m), the weight `n` of a Fox case, and optionally
    `check_reduction` for dim3; a counterexample case names `p`, `r`, `s`.
    The group order cap `max_order` (see build_group) is the one size
    guard a caller sets; it is checked before a family group's table is
    built.  Brute force has no cap of its own, and the closed formulas keep
    their enumeration budgets (formulas.py).
    """
    t0 = time.perf_counter()
    kind = case["kind"]
    if kind not in ("dim3", "fox", "four_term", "polynomial", "counterexample"):
        raise GroupError(f"unknown case kind {kind!r}")
    ring = CoeffRing.parse(case.get("m", 0))
    if kind == "four_term" and ring.modulus:
        raise GroupError(f"case kind 'four_term' runs over Z only, not m = {case['m']!r}")
    if kind == "counterexample":
        G, K, z = make_counterexample(case["p"], case["r"], case["s"], max_order=max_order)
    else:
        G = build_group(case["group"], max_order=max_order)
        K = _generated(G, case["K"])
    if kind == "fox":
        H = _generated(G, case["H"])
        report = verify_fox(G, H, K, case["n"], ring)
    else:
        N = resolve_series(G, case.get("series", ""))
        if kind == "four_term":
            report = verify_four_term(G, K, N)
        elif kind == "polynomial":
            report = verify_polynomial_sequence(G, K, N, ring)
        else:
            check = case.get("check_reduction", False)
            report = verify_dim3(G, K, N, ring, check_reduction=check)
    if kind == "counterexample":
        # Example 2.4: z lies in the slice, which strictly exceeds K_2G_3.  The
        # verdict is in the containments; extra keeps z and z_in_brute, which
        # perfbench/workloads.py reads.
        z_in_brute = G.names[z] in report.lhs
        report.extra.update(z=G.names[z], z_in_brute=z_in_brute)
        report.containments.update(z_in_brute=z_in_brute, strictly_exceeds_k2n3=report.counterexample)
    report.case = case
    report.ms = round((time.perf_counter() - t0) * 1000, 3)
    return report.to_dict()


@dataclass
class CorpusResult:
    reports: list[dict]
    failures: list[dict]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "total": len(self.reports),
            "failures": self.failures,
            "reports": self.reports,
        }

    def to_json(self, include_timings: bool = True) -> str:
        data = self.to_dict()
        if not include_timings:
            for r in data["reports"] + data["failures"]:
                r.pop("ms", None)
        return json.dumps(data, sort_keys=True, indent=1)


def report_ok(r: dict) -> bool:
    return bool(r["equal"]) and all(r["containments"].values())


def _run_case_or_fail(case: dict) -> dict:
    """run_case, with an exception turned into a failed report naming the case."""
    try:
        return run_case(case)
    except Exception as exc:  # one bad case must not end the campaign
        extra = {"error": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()}
        return Report(lhs=[], rhs=[], equal=False, case=case, extra=extra).to_dict()


def run_corpus(cfg: CorpusConfig) -> CorpusResult:
    cases = build_cases(cfg)
    if cfg.jobs and cfg.jobs > 1:
        import multiprocessing as mp

        with mp.Pool(cfg.jobs) as pool:
            results = pool.map(_run_case_or_fail, cases, chunksize=8)
    else:
        results = [_run_case_or_fail(c) for c in cases]
    results.sort(key=lambda r: r["case"]["id"])
    failures = [r for r in results if not report_ok(r)]
    ordered = failures + [r for r in results if report_ok(r)]
    return CorpusResult(ordered, failures)
