"""The memo of subgroup facts that each group keeps, and the committed
digest of the default corpus's verdicts (tests/corpus_digest.py)."""

import dataclasses
from math import gcd

import pytest

import dimfox.groups as groups
from corpus_digest import digest, moved, read_digest
from dimfox.groups import (
    GroupError,
    Subgroup,
    abelian_quotient,
    build_group,
    commutator_subgroup,
    generated_subgroup,
    lower_central_series,
    power_subgroup,
    whole_group,
)
from dimfox.verify import DEFAULT_GROUPS, CorpusConfig, run_corpus

SMALL = [spec for spec in DEFAULT_GROUPS if build_group(spec).order <= 8]


def _facts() -> dict:
    return {spec: dict(G._facts) for spec, G in groups._built.items()}


@pytest.fixture(scope="module")
def small_runs():
    """The default corpus on its groups of order <= 8, run on fresh groups,
    whose memos start empty, then run again on the memos that run left;
    with the facts each group kept after each run."""
    saved = dict(groups._built)
    groups._built.clear()
    try:
        cfg = CorpusConfig(groups=SMALL)
        cold = run_corpus(cfg)
        after_cold = _facts()
        warm = run_corpus(cfg)
        after_warm = _facts()
    finally:
        groups._built.clear()
        groups._built.update(saved)
    return cold, after_cold, warm, after_warm


def test_cold_and_warm_memos_give_the_same_corpus_output(small_runs):
    """A warm memo changes no verdict, and a warm run only reads it: every
    fact the cold run kept is still kept, as the same object, and no fact
    is added."""
    cold, after_cold, warm, after_warm = small_runs
    assert cold.ok and len(cold.reports) == 4713
    assert warm.to_json(include_timings=False) == cold.to_json(include_timings=False)
    assert after_cold.keys() == after_warm.keys()
    for spec, facts in after_cold.items():
        assert facts.keys() == after_warm[spec].keys(), spec
        assert all(after_warm[spec][key] is fact for key, fact in facts.items()), spec


def test_the_verdict_digest_of_the_small_groups_is_unchanged(small_runs):
    """The committed digest lines of the groups of order <= 8 and of the
    counterexample, recomputed; a failure names each line that moved."""
    got = digest(small_runs[0])
    expected = {key: line for key, line in read_digest().items() if key in got}
    assert {group for group, _ in expected} == set(SMALL) | {"class2:2,1"}
    assert not moved(expected, got), f"verdict digest moved for {moved(expected, got)}"


@pytest.mark.slow
def test_the_verdict_digest_of_the_default_corpus_is_unchanged():
    got = digest(run_corpus(CorpusConfig()))
    expected = read_digest()
    assert not moved(expected, got), f"verdict digest moved for {moved(expected, got)}"


def test_a_planted_change_moves_the_digest_of_its_group(small_runs):
    cold = small_runs[0]
    reports = [dict(r) for r in cold.reports]
    victim = next(i for i, r in enumerate(reports) if r["case"].get("group") == "dihedral:4")
    reports[victim]["rhs"] = reports[victim]["rhs"] + ["planted"]
    planted = type(cold)(reports, [])
    assert moved(digest(cold), digest(planted)) == [f"dihedral:4 {reports[victim]['case']['kind']}"]


def test_kept_facts_are_frozen():
    """A fact the memo shares cannot be written: Subgroup and
    AbelianSection are frozen, and a section's coset map and coordinates
    are tuples."""
    G = build_group("dihedral:4")
    S = generated_subgroup(G, [1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        S.members = frozenset()
    sec = abelian_quotient(G, whole_group(G), lower_central_series(G).term(2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        sec.invariants = ()
    with pytest.raises(TypeError):
        sec._proj[0] = 1
    assert all(isinstance(t, tuple) for t in (sec.invariants, sec.reps, sec._proj, sec._coords))


def test_a_hit_returns_what_a_miss_would_build(monkeypatch):
    """Each fact is keyed by exactly what its builder reads: the seed set,
    the generator tuples of a commutator subgroup, the member sets of a
    power subgroup or an abelian section.  A hit is the object the first
    call built; a cold memo builds an equal one, generators included."""
    monkeypatch.setattr(groups, "_built", {})
    G = build_group("dihedral:4")
    r, f = G.index_of("r"), G.index_of("f")
    S = generated_subgroup(G, [f, r])
    assert generated_subgroup(G, (r, f, r)) is S and S.generators == (r, f)
    C = commutator_subgroup(G, S, S)
    assert commutator_subgroup(G, Subgroup(G, S.members, S.generators), S) is C
    same_members = Subgroup(G, S.members)  # greedy generators of its own
    assert power_subgroup(G, same_members, 2) is power_subgroup(G, S, 2)
    sec = abelian_quotient(G, S, C)
    assert abelian_quotient(G, same_members, Subgroup(G, C.members)) is sec
    G._facts.clear()
    rebuilt = [generated_subgroup(G, [r, f]), commutator_subgroup(G, S, S), abelian_quotient(G, S, C)]
    assert rebuilt[0] is not S
    assert (rebuilt[0].members, rebuilt[0].generators) == (S.members, S.generators)
    assert (rebuilt[1].members, rebuilt[1].generators) == (C.members, C.generators)
    assert rebuilt[2] == sec


def test_commutator_subgroups_are_kept_by_generators(monkeypatch):
    """[A, B] reads only the generators of A and B, and its generators
    depend on their order, so two generating tuples of one subgroup are
    two facts, each what a cold memo builds."""
    monkeypatch.setattr(groups, "_built", {})
    G = build_group("dihedral:3 x dihedral:4")
    W = whole_group(G)
    R = Subgroup(G, W.members, tuple(reversed(G.generators)))
    warm = [commutator_subgroup(G, W, W), commutator_subgroup(G, R, R)]
    G._facts.clear()
    cold = [commutator_subgroup(G, R, R), commutator_subgroup(G, W, W)][::-1]
    assert [(c.members, c.generators) for c in warm] == [(c.members, c.generators) for c in cold]
    assert warm[0].members == warm[1].members and warm[0].generators != warm[1].generators


def test_a_full_memo_drops_its_least_recently_used_facts(monkeypatch):
    """Past its bound of _FACT_SLOTS // |G| facts the memo drops the least
    recently used ones; every answer stays right, and a dropped fact is
    built again, equal to the first."""
    monkeypatch.setattr(groups, "_built", {})
    n = 1024
    G = build_group(f"cyclic:{n}")
    cap = groups._FACT_SLOTS // n
    assert G._fact_cap == cap == 64
    first = generated_subgroup(G, [6])
    for g in range(1, 3 * cap):
        S = generated_subgroup(G, [g])
        assert S.members == set(range(0, n, gcd(g, n))) and S.generators == (g,)
        assert len(G._facts) <= cap
        assert generated_subgroup(G, [g]) is S
    again = generated_subgroup(G, [6])
    assert again is not first and (again.members, again.generators) == (first.members, first.generators)


def test_element_orders_need_no_power_table(monkeypatch):
    """The exponent and element orders are read from one walk over the
    cyclic subgroups; the power rows are built only when one is read."""
    monkeypatch.setattr(groups, "_built", {})
    G = build_group("cyclic:1024")
    assert G.exponent() == 1024 and G.order_of(96) == 32 and G.summary()["exponent"] == 1024
    assert G._powers is None
    assert G.power(3, 5) == 15 and len(G.power_rows()) == 1024


def test_a_memo_hit_parses_no_spec(monkeypatch):
    """build_group answers a kept spec without parsing it again, and still
    refuses it when the kept group's order is over the cap."""
    monkeypatch.setattr(groups, "_built", {})
    G = build_group("cyclic:2 x dihedral:4")

    def refuse(*args):
        raise AssertionError("a kept spec was parsed again")

    monkeypatch.setattr(groups, "_family", refuse)
    assert build_group(" cyclic:2 x dihedral:4") is G
    with pytest.raises(GroupError, match="group order 16 exceeds the cap 8"):
        build_group("cyclic:2 x dihedral:4", max_order=8)
    assert groups._built == {"cyclic:2 x dihedral:4": G}
