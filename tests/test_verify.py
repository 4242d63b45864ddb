"""Verification drivers, corpus runs, and the command-line interface."""

import hashlib
import json
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dimfox.cli import main as cli_main
from dimfox.groupring import CoeffRing, augmentation_ideal, nseries_ideal_power
from dimfox.groups import (
    GroupError,
    build_group,
    generated_subgroup,
    lower_central_series,
    make_counterexample,
    normal_subgroups,
    quotient_group,
    trivial_subgroup,
    validate_nseries,
    whole_group,
)
from dimfox.intlinalg import intersect_lattices, lattice_from_rows, preimage_lattice
from dimfox.verify import (
    DEFAULT_GROUPS,
    CorpusConfig,
    Report,
    _generated,
    build_cases,
    report_ok,
    resolve_series,
    run_case,
    run_corpus,
    verify_dim3,
    verify_four_term,
    verify_fox,
    verify_polynomial_sequence,
)

Z = CoeffRing.integers()


def test_report_invariants():
    G = build_group("cyclic:4")
    r = verify_dim3(G, trivial_subgroup(G), lower_central_series(G), Z)
    assert r.equal == (not r.witnesses)
    assert r.lhs == sorted(r.lhs)
    d = r.to_dict()
    assert d["schema"] == 1 and "ms" in d


def test_verify_dim3_counterexample_report():
    G, K, z = make_counterexample(2, 1, 1)
    r = verify_dim3(G, K, lower_central_series(G), Z)
    assert r.equal and r.counterexample
    assert G.names[z] in r.lhs


def test_verify_dim3_abelian_trivial():
    G = build_group("cyclic:12")
    r = verify_dim3(G, trivial_subgroup(G), lower_central_series(G), Z)
    assert r.equal and not r.counterexample
    assert r.lhs == ["1"]


def test_verify_fox_reports():
    G = build_group("dihedral:4")
    H = whole_group(G)
    K = trivial_subgroup(G)
    r0 = verify_fox(G, H, K, 0, Z)
    assert r0.equal and set(r0.rhs) == set(G.names)
    r1 = verify_fox(G, H, K, 1, Z)
    assert r1.equal and set(r1.containments) == {"formula_in_brute", "brute_in_formula"}
    r2 = verify_fox(G, H, K, 2, CoeffRing.mod(2))
    assert r2.equal
    assert r2.containments["lower_bound_in_brute"]
    assert r2.containments["generator_family_agrees"]


def test_verify_four_term_cases():
    for spec, kgens in [("cyclic:6", []), ("dihedral:4", [2]), ("quaternion:8", [2])]:
        G = build_group(spec)
        K = generated_subgroup(G, kgens)
        r = verify_four_term(G, K, lower_central_series(G))
        assert r.equal, spec


def test_verify_four_term_rejects_non_normal():
    D4 = build_group("dihedral:4")
    K = generated_subgroup(D4, [4])  # a reflection
    with pytest.raises(GroupError, match="^four-term check needs a normal subgroup$"):
        verify_four_term(D4, K, lower_central_series(D4))
    with pytest.raises(GroupError, match="^polynomial sequence check needs a normal subgroup$"):
        verify_polynomial_sequence(D4, K, lower_central_series(D4), Z)


def test_four_term_refuses_any_ring_but_z(capsys):
    """Theorem 2.6 is checked over Z; a four_term case with m != 0 is
    refused instead of being run over Z under the label of another ring."""
    case = {"kind": "four_term", "group": "dihedral:4", "K": ["r2"], "series": "gamma"}
    with pytest.raises(GroupError, match="'four_term' runs over Z only, not m = 4"):
        run_case({**case, "m": 4})
    assert run_case({**case, "m": 0})["equal"]
    argv = ["homology", "thm2.6", "--group", "dihedral:4", "--K", "r2", "--ring"]
    assert cli_main(argv + ["Z/4"]) == 2
    assert "'four_term' runs over Z only, not m = 4" in capsys.readouterr().err
    assert cli_main(argv + ["Z"]) == 0
    assert "VERIFIED" in capsys.readouterr().out


def test_verify_polynomial_sequence_cases():
    for spec, kgens, m in [("dihedral:4", [2], 0), ("dihedral:4", [2], 2), ("cyclic:6", [2], 3)]:
        G = build_group(spec)
        K = generated_subgroup(G, kgens)
        ring = Z if m == 0 else CoeffRing.mod(m)
        r = verify_polynomial_sequence(G, K, lower_central_series(G), ring)
        assert r.equal, (spec, m)


def _kernel_inputs(max_order):
    """(G, K, N, ring) over the default groups up to max_order, every
    normal K, the gamma and double series, and m in {0, 2, 3, 4}."""
    for spec in DEFAULT_GROUPS:
        G = build_group(spec)
        if G.order > max_order:
            continue
        for K in normal_subgroups(G):
            for tag in ("gamma", "double"):
                N = resolve_series(G, tag)
                for m in (0, 2, 3, 4):
                    yield G, K, N, CoeffRing.parse(m)


@pytest.mark.parametrize("max_order", [8, pytest.param(16, marks=pytest.mark.slow)])
def test_middle_kernel_equals_intersection_route(max_order):
    """The directly built kernel R(G)I(K) + λ(J_3(G/K)) equals
    I(G) ∩ π⁻¹(J_3(G/K)) computed by lattice intersection."""
    from dimfox.verify import _middle_kernel

    count = 0
    for G, K, N, ring in _kernel_inputs(max_order):
        n, m = G.order, ring.modulus
        Q, proj, reps = quotient_group(G, K)
        piN = validate_nseries(
            Q, [generated_subgroup(Q, [int(proj[a]) for a in t.members]) for t in N.chain]
        )
        jq = nseries_ideal_power(Q, piN, 3, ring)
        ig = augmentation_ideal(G, whole_group(G), ring)
        unit_rows = []
        for g in range(n):
            row = [0] * Q.order
            row[int(proj[g])] = 1
            unit_rows.append(row)
        reference = intersect_lattices(ig.lattice, preimage_lattice(unit_rows, jq.lattice))
        expected = lattice_from_rows(reference.basis_rows(), n, m).canonical()
        assert _middle_kernel(G, proj, reps, jq).canonical() == expected, (G.spec, K.generators, m)
        count += 1
    assert count == {8: 640, 16: 2104}[max_order]


def test_derivation_law_reads_each_product_row_through_coords():
    """A coords that is not additive breaks the derivation law.  Adding the
    rows before coords sees them would hide it: a(b - 1) + (a - 1) and
    (a - 1)b + (b - 1) are both ab - 1."""
    from dimfox.groupring import (
        dim_modules,
        elem_minus_one,
        module_quotient_presentation,
        row_translate,
        row_translate_right,
    )
    from dimfox.verify import DERIVATION_SAMPLES, DERIVATION_SEED, _derivation_law_failures

    G = build_group("cyclic:4")
    ig, mspan = dim_modules(G, trivial_subgroup(G), lower_central_series(G), Z)
    pres, coords = module_quotient_presentation(mspan, ig)
    assert pres.group.invariants and not _derivation_law_failures(G, coords, pres.group)

    def broken(row):
        """coords on the rows that meet the identity's column, zero elsewhere."""
        return coords(row) if row[G.identity] else pres.group.zero()

    assert _derivation_law_failures(G, broken, pres.group)
    rng = random.Random(DERIVATION_SEED)
    for _ in range(DERIVATION_SAMPLES):
        a, b = rng.randrange(G.order), rng.randrange(G.order)
        am, bm = elem_minus_one(G, a), elem_minus_one(G, b)
        summed = [
            [x + y for x, y in zip(row_translate(G, a, bm), am)],
            [x + y for x, y in zip(row_translate_right(G, am, b), bm)],
        ]
        assert all(broken(v) == broken(elem_minus_one(G, G.mul(a, b))) for v in summed)


def test_dim3_reduction_crosscheck():
    """D_3 for a custom series against the lower-central D_3 of G/N_3."""
    for spec, tag, m in [("cyclic:4", "pow2", 2), ("cyclic:6", "double", 0), ("quaternion:8", "x;x2;1", 2)]:
        G = build_group(spec)
        N = resolve_series(G, tag)
        ring = Z if m == 0 else CoeffRing.mod(m)
        r = verify_dim3(G, trivial_subgroup(G), N, ring, check_reduction=True)
        assert r.equal and r.extra["reduction_agrees"], (spec, tag, m)


def test_z2_literal_reading_is_flagged_and_rejected():
    """The printed exponent reading changes a corpus outcome at least once,
    and the corrected reading is the one matching brute force."""
    from dimfox.formulas import FormulaContext, dim3_formula, dim3_sigma_route
    from dimfox.groupring import dim_subgroup_brute
    from test_formulas import printed_sigma_route

    G = build_group("cyclic:4")
    N = resolve_series(G, "gamma")
    ring = CoeffRing.mod(2)
    ctx = FormulaContext(G, trivial_subgroup(G), ring, N)
    f = dim3_formula(ctx)
    literal = printed_sigma_route(ctx, literal_exponent=True)
    assert literal != dim3_sigma_route(ctx)  # the readings genuinely differ here
    brute = dim_subgroup_brute(G, trivial_subgroup(G), N, ring)
    assert f.result == brute
    assert literal != brute  # the literal reading would be wrong


def test_resolve_series_variants():
    C6 = build_group("cyclic:6")
    g = resolve_series(C6, "gamma")
    assert [len(t) for t in g.chain] == [6, 1]
    assert resolve_series(C6, "") == g
    d = resolve_series(C6, "double")
    assert [len(t) for t in d.chain] == [6, 6, 1, 1]
    p = resolve_series(C6, "pow2")
    assert [len(t) for t in p.chain] == [6, 3]
    D4 = build_group("dihedral:4")
    ch = resolve_series(D4, "r2;1")
    assert [len(t) for t in ch.chain] == [8, 2, 1]


def test_empty_corpus():
    # a campaign without a case is bad input, never a green run
    cfg = CorpusConfig(groups=[], include_counterexample=False)
    with pytest.raises(GroupError, match="no case selected"):
        run_corpus(cfg)


def test_corpus_deterministic_and_parallel():
    cfg = CorpusConfig(
        groups=["cyclic:4", "dihedral:4"],
        moduli=[0, 2],
        include_counterexample=False,
        extra_series=False,
    )
    a = run_corpus(cfg)
    b = run_corpus(cfg)
    assert a.to_json(include_timings=False) == b.to_json(include_timings=False)
    cfg.jobs = 2
    c = run_corpus(cfg)
    assert a.to_json(include_timings=False) == c.to_json(include_timings=False)
    assert a.ok


def test_corpus_counterexample_flagged():
    cfg = CorpusConfig(
        groups=["cyclic:4"],
        moduli=[0],
        theorems=["dim3"],
        include_counterexample=True,
        extra_series=False,
    )
    res = run_corpus(cfg)
    assert res.ok
    flagged = [r for r in res.reports if r["counterexample"]]
    assert len(flagged) == 1
    assert flagged[0]["case"]["kind"] == "counterexample"
    assert flagged[0]["extra"]["z_in_brute"]


def test_corpus_config_validation():
    with pytest.raises(Exception):
        CorpusConfig.from_dict({"bogus_key": 1})
    cfg = CorpusConfig.from_dict({"groups": ["cyclic:4"], "moduli": [0]})
    assert cfg.groups == ["cyclic:4"]
    # a config built directly is checked by run_corpus before its first case
    with pytest.raises(GroupError, match="moduli entry 1"):
        run_corpus(CorpusConfig(groups=["cyclic:2"], moduli=[0, 1]))


def test_explicit_subgroup_policy():
    cfg = CorpusConfig(
        groups=["dihedral:4"],
        subgroup_policy="explicit",
        explicit_subgroups={"dihedral:4": [["r2"], ["r"]]},
        moduli=[0],
        theorems=["dim3"],
        include_counterexample=False,
        extra_series=False,
    )
    cases = build_cases(cfg)
    assert len(cases) == 2
    for c in cases:
        r = run_case(c)
        assert r["equal"]


# -- CLI ------------------------------------------------------------------------


def test_cli_dim3_ok(capsys):
    code = cli_main(["dim3", "--group", "cyclic:4", "--K", "", "--ring", "Z/2"])
    out = capsys.readouterr().out
    assert code == 0 and "VERIFIED" in out


def test_cli_dim3_json(capsys):
    code = cli_main(["dim3", "--group", "cyclic:4", "--K", "", "--ring", "Z/2", "--json"])
    out = capsys.readouterr().out
    data = json.loads(out)
    assert code == 0 and data["equal"] is True


def test_cli_parse_error(capsys):
    code = cli_main(["dim3", "--group", "cyclic:4", "--K", "zzz"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["dim3", "--group", "cyclic:2 x dihedral:4", "--K", "(x,r)"],
        ["fox", "--group", "cyclic:2 x class2:2,2", "--H", "(x,1),(1,x),(1,y)", "--n", "1"],
        [
            "dim3",
            "--group",
            "cyclic:2 x cyclic:2 x cyclic:2",
            "--K",
            "((x,1),x),((1,x),1)",
            "--nseries",
            "((x,1),1),((1,x),x);((x,1),1)",
        ],
    ],
)
def test_cli_reads_the_element_names_of_direct_products(capsys, argv):
    """A direct product's element names hold commas, so a list of them is
    cut only at the commas outside parentheses: in --K, --H and each level
    of a series."""
    assert cli_main(argv) == 0, capsys.readouterr().err


def test_element_lists_of_a_product_name_each_element():
    G = build_group("cyclic:2 x cyclic:2 x cyclic:2")
    names = ["((x,1),x)", "((1,x),1)"]
    assert _generated(G, ",".join(names)) == _generated(G, names)
    assert len(_generated(G, " ((x,1),x) , ,((1,x),1)")) == 4
    N = resolve_series(G, "((x,1),1),((1,x),x);((x,1),1)")
    assert [len(t) for t in N.chain] == [8, 4, 2]


def test_cli_unknown_flag():
    assert cli_main(["dim3", "--nope"]) == 2


def test_cli_unknown_group(capsys):
    assert cli_main(["group", "show", "nosuch:4"]) == 2


def test_cli_example_2_4(capsys):
    code = cli_main(["example-2-4", "--p", "2", "--r", "1", "--s", "1", "--json"])
    out = capsys.readouterr().out
    data = json.loads(out)
    assert code == 0
    assert data["extra"]["z_in_brute"] is True
    assert data["counterexample"] is True
    assert data["equal"] is True


def test_cli_fox(capsys):
    code = cli_main(
        ["fox", "--group", "dihedral:4", "--H", "r,f", "--K", "", "--n", "1", "--ring", "Z"]
    )
    assert code == 0


def test_cli_example_2_4_at_order_729_needs_no_flag(capsys):
    """The order-729 member of the family runs under the group order cap
    alone: verified, with the slice {1, c3, c6} strictly above K_2G_3."""
    code = cli_main(["example-2-4", "--p", "3", "--r", "1", "--s", "1", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["equal"] and all(data["containments"].values())
    assert data["counterexample"] is True
    assert data["lhs"] == ["1", "c3", "c6"]


@pytest.mark.parametrize(
    "argv",
    [
        ["dim3", "--group", "cyclic:2", "--slow"],
        ["fox", "--group", "cyclic:2", "--n", "0", "--slow"],
        ["example-2-4", "--p", "2", "--r", "1", "--s", "1", "--slow"],
    ],
)
def test_cli_has_no_slow_flag(capsys, argv):
    assert cli_main(argv) == 2
    assert "unrecognized arguments: --slow" in capsys.readouterr().err


def test_dim3_reduction_check_runs_on_an_order_729_quotient():
    """The reduction check slices G/N_3, which for class2:3,1 with the lower
    central series is all 729 elements, under no cap but the group's."""
    case = {"kind": "dim3", "group": "class2:3,1", "K": [], "series": "gamma", "m": 0, "check_reduction": True}
    report = run_case(case)
    assert report_ok(report) and report["extra"]["reduction_agrees"] is True


@pytest.mark.slow
@pytest.mark.parametrize(
    "case",
    [
        {"kind": "dim3", "group": "dihedral:512", "K": "r", "m": 0},
        {"kind": "dim3", "group": "dihedral:512", "K": "r", "m": 4},
        {"kind": "dim3", "group": "cyclic:2 x class2:2,2", "K": [], "m": 4, "check_reduction": True},
        {"kind": "dim3", "group": "cyclic:1024", "K": [], "m": 4},
        {"kind": "fox", "group": "cyclic:2 x class2:2,2", "H": ["(x,1)", "(1,x)", "(1,y)"], "K": [], "n": 1, "m": 0},
        {"kind": "fox", "group": "dihedral:512", "H": "r", "K": "f", "n": 2, "m": 0},
    ],
)
def test_cases_of_order_512_to_1024_verify(case):
    """Cases at orders 512-1024 verify, with the group order cap (1024) as
    the only size guard."""
    report = run_case(case)
    assert report_ok(report), report["witnesses"]
    assert report["extra"].get("reduction_agrees", True) is True


def test_cli_homology(capsys):
    assert cli_main(["homology", "lemma2.8", "--shape", "4", "--m", "2"]) == 0
    assert cli_main(["homology", "lemma2.7", "--shape", "4", "--B", "2"]) == 0
    assert cli_main(["homology", "thm2.6", "--group", "dihedral:4", "--K", "r2"]) == 0
    assert (
        cli_main(
            ["homology", "lemma2.5", "--group", "dihedral:4", "--K", "r2", "--ring", "Z/2"]
        )
        == 0
    )


def test_cli_group_show(capsys):
    code = cli_main(["group", "show", "quaternion:8"])
    out = capsys.readouterr().out
    data = json.loads(out)
    assert code == 0 and data["order"] == 8 and data["exponent"] == 4


def test_cli_corpus_config(tmp_path, capsys):
    cfg = {
        "groups": ["cyclic:4"],
        "moduli": [0, 2],
        "theorems": ["dim3"],
        "include_counterexample": False,
        "extra_series": False,
    }
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(cfg))
    code = cli_main(["corpus", "--config", str(path)])
    out = capsys.readouterr().out
    assert code == 0 and "failures: 0" in out
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert cli_main(["corpus", "--config", str(bad)]) == 2


@pytest.mark.parametrize(
    "bad, named",
    [
        ({"theorems": ["dim"]}, "theorems entry 'dim'"),
        ({"groups": ["cyclic:2"], "moduli": [0, 1]}, "moduli entry 1"),
        ({"groups": ["cyclic:2"], "fox_weights": [3]}, "fox_weights entry 3"),
        ({"subgroup_policy": "conjugacy"}, "subgroup_policy 'conjugacy'"),
        ({"moduli": 2}, "moduli has the wrong type"),
        ({"moduli": [False]}, "moduli entry False"),
        ({"max_group_order": "16"}, "max_group_order has the wrong type"),
        ({"max_group_order": True}, "max_group_order has the wrong type"),
        ({"groups": "cyclic:2"}, "groups has the wrong type"),
        ({"theorems": []}, "theorems=[]"),
        ({"groups": ["cyclic:2"], "subgroup_policy": "explicit"}, "group 'cyclic:2' has no"),
        ({"explicit_subgroups": {"cyclic:4": ["x2"]}}, "entry for 'cyclic:4' is not a list"),
        ({"explicit_subgroups": {"cyclic:4": [[2]]}}, "entry for 'cyclic:4' is not a list"),
        (
            {
                "groups": ["cyclic:4"],
                "subgroup_policy": "explicit",
                "explicit_subgroups": {"cyclic:4": [["zzz"]]},
            },
            "entry for 'cyclic:4': unknown element 'zzz'",
        ),
        (
            {
                "groups": ["cyclic:4"],
                "moduli": [0],
                "theorems": ["dim3"],
                "include_counterexample": False,
                "explicit_subgroups": {"cyclic:4": [["zzz"]]},
            },
            "explicit_subgroups entries for ['cyclic:4'] are never read under subgroup_policy 'cyclic'",
        ),
        (
            {
                "groups": ["cyclic:4"],
                "moduli": [0],
                "theorems": ["dim3"],
                "include_counterexample": False,
                "subgroup_policy": "all",
                "explicit_subgroups": {"cyclic:4": [["zzz"]]},
            },
            "explicit_subgroups entry for 'cyclic:4': unknown element 'zzz'",
        ),
        (
            {
                "groups": ["cyclic:4"],
                "subgroup_policy": "explicit",
                "explicit_subgroups": {"cyclic:4": [["x"]], "cyclc:8": [["x"]]},
            },
            "explicit_subgroups key 'cyclc:8' is not in groups",
        ),
        (
            {
                "groups": ["cyclic:4", "cyclic:32"],
                "subgroup_policy": "all",
                "explicit_subgroups": {"cyclic:32": [["x99"]]},
            },
            "explicit_subgroups entry for 'cyclic:32': unknown element 'x99'",
        ),
        ({"include_counterexample": "false"}, "include_counterexample has the wrong type"),
        ({"extra_series": "no"}, "extra_series has the wrong type"),
        ({"groups": [{"perm_gens": [[[0, 1]]]}]}, "groups entry {'perm_gens'"),
        (["cyclic:4"], "corpus config is not a JSON object"),
        # keys that name a CorpusConfig method rather than a field
        ({"validate": 1}, "unknown corpus config key 'validate'"),
        ({"from_dict": 0, "groups": ["cyclic:2"]}, "unknown corpus config key 'from_dict'"),
        ({"groups": ["cyclic:2"], "fox_weights": [True]}, "fox_weights entry True"),
        ({"groups": ["cyclic:2"], "fox_weights": [1.0]}, "fox_weights entry 1.0"),
    ],
)
def test_cli_corpus_rejects_bad_config(tmp_path, capsys, monkeypatch, bad, named):
    import dimfox.verify as verify

    def no_case(case):
        raise AssertionError(f"case {case} ran on a bad config")

    monkeypatch.setattr(verify, "run_case", no_case)
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(bad))
    assert cli_main(["corpus", "--config", str(path)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("jobs", [1, 2])
def test_raising_case_becomes_failure_report(monkeypatch, jobs):
    import dimfox.verify as verify

    real = verify.run_case

    def raise_on_3(case):
        if case["id"] == 3:
            raise RuntimeError("boom on purpose")
        return real(case)

    monkeypatch.setattr(verify, "run_case", raise_on_3)
    cfg = CorpusConfig(
        groups=["cyclic:4"], moduli=[0, 2], theorems=["dim3"], include_counterexample=False, jobs=jobs
    )
    result = run_corpus(cfg)
    assert len(result.reports) == len(build_cases(cfg)) > 3
    assert [f["case"]["id"] for f in result.failures] == [3]
    assert result.failures[0]["extra"]["error"] == "RuntimeError: boom on purpose"
    assert "raise_on_3" in result.failures[0]["extra"]["traceback"]


def test_cli_nseries_argument(capsys):
    code = cli_main(
        ["dim3", "--group", "dihedral:4", "--K", "", "--nseries", "r2;1", "--ring", "Z"]
    )
    assert code == 0
    code2 = cli_main(
        ["dim3", "--group", "dihedral:4", "--K", "", "--nseries", "double", "--ring", "Z/2"]
    )
    assert code2 == 0
    # invalid chain: [G, G] ceases to be descending-with-commutators at (1, 2)
    code3 = cli_main(["dim3", "--group", "dihedral:4", "--K", "", "--nseries", "r,f;1"])
    assert code3 == 2


def test_case_elements_are_names_indices_or_one_string():
    D4 = build_group("dihedral:4")
    r2, f = D4.index_of("r2"), D4.index_of("f")
    base = {"kind": "dim3", "group": "dihedral:4", "series": "gamma", "m": 0}
    same = [run_case({**base, "K": K}) for K in (["r2", "f"], [r2, f], "r2, f", "r2,f,1,", [" r2", "f", "1"])]
    assert all(r["lhs"] == same[0]["lhs"] and r["rhs"] == same[0]["rhs"] for r in same)
    assert run_case({**base, "K": "1"})["lhs"] == run_case({**base, "K": []})["lhs"]
    # "1" is the identity even where no element is named "1" (element 1 is p1 here)
    C2 = '{"perm_gens": [[[0, 1]]]}'
    assert run_case({"kind": "fox", "group": C2, "H": "1", "K": [], "n": 0, "m": 0})["lhs"] == ["p0"]
    dim3 = {"kind": "dim3", "group": C2, "K": [], "m": 0}
    assert run_case({**dim3, "series": "1"})["lhs"] == run_case({**dim3, "series": "p0"})["lhs"] == ["p0"]
    assert run_case({**dim3, "series": "p1"})["lhs"] == ["p0", "p1"]
    for bad in ([True], [1.0], [[0]], ["zzz"], [99]):
        with pytest.raises(GroupError):
            run_case({**base, "K": bad})


def test_run_case_takes_the_cli_caps(monkeypatch):
    import dimfox.groups as groups

    case = {"kind": "dim3", "group": "dihedral:4", "K": [], "series": "gamma", "m": 0}
    with pytest.raises(GroupError, match="exceeds the cap 4"):
        run_case(case, max_order=4)
    # the group order cap refuses the order-729 flagship before its table is built
    def no_table(*args):
        raise AssertionError("a table was built before the group order cap refused it")

    monkeypatch.setattr(groups, "_built", {})
    monkeypatch.setattr(groups, "_class2", no_table)
    flagship = {"kind": "counterexample", "p": 3, "r": 1, "s": 1}
    with pytest.raises(GroupError, match="group order 729 exceeds the cap 512"):
        run_case(flagship, max_order=512)


# The `dimfox` examples of the README whose verbs run a case.
README_CASE_COMMANDS = [
    ["dim3", "--group", "cyclic:2 x cyclic:4", "--K", "", "--ring", "Z/4"],
    ["dim3", "--group", "quaternion:8", "--K", "x2", "--nseries", "x;x2;1", "--ring", "Z", "--check-reduction"],
    ["fox", "--group", "dihedral:4", "--H", "r,f", "--K", "r2", "--n", "2", "--ring", "Z/2"],
    ["homology", "thm2.6", "--group", "class2:2,1", "--K", "c"],
    ["homology", "lemma2.5", "--group", "dihedral:4", "--K", "r2", "--ring", "Z/2"],
    ["example-2-4", "--p", "2", "--r", "1", "--s", "1"],
]


@pytest.mark.parametrize("argv", README_CASE_COMMANDS, ids=lambda a: " ".join(a[:2]))
def test_cli_verb_runs_its_case_through_run_case_once(monkeypatch, capsys, argv):
    import dimfox.cli as cli

    calls = []

    def counted(case, **caps):
        calls.append(case)
        return run_case(case, **caps)

    monkeypatch.setattr(cli, "run_case", counted)
    assert cli_main(argv) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv", README_CASE_COMMANDS, ids=lambda a: " ".join(a[:2]))
def test_cli_report_case_replays_through_run_case(capsys, argv):
    assert cli_main(argv + ["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    replay = run_case(report["case"])
    for key in ("lhs", "rhs", "equal", "containments"):
        assert replay[key] == report[key], key


def test_counterexample_verdict_needs_z_in_the_slice(monkeypatch):
    """A z outside the brute slice fails the counterexample case, in the
    corpus and on the command line alike."""
    import dimfox.verify as verify

    real = verify.make_counterexample

    def wrong_z(*args, **kwargs):
        G, K, _ = real(*args, **kwargs)
        return G, K, G.generators[0]  # x lies outside D_3 = {1, [x,y]^2}

    monkeypatch.setattr(verify, "make_counterexample", wrong_z)
    cfg = CorpusConfig(groups=["cyclic:2"], moduli=[0], theorems=["dim3"], extra_series=False)
    result = run_corpus(cfg)
    assert [f["case"]["kind"] for f in result.failures] == ["counterexample"]
    failed = result.failures[0]
    assert failed["containments"]["z_in_brute"] is False and failed["extra"]["z_in_brute"] is False
    assert failed["containments"]["strictly_exceeds_k2n3"] is True
    assert cli_main(["example-2-4", "--p", "2", "--r", "1", "--s", "1"]) == 1


def _group_fingerprint(G) -> str:
    comm = [[G.comm(a, b) for b in G.elements()] for a in G.elements()]
    tables = [G.table, G.inverse, list(G.generators), G.mul_cols(), G.power_rows(), comm]
    return hashlib.sha256(json.dumps(tables).encode()).hexdigest()


def test_corpus_output_is_the_same_on_a_cold_and_a_warm_group_memo(monkeypatch):
    """Cases share the groups that build_group keeps; no case writes to one.
    A run on a cleared memo and a run on the memo it leaves give the same
    output, and after each run every kept group's tables hash the same as
    those of a fresh build of its spec."""
    import dimfox.groups as groups

    cfg = CorpusConfig(groups=["cyclic:6", "dihedral:4", "quaternion:8"], moduli=[0, 2])
    monkeypatch.setattr(groups, "_built", {})
    cold = run_corpus(cfg)
    kept = dict(groups._built)
    assert sorted(kept) == ["class2:2,1", "cyclic:6", "dihedral:4", "quaternion:8"]
    after_cold = {spec: _group_fingerprint(G) for spec, G in kept.items()}
    warm = run_corpus(cfg)
    assert cold.ok and warm.to_json(include_timings=False) == cold.to_json(include_timings=False)
    assert groups._built == kept and all(groups._built[spec] is G for spec, G in kept.items())
    after_warm = {spec: _group_fingerprint(G) for spec, G in kept.items()}
    monkeypatch.setattr(groups, "_built", {})
    fresh = {spec: _group_fingerprint(build_group(spec)) for spec in kept}
    assert after_cold == after_warm == fresh


@pytest.mark.parametrize("m", [0, 2])
def test_fox_weight_0_fails_on_a_module_that_is_too_large(monkeypatch, m):
    """The weight-0 slice runs over all of G, so a module larger than
    R(G)I(H), here I(G), gives a failed report instead of a pass."""
    import dimfox.groupring as groupring

    real = groupring.fox_module

    def too_large(G, H, K, n, ring):
        return augmentation_ideal(G, whole_group(G), ring) if n == 0 else real(G, H, K, n, ring)

    case = {"kind": "fox", "group": "dihedral:4", "H": ["r"], "K": [], "n": 0, "m": m}
    assert run_case(case)["equal"]
    monkeypatch.setattr(groupring, "fox_module", too_large)
    report = run_case(case)
    assert not report["equal"] and report["lhs"] == sorted(build_group("dihedral:4").names)
    assert report["witnesses"] == ["f", "r2f", "r3f", "rf"]


def test_every_report_of_a_small_corpus_has_a_positive_time():
    cfg = CorpusConfig(groups=["cyclic:2", "cyclic:4", "dihedral:4"], moduli=[0, 2], fox_weights=[0, 1])
    result = run_corpus(cfg)
    assert result.ok and len(result.reports) > 50
    for r in result.reports:
        assert isinstance(r["ms"], float) and r["ms"] > 0, r["case"]
    assert not any("ms" in r for r in json.loads(result.to_json(include_timings=False))["reports"])


# -- fuzz of campaign configs ---------------------------------------------------

_FUZZ_KEYS = [
    "groups", "subgroup_policy", "explicit_subgroups", "moduli", "theorems", "fox_weights",
    "include_counterexample", "extra_series", "max_group_order", "jobs", "bogus",
]
_FUZZ_VALUES = [
    None, True, False, 0, 1, 2, 16, -1, "", "false", "no", "cyclic", "all", "explicit", "dim3",
    "cyclic:4", "cyclc:4", "cyclic:3000", '{"perm_gens": [[[0, 1]]]}', '{"perm_gens"',
    [], [0], [0, 2], [0, 1], [True], [3], ["dim3"], ["fox", "dim3"], ["x"], [["x"]],
    ["cyclic:4"], ["cyclic:4", "dihedral:3"], ['{"perm_gens": [[[0, 1, 2]]]}'], [{"perm_gens": [[[0, 1]]]}],
    [["cyclic:4"]], {}, {"cyclic:4": [["x"]]}, {"cyclic:4": [["zzz"]]}, {"cyclic:4": ["x"]},
    {"perm_gens": [[[0, 1]]]},
]
_fuzz_value = st.sampled_from(_FUZZ_VALUES)
_fuzz_config = st.one_of(
    st.dictionaries(st.sampled_from(_FUZZ_KEYS), _fuzz_value, max_size=5),
    _fuzz_value,
)


@settings(max_examples=200, deadline=None)
@given(data=_fuzz_config)
def test_corpus_config_fuzz(data):
    """A config either yields cases whose every field has its declared type,
    or is refused with a GroupError; no other exception escapes."""
    try:
        cases = build_cases(CorpusConfig.from_dict(data))
    except GroupError:
        return
    assert cases
    cfg = CorpusConfig.from_dict(data)
    assert isinstance(cfg.include_counterexample, bool) and isinstance(cfg.extra_series, bool)
    assert all(isinstance(spec, str) for spec in cfg.groups)


@settings(max_examples=100, deadline=None, suppress_health_check=list(HealthCheck))
@given(data=_fuzz_config)
def test_cli_corpus_config_fuzz(tmp_path, monkeypatch, capsys, data):
    """The CLI answers every config with exit 0 or 2, never a traceback;
    with every case stubbed to pass, exit 0 means the config was valid."""
    import dimfox.verify as verify

    monkeypatch.setattr(verify, "run_case", lambda case: Report([], [], True, case=case).to_dict())
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(data))
    code = cli_main(["corpus", "--config", str(path)])
    capsys.readouterr()
    try:
        build_cases(CorpusConfig.from_dict(data))
        valid = True
    except GroupError:
        valid = False
    assert code == (0 if valid else 2)


# -- fuzz of the case verbs' arguments -------------------------------------------

_VERB_NAMES = {spec: build_group(spec).names for spec in ["cyclic:4", "dihedral:4", "cyclic:2 x cyclic:2"]}
_BAD_K = ["zzz", ",", "r2,,", "99", "x;1", "x,zzz"]
_BAD_POW = ["pow0", "pow1", "pow4", "pow6", "pow", "powx", "pow-2", "pow 2", "pow2.0", "pow" + "7" * 13]
_SERIES_TAGS = ["gamma", "", "double", "pow2", "pow3", "pow5", "x2;1", "r2;1", "r,f;1", "zzz;1", "1", *_BAD_POW]
_RINGS = ["Z", "Z/2", "Z/3", "Z/4", "Z/6", "4", "0", "Z/1", "Z/0", "Z/x", "Q", "Z/-2", ""]


@st.composite
def _verb_argv(draw):
    group = draw(st.sampled_from(sorted(_VERB_NAMES)))
    names = st.lists(st.sampled_from(_VERB_NAMES[group]), max_size=2).map(",".join)
    tokens = st.one_of(names, names, st.sampled_from(_BAD_K))
    K, ring = draw(tokens), draw(st.sampled_from(_RINGS))
    verb = draw(st.sampled_from(["dim3", "fox", "lemma2.5"]))
    if verb == "fox":
        H, n = draw(tokens), draw(st.sampled_from(["0", "1", "2", "3"]))
        return ["fox", "--group", group, "--H", H, "--K", K, "--n", n, "--ring", ring]
    tag = draw(st.sampled_from(_SERIES_TAGS))
    head = ["dim3"] if verb == "dim3" else ["homology", "lemma2.5"]
    return head + ["--group", group, "--K", K, "--nseries", tag, "--ring", ring]


@settings(max_examples=150, deadline=None, suppress_health_check=list(HealthCheck))
@given(argv=_verb_argv())
def test_case_verb_argument_fuzz(capsys, argv):
    """Every dim3, fox and lemma2.5 command exits 0, 1 or 2 with no
    exception escaping main, and a powP tag whose P is not a prime exits 2."""
    code = cli_main(argv)
    capsys.readouterr()
    assert code in (0, 1, 2)
    if "--nseries" in argv and argv[argv.index("--nseries") + 1] in _BAD_POW:
        assert code == 2


def test_resolve_series_refuses_a_pow_tag_without_a_prime():
    C6 = build_group("cyclic:6")
    assert [len(t) for t in resolve_series(C6, "pow3").chain] == [6, 2]
    for tag in _BAD_POW:
        with pytest.raises(GroupError, match="powP needs a prime"):
            resolve_series(C6, tag)
    assert cli_main(["dim3", "--group", "cyclic:4", "--K", "", "--nseries", "pow"]) == 2


@pytest.mark.parametrize("n", [True, 1.0, 3])
def test_fox_case_refuses_a_weight_that_is_not_0_1_or_2(n):
    """A case dict's weight reaches the brute side as it is: a bool or a
    float is refused by name, never run as weight 1 or failed with a
    TypeError deep in the module build."""
    case = {"kind": "fox", "group": "cyclic:4", "H": "x", "K": "", "n": n, "m": 0}
    with pytest.raises(GroupError, match=re.escape(f"fox subgroup weight {n!r}: implemented for n in {{0, 1, 2}}")):
        run_case(case)
