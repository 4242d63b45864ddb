"""Verification drivers, corpus runs, and the command-line interface."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dimfox.cli import main as cli_main
from dimfox.groupring import CoeffRing
from dimfox.groups import (
    GroupError,
    build_group,
    generated_subgroup,
    lower_central_series,
    make_counterexample,
    trivial_subgroup,
    whole_group,
)
from dimfox.verify import (
    CorpusConfig,
    Report,
    build_cases,
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
    assert r1.equal and r1.containments["module_forms_agree"]
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
    with pytest.raises(Exception):
        verify_four_term(D4, K, lower_central_series(D4))


def test_verify_polynomial_sequence_cases():
    for spec, kgens, m in [("dihedral:4", [2], 0), ("dihedral:4", [2], 2), ("cyclic:6", [2], 3)]:
        G = build_group(spec)
        K = generated_subgroup(G, kgens)
        ring = Z if m == 0 else CoeffRing.mod(m)
        r = verify_polynomial_sequence(G, K, lower_central_series(G), ring)
        assert r.equal, (spec, m)


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

    G = build_group("cyclic:4")
    N = resolve_series(G, "gamma")
    ring = CoeffRing.mod(2)
    ctx = FormulaContext(G, trivial_subgroup(G), ring, N)
    f = dim3_formula(ctx)
    literal = dim3_sigma_route(ctx, literal_z2=True)
    assert literal != dim3_sigma_route(ctx)  # the readings genuinely differ here
    brute = dim_subgroup_brute(G, trivial_subgroup(G), N, 3, ring)
    assert f.result == brute
    assert literal != brute  # the literal reading would be wrong


def test_verify_dim3_checks_brute_cap_before_formula(monkeypatch):
    import dimfox.verify as verify

    def no_formula(ctx):
        raise AssertionError("dim3_formula ran before the brute-force cap was checked")

    monkeypatch.setattr(verify, "dim3_formula", no_formula)
    G = build_group("dihedral:4")
    with pytest.raises(GroupError, match="capped at order 4"):
        verify_dim3(G, trivial_subgroup(G), lower_central_series(G), Z, max_order=4)


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


def test_cli_slow_tier_gate(capsys):
    # order 729 exceeds the default brute cap; the flag lifts it
    code = cli_main(["example-2-4", "--p", "3", "--r", "1", "--s", "1"])
    err = capsys.readouterr().err
    assert code == 2 and "capped" in err


@pytest.mark.slow
def test_counterexample_p3_verified():
    """The order-729 member of the family, with the brute-force cap lifted."""
    G, K, _ = make_counterexample(3, 1, 1)
    r = verify_dim3(G, K, lower_central_series(G), Z, max_order=G.order)
    assert r.ok and r.counterexample
    assert r.lhs == ["1", "c3", "c6"]


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


def test_run_case_takes_the_cli_caps():
    case = {"kind": "dim3", "group": "dihedral:4", "K": [], "series": "gamma", "m": 0}
    with pytest.raises(GroupError, match="exceeds the cap 4"):
        run_case(case, max_order=4)
    flagship = {"kind": "counterexample", "p": 3, "r": 1, "s": 1}
    with pytest.raises(GroupError, match="capped at order"):
        run_case(flagship)
    with pytest.raises(GroupError, match="group order 729 exceeds the cap 512"):
        run_case(flagship, max_order=512, slow=True)


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
