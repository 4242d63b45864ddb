"""Command-line interface.

Exit codes: 0 all checks verified, 1 a mismatch was found, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .abelian import (
    AbelianError,
    FgAb,
    check_torsion_square_kernel,
    check_wedge_kernel_identity,
)
from .groups import CoeffRing, GroupError, build_group
from .verify import CorpusConfig, report_ok, run_case, run_corpus

OK, MISMATCH, BAD_INPUT = 0, 1, 2


def _run(case: dict, args) -> int:
    """Run a case through run_case and print its report."""
    report = run_case(case, max_order=args.max_order)
    ok = report_ok(report)
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=1))
    else:
        print(f"{'VERIFIED' if ok else 'MISMATCH'}  case={report['case']}")
        print(f"  lhs (brute):   {report['lhs']}")
        print(f"  rhs (formula): {report['rhs']}")
        for key, value in report["containments"].items():
            print(f"  {key}: {value}")
        if report["counterexample"]:
            print("  note: result strictly exceeds K_2 N_3")
        if report["witnesses"]:
            print(f"  witnesses: {report['witnesses']}")
        for key, value in report["extra"].items():
            print(f"  {key}: {value}")
        print(f"  ms: {report['ms']}")
    return OK if ok else MISMATCH


def _cmd_group_show(args) -> int:
    print(json.dumps(build_group(args.spec, max_order=args.max_order).summary(), indent=1))
    return OK


def _modulus(ring: str) -> int:
    return CoeffRing.parse(ring).modulus


def _cmd_dim3(args) -> int:
    case = {"kind": "dim3", "group": args.group, "K": args.K, "series": args.nseries}
    return _run({**case, "m": _modulus(args.ring), "check_reduction": args.check_reduction}, args)


def _cmd_fox(args) -> int:
    case = {"kind": "fox", "group": args.group, "H": args.H, "K": args.K, "n": args.n, "m": _modulus(args.ring)}
    return _run(case, args)


def _cmd_homology(args) -> int:
    check = args.check
    if check in ("lemma2.7", "lemma2.8"):
        A = FgAb(tuple(int(d) for d in args.shape.split(",") if d.strip()))
        if check == "lemma2.7":
            gens = []
            if args.B:
                for tok in args.B.split(";"):
                    gens.append([int(x) for x in tok.split(",")])
            result = check_wedge_kernel_identity(A, gens)
        else:
            result = check_torsion_square_kernel(A, args.m)
        payload = {"check": check, "ok": result.ok, **result.detail}
        if args.json:
            print(json.dumps(payload, sort_keys=True, indent=1))
        else:
            print(("VERIFIED " if result.ok else "MISMATCH ") + str(payload))
        return OK if result.ok else MISMATCH
    case = {"group": args.group, "K": args.K, "series": args.nseries}
    kind = "four_term" if check == "thm2.6" else "polynomial"
    return _run({"kind": kind, **case, "m": _modulus(args.ring)}, args)


def _cmd_example_2_4(args) -> int:
    return _run({"kind": "counterexample", "p": args.p, "r": args.r, "s": args.s}, args)


def _cmd_corpus(args) -> int:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = CorpusConfig.from_dict(json.load(fh))
    else:
        cfg = CorpusConfig()
    if args.jobs:
        cfg.jobs = args.jobs
    result = run_corpus(cfg)
    if args.json:
        print(result.to_json())
    else:
        print(f"cases: {len(result.reports)}  failures: {len(result.failures)}")
        for r in result.failures[:20]:
            error = r["extra"].get("error")
            print("FAIL", r["case"], *([f"error: {error}"] if error else []))
        flagged = [r for r in result.reports if r.get("counterexample")]
        print(f"counterexample flags: {len(flagged)}")
    return OK if result.ok else MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimfox",
        description=(
            "Exact-arithmetic workbench for third dimension subgroups and "
            "second Fox subgroups of finite groups: brute-force group-ring "
            "linear algebra checked against closed formulas."
        ),
    )
    parser.add_argument("--max-order", type=int, default=1024, help="group order cap")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("group", help="inspect groups")
    gsub = g.add_subparsers(dest="group_command", required=True)
    gshow = gsub.add_parser("show", help="build a group and print its data")
    gshow.add_argument("spec")
    gshow.set_defaults(func=_cmd_group_show)

    d = sub.add_parser("dim3", help="verify the third dimension subgroup formula")
    d.add_argument("--group", required=True)
    d.add_argument("--K", default="", help="comma-separated generators")
    d.add_argument("--nseries", default="gamma")
    d.add_argument("--ring", default="Z", help="Z or Z/m")
    d.add_argument("--check-reduction", action="store_true")
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=_cmd_dim3)

    f = sub.add_parser("fox", help="verify a relative Fox subgroup formula")
    f.add_argument("--group", required=True)
    f.add_argument("--H", default="")
    f.add_argument("--K", default="")
    f.add_argument("--n", type=int, choices=(0, 1, 2), required=True)
    f.add_argument("--ring", default="Z")
    f.add_argument("--json", action="store_true")
    f.set_defaults(func=_cmd_fox)

    h = sub.add_parser("homology", help="abelian-homology and exact-sequence checks")
    h.add_argument("check", choices=("lemma2.7", "lemma2.8", "thm2.6", "lemma2.5"))
    h.add_argument("--shape", default="", help="invariant factors of A, e.g. 2,4")
    h.add_argument("--B", default="", help="subgroup generators, e.g. 2;0,2")
    h.add_argument("--m", type=int, default=0)
    h.add_argument("--group", default="")
    h.add_argument("--K", default="")
    h.add_argument("--nseries", default="gamma")
    h.add_argument("--ring", default="Z")
    h.add_argument("--json", action="store_true")
    h.set_defaults(func=_cmd_homology)

    e = sub.add_parser("example-2-4", help="reproduce the strict-inclusion family")
    e.add_argument("--p", type=int, required=True)
    e.add_argument("--r", type=int, required=True)
    e.add_argument("--s", type=int, required=True)
    e.add_argument("--json", action="store_true")
    e.set_defaults(func=_cmd_example_2_4)

    c = sub.add_parser("corpus", help="run a verification campaign")
    c.add_argument("--config", default="")
    c.add_argument("--jobs", type=int, default=0)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_corpus)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return BAD_INPUT if exc.code not in (0, None) else OK
    try:
        return args.func(args)
    except (GroupError, AbelianError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
