"""A digest of every verdict of a corpus run: one line per (group, kind),
tab-separated, with the case count, the pass count and the sha256 of the
reports with their timings (`ms`) and case ids stripped.

    PYTHONPATH=src python tests/corpus_digest.py > tests/corpus_digest.txt

writes the committed digest of the default corpus.  A change that moves a
verdict on purpose regenerates the file and says which lines moved.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from dimfox.verify import CorpusConfig, CorpusResult, report_ok, run_corpus

DIGEST_FILE = Path(__file__).with_name("corpus_digest.txt")


def _group_of(case: dict) -> str:
    """The group spec of a case; a counterexample case runs on class2:p,s."""
    return case["group"] if "group" in case else f"class2:{case['p']},{case['s']}"


def digest(result: CorpusResult) -> dict[tuple[str, str], str]:
    """(group, kind) -> "cases<TAB>passes<TAB>sha256", over the reports in
    case order.  Case ids are stripped with the timings, so a run of a
    subset of the groups gives the same lines for the groups it runs."""
    parts: dict[tuple[str, str], list] = {}
    for r in sorted(result.reports, key=lambda r: r["case"]["id"]):
        report = {k: v for k, v in r.items() if k != "ms"}
        report["case"] = {k: v for k, v in r["case"].items() if k != "id"}
        parts.setdefault((_group_of(r["case"]), r["case"]["kind"]), []).append(report)
    out = {}
    for key, reports in parts.items():
        text = "\n".join(json.dumps(r, sort_keys=True) for r in reports)
        sha = hashlib.sha256(text.encode()).hexdigest()
        out[key] = f"{len(reports)}\t{sum(map(report_ok, reports))}\t{sha}"
    return out


def read_digest(path: Path = DIGEST_FILE) -> dict[tuple[str, str], str]:
    out = {}
    for line in path.read_text().splitlines():
        group, kind, rest = line.split("\t", 2)
        out[(group, kind)] = rest
    return out


def moved(expected: dict, got: dict) -> list[str]:
    """Each (group, kind) whose line differs, or that only one side has."""
    return [f"{g} {k}" for g, k in sorted(expected.keys() | got.keys()) if expected.get((g, k)) != got.get((g, k))]


def main() -> int:
    for (group, kind), rest in sorted(digest(run_corpus(CorpusConfig())).items()):
        sys.stdout.write(f"{group}\t{kind}\t{rest}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
