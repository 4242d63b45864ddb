"""Static checks over the package source."""

import ast
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dimfox"


def _names(node: ast.AST) -> Counter:
    """Every identifier read or written under node, as a Name or an attribute."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name] += 1
    return found


def _defs(tree: ast.Module):
    """Module-level functions and methods (dunders excluded)."""
    for node in tree.body:
        defs = node.body if isinstance(node, ast.ClassDef) else [node]
        for d in defs:
            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)) and not d.name.startswith("__"):
                yield d


def _unreferenced(trees: dict, readers: list, private: bool) -> list[str]:
    """Defs of the given kind in trees whose name no reader mentions outside the def itself."""
    total = Counter()
    for tree in readers:
        total.update(_names(tree))
    return [
        f"{name}:{d.lineno} {d.name}"
        for name, tree in trees.items()
        for d in _defs(tree)
        if d.name.startswith("_") == private and total[d.name] - _names(d)[d.name] == 0
    ]


def _parse(paths) -> dict:
    return {path.name: ast.parse(path.read_text()) for path in sorted(paths)}


def test_every_private_function_is_referenced():
    trees = _parse(SRC.glob("*.py"))
    assert trees, f"no sources under {SRC}"
    unused = _unreferenced(trees, list(trees.values()), private=True)
    assert not unused, f"private functions with no reference outside their own body: {unused}"


def test_every_public_function_is_referenced():
    """A public function or method that only its own body names is dead code.

    Readers are src/dimfox (less the __init__.py re-exports), tests/ and
    perfbench/.  Names are matched textually, so a method whose name some
    unrelated call also uses (say numpy's .copy()) still passes.
    """
    trees = _parse(SRC.glob("*.py"))
    readers = [tree for name, tree in trees.items() if name != "__init__.py"]
    for folder in (ROOT / "tests", ROOT / "perfbench"):
        readers += list(_parse(folder.glob("*.py")).values())
    unused = _unreferenced(trees, readers, private=False)
    assert not unused, f"public functions with no reference outside their own body: {unused}"


# Public functions and methods that no module of src/dimfox names outside
# their own body, each with the file that reads it and what for.
KEPT_FOR_OUTSIDE_READERS = {
    "all_invariant_shapes": ("perfbench/workloads.py", "the shapes of the homology workload's lemma checks"),
    "corollary_hypotheses": ("tests/test_acceptance.py", "the corollary's hypotheses in the acceptance criteria"),
    "translate_closure": ("perfbench/run.py", "a FUNCTION_STATS name; the tests compose modules with it"),
    "intersect_lattices": ("perfbench/run.py", "a FUNCTION_STATS name; tests/test_verify.py's middle-kernel reference"),
    "triple": ("tests/test_abelian.py", "evaluates Tor triples against the connecting map"),
    "is_zero": ("tests/test_groupring.py", "zero-module assertions"),
    "abstract": ("tests/test_formulas.py", "builds the characteristic-0 sigma rings"),
    "conj": ("perfbench/workloads.py", "conjugates the subgroup generators of the large workload"),
    "member_names": ("perfbench/workloads.py", "names K_2G_3 of the flagship in a problem report"),
}


def _unused_in_src(trees: dict) -> set[str]:
    readers = [tree for name, tree in trees.items() if name != "__init__.py"]
    return {entry.split()[-1] for entry in _unreferenced(trees, readers, private=False)}


def test_every_public_function_unused_in_src_is_allowlisted():
    """A public function or method that no src module names outside its own
    body is either deleted or listed in KEPT_FOR_OUTSIDE_READERS with the
    file that reads it; a listed name that src now calls, or that its
    reader no longer names, is dropped from the list."""
    unused = _unused_in_src(_parse(SRC.glob("*.py")))
    allowed = set(KEPT_FOR_OUTSIDE_READERS)
    assert not unused - allowed, f"public functions used only outside src, not allowlisted: {sorted(unused - allowed)}"
    assert not allowed - unused, f"allowlisted functions that src now names or that are gone: {sorted(allowed - unused)}"
    for name, (reader, _) in KEPT_FOR_OUTSIDE_READERS.items():
        assert re.search(rf"\b{name}\b", (ROOT / reader).read_text()), f"{reader} does not name {name}"


def _import_names(tree: ast.Module) -> set[str]:
    """Every dotted-name part that an import statement in tree names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(part for alias in node.names for part in alias.name.split("."))
        if isinstance(node, ast.ImportFrom) and node.module:
            found.update(node.module.split("."))
    return found


def test_brute_and_formula_sides_do_not_import_each_other():
    """groupring (brute force in R(G)) and formulas (closed formulas) meet
    only in the shared base modules, so each verdict compares two
    independent computations."""
    trees = _parse(SRC.glob("*.py"))
    assert "groupring" not in _import_names(trees["formulas.py"])
    assert "formulas" not in _import_names(trees["groupring.py"])


def test_no_src_module_imports_numpy_and_tables_are_kept_once():
    """The package runs on the standard library: no src module imports
    numpy, and the derived tables are kept once, as plain lists, so none
    reads np.ix_, a numpy commutator table or a second inverse list."""
    trees = _parse(SRC.glob("*.py"))
    assert not [name for name, tree in trees.items() if "numpy" in _import_names(tree)]
    for name, tree in trees.items():
        found = _names(tree)
        assert not [n for n in ("ix_", "comm_table", "_inv") if found[n]], name


def test_importing_the_package_leaves_numpy_unloaded():
    """Importing dimfox, its CLI and its verifier loads no numpy, not even
    through a dependency."""
    code = "import sys, dimfox, dimfox.cli, dimfox.verify; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "src", capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout.strip()) == (0, "False"), proc.stderr
