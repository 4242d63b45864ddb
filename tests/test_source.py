"""Static checks over the package source."""

import ast
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
