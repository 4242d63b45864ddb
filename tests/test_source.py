"""Static checks over the package source."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dimfox"


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


def _private_defs(tree: ast.Module):
    """Private module-level functions and private methods (dunders excluded)."""
    for node in tree.body:
        defs = node.body if isinstance(node, ast.ClassDef) else [node]
        for d in defs:
            if (
                isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                and d.name.startswith("_")
                and not d.name.startswith("__")
            ):
                yield d


def test_every_private_function_is_referenced():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert trees, f"no sources under {SRC}"
    total = Counter()
    for tree in trees.values():
        total.update(_names(tree))
    unused = [
        f"{name}:{d.lineno} {d.name}"
        for name, tree in trees.items()
        for d in _private_defs(tree)
        if total[d.name] - _names(d)[d.name] == 0
    ]
    assert not unused, f"private functions with no reference outside their own body: {unused}"
