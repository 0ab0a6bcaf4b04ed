"""The package ships only what runs: every module-level function and class
in `src/primelog` is named by the package itself or by perfbench, or is
exported by `primelog.__all__`. A helper only tests call belongs with
the tests."""

import ast
from collections import Counter
from pathlib import Path

import primelog

ROOT = Path(__file__).resolve().parent.parent

# Kept although nothing in the package or perfbench names them.
ALLOWED = {
    "mk_list": "the list constructor, inverse of list_parts",
    "format_replay_script": "docs/formats.md offers it for writing replay scripts",
}


def _names(tree):
    """Every name a tree mentions: loaded or assigned, as an attribute,
    imported, or as a string (perfbench wraps entry points by name)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def test_every_definition_is_named_by_a_product_path():
    package = sorted((ROOT / "src" / "primelog").glob("*.py"))
    paths = [*package, *sorted((ROOT / "perfbench").glob("*.py"))]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    named = Counter(name for tree in trees.values() for name in _names(tree))
    unnamed = []
    for path in package:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if named[name] > Counter(_names(node))[name]:
                continue
            if name not in primelog.__all__ and name not in ALLOWED:
                unnamed.append(f"{path.name}:{node.lineno} {name}")
    assert unnamed == []
