"""Every name a module imports is read in that module, and every private
definition in the package is used somewhere in it."""

from __future__ import annotations

import ast
import collections
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "kalmanvar").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
MODULES += sorted((ROOT / "demos").glob("*.py"))


def unread_imports(source: str) -> list[str]:
    """Names bound by import statements and never loaded."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(set(bound) - read)


def test_unread_imports_detected():
    src = "import os\nimport a.b\nfrom x import y as z, w\nprint(a.b, w)\n"
    assert unread_imports(src) == ["os", "z"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []


def _references(node: ast.AST) -> collections.Counter:
    """Names read, and attribute names, under a node."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute))


def unreferenced_private_definitions(sources: list[str]) -> list[str]:
    """Private top-level functions and classes, and private methods of
    top-level classes, that nothing outside their own body refers to."""
    refs: collections.Counter = collections.Counter()
    defs = []
    for tree in map(ast.parse, sources):
        refs += _references(tree)
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            defs += [d for d in [node, *members]
                     if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                     and d.name.startswith("_") and not d.name.endswith("__")]
    return sorted(d.name for d in defs if refs[d.name] <= _references(d)[d.name])


def test_unreferenced_private_definitions_detected():
    srcs = ["def _used(): pass\ndef _unused(): pass\ndef _loop(): return _loop()\n"
            "class C:\n    def _m(self): pass\n    def _n(self): pass\n"
            "    def __init__(self): self._n()\n",
            "class _K: pass\n_used(), _K\n"]
    assert unreferenced_private_definitions(srcs) == ["_loop", "_m", "_unused"]


def test_every_private_definition_is_referenced():
    assert unreferenced_private_definitions([p.read_text() for p in PACKAGE]) == []
