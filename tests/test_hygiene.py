"""Every name a module imports is read in that module, no function imports
a module its file already imports at module level, every private
definition and module-level constant in the package is used somewhere in
it, and every object the traced benchmark wraps exists."""

from __future__ import annotations

import ast
import collections
import importlib
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


def _imported_modules(node: ast.Import | ast.ImportFrom) -> set[str]:
    if isinstance(node, ast.Import):
        return {a.name for a in node.names}
    return {"." * node.level + (node.module or "")}


def repeated_local_imports(source: str) -> list[str]:
    """Modules imported inside a function that the file already imports at
    module level."""
    tree = ast.parse(source)
    top = {m for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))
           for m in _imported_modules(n)}
    local = {m for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom))
             for m in _imported_modules(n)}
    return sorted(top & local)


def test_repeated_local_imports_detected():
    src = ("import os\nimport a.b\nfrom .c import d\n"
           "def f():\n    import os, sys\n    import a\n    from .c import e\n"
           "    from c import g\n    from .h import i\n")
    assert repeated_local_imports(src) == [".c", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_local_import_repeats_a_module_level_one(path):
    assert repeated_local_imports(path.read_text()) == []


def _references(node: ast.AST) -> collections.Counter:
    """Names read, and attribute names, under a node."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute))


def _defined_names(node: ast.AST) -> list[str]:
    """The names a function, class or plain assignment statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unreferenced_private_definitions(sources: list[str]) -> list[str]:
    """Private top-level functions, classes and module-level constants, and
    private methods of top-level classes, that nothing outside their own
    definition refers to."""
    refs: collections.Counter = collections.Counter()
    defs = []
    for tree in map(ast.parse, sources):
        refs += _references(tree)
        for node in tree.body:
            # a class's methods, not its attributes
            members = [d for d in node.body if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                       ] if isinstance(node, ast.ClassDef) else []
            defs += [(name, d) for d in [node, *members] for name in _defined_names(d)
                     if name.startswith("_") and not name.endswith("__")]
    return sorted(name for name, d in defs if refs[name] <= _references(d)[name])


def test_unreferenced_private_definitions_detected():
    srcs = ["def _used(): pass\ndef _unused(): pass\ndef _loop(): return _loop()\n"
            "class C:\n    def _m(self): pass\n    def _n(self): pass\n"
            "    def __init__(self): self._n()\n    _attr = 1\n",
            "class _K: pass\n_used(), _K\n",
            "_READ = 1\n_UNREAD = 2\n_ANNOTATED: int = 3\n__all__ = []\nprint(_READ)\n"]
    assert unreferenced_private_definitions(srcs) == [
        "_ANNOTATED", "_UNREAD", "_loop", "_m", "_unused"]


def test_every_private_definition_is_referenced():
    assert unreferenced_private_definitions([p.read_text() for p in PACKAGE]) == []


def _spans_paths() -> dict[str, list[str]]:
    """FUNCTIONS and METHODS of perfbench/spans.py, read from its source:
    layer -> dotted paths (module, then attributes) in the package."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    tables = {t.id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) for t in node.targets
              if isinstance(t, ast.Name) and t.id in ("FUNCTIONS", "METHODS")}
    assert sorted(tables) == ["FUNCTIONS", "METHODS"]
    return tables


@pytest.mark.parametrize("table", ["FUNCTIONS", "METHODS"])
def test_every_traced_path_resolves(table):
    # the traced benchmark wraps these by name, and crashes on one that is gone
    missing = []
    for paths in _spans_paths()[table].values():
        for path in paths:
            mod, *attrs = path.split(".")
            owner = importlib.import_module(f"kalmanvar.{mod}")
            for attr in attrs:
                owner = getattr(owner, attr, None)
            if not callable(owner):
                missing.append(path)
    assert missing == []
