"""Every name a module imports is read in that module."""

from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "kalmanvar").glob("*.py") if p.name != "__init__.py")
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
