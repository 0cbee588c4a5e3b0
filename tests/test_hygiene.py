"""Source hygiene: every name a package module imports is used there, and
every private top-level function or class is used somewhere in the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gentleq"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the import statements of ``source`` that no other
    expression in it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def unused_private_definitions(sources: list[str]) -> list[str]:
    """The private top-level functions and classes of ``sources`` that no
    code in them reads outside the definition itself."""
    defined, read = set(), set()
    for source in sources:
        for stmt in ast.parse(source).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                if owner.startswith("_") and not owner.startswith("__"):
                    defined.add(owner)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    read.add(name)
    return sorted(defined - read)


def test_modules_found():
    assert {p.name for p in MODULES} >= {"core.py", "moves.py", "orbit.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_caught():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .core import parse, validate as check\n"
        "check(os.path)\n"
    )
    assert unused_imports(source) == ["parse"]


def test_every_private_definition_is_used():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unused_private_definitions(sources) == []


def test_unused_private_definition_is_caught():
    sources = [
        "def _walk(n):\n    return _walk(n - 1) if n else 0\n"
        "class _Plan:\n    pass\n"
        "def _used():\n    return _Plan()\n",
        "from .core import _used\n"
        "def run():\n    return core._used()\n",
    ]
    assert unused_private_definitions(sources) == ["_walk"]
