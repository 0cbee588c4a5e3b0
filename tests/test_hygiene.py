"""Source hygiene: every name a package module imports is used there, every
private top-level definition is used somewhere in the package, every
top-level name is reached from what the command, the verifiers, the README
library example and the benchmark call, and every public method of a public
class is read by the package, the README library example or the benchmark."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gentleq"
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


def module_names(tree: ast.AST) -> set[str]:
    """The names that the import statements of ``tree`` bind to modules:
    ``import x.y``, ``import x as y`` and ``from . import x``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            names.update(a.asname or a.name for a in node.names)
    return names


def off_module(node: ast.expr, modules: set[str]) -> bool:
    """Whether ``node`` is one of ``modules`` or an attribute chain on one."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in modules


def names_read(tree: ast.AST, modules: set[str] | None = None) -> set[str]:
    """The names and attribute names that ``tree`` reads; with ``modules``,
    only the attributes read off a module (``core.parse``, ``g.phi``,
    ``gentleq.cli.dispatch``)."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and (modules is None or off_module(node.value, modules)):
            read.add(node.attr)
    return read


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unused_private_definitions(sources: list[str]) -> list[str]:
    """The private top-level functions, classes and assignments of
    ``sources`` that no code in them reads outside the definition itself."""
    defined, read = set(), set()
    for source in sources:
        for stmt in ast.parse(source).body:
            owners = set(defined_names(stmt))
            defined.update(n for n in owners if n.startswith("_") and not is_dunder(n))
            read |= names_read(stmt) - owners
    return sorted(defined - read)


def defined_names(stmt: ast.stmt) -> list[str]:
    """The names a top-level function, class or assignment defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def unreached_names(sources: dict[str, str], roots: set[str]) -> list[str]:
    """The top-level names of ``sources`` (file name -> text), dunders aside,
    that no top-level definition reached from ``roots`` reads.

    The walk starts from ``roots``, every definition of ``cli.py`` and every
    ``verify_*`` definition, and follows the names each definition reads; an
    attribute counts only when it is read off a module, so ``q.opposite()``
    does not reach a function ``opposite``.  A name defined in two modules
    follows both definitions.
    """
    reads: dict[str, set[str]] = {}
    todo = set(roots)
    for path, source in sources.items():
        tree = ast.parse(source)
        modules = module_names(tree)
        for stmt in tree.body:
            for name in defined_names(stmt):
                reads.setdefault(name, set()).update(names_read(stmt, modules))
                if path == "cli.py" or name.startswith("verify_"):
                    todo.add(name)
    reached = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        todo |= reads.get(name, set()) - reached
    return sorted(name for name in reads if name not in reached and not is_dunder(name))


def unread_public_methods(sources: list[str], other_reads: set[str]) -> list[str]:
    """``Class.method`` for each public method of a class in an ``__all__``
    list of ``sources`` that neither ``other_reads`` nor any code of
    ``sources`` outside the method itself reads."""
    methods, read = [], set(other_reads)
    for source in sources:
        body = ast.parse(source).body
        public = set()
        for stmt in body:
            if defined_names(stmt) == ["__all__"]:
                public.update(ast.literal_eval(stmt.value))
        for stmt in body:
            if not isinstance(stmt, ast.ClassDef):
                read |= names_read(stmt)
                continue
            for item in stmt.body:
                owner = None
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    owner = item.name
                    if stmt.name in public and not owner.startswith("_"):
                        methods.append((stmt.name, owner))
                read |= names_read(item) - {owner}
            for node in stmt.bases + stmt.decorator_list:
                read |= names_read(node)
    return sorted("%s.%s" % m for m in methods if m[1] not in read)


def readme_example_names() -> set[str]:
    """The names read by the README's library example."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library example\n\n```python\n(.*?)```", text, re.S)
    return names_read(ast.parse(block.group(1)))


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
        "_LIMIT: int = 3\n"
        "_stale = {}\n"
        "__version__ = '1'\n"
        "def _used():\n    return _Plan(), _LIMIT\n",
        "from .core import _used\n"
        "def run():\n    return core._used()\n",
    ]
    assert unused_private_definitions(sources) == ["_stale", "_walk"]


def outside_reads() -> set[str]:
    """The names read by the README library example and the benchmark."""
    roots = readme_example_names()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        roots |= names_read(ast.parse(path.read_text(encoding="utf-8")))
    return roots


def test_every_public_name_is_reached():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unreached_names(sources, outside_reads()) == []


def test_every_public_method_is_read():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_public_methods(sources, outside_reads()) == []


def test_unread_public_method_is_caught():
    sources = [
        '__all__ = ["Graph", "edges"]\n'
        "class Graph:\n"
        "    def size(self):\n        return len(self.nodes)\n"
        "    def nodes(self):\n        return self.nodes()\n"
        "    def spare(self):\n        return self.spare()\n"
        "    def walk(self):\n        return 0\n"
        "    def _hidden(self):\n        return 0\n"
        "class _Plan:\n"
        "    def unread(self):\n        return 0\n"
        "def edges(g):\n    return g.size()\n",
        "from .core import Graph\n"
        "class Tree(Graph):\n"
        "    def height(self):\n        return self.nodes()\n",
    ]
    assert unread_public_methods(sources, {"walk"}) == ["Graph.spare"]
    assert unread_public_methods(sources, set()) == ["Graph.spare", "Graph.walk"]


def test_unreached_public_name_is_caught():
    sources = {
        "cli.py": "from . import core\ndef _cmd_run(args):\n    return core.run(args)\n",
        "core.py": (
            '__all__ = ["run", "helper", "verify_all", "check", "walk", "orphan", "stale"]\n'
            "__version__ = '1'\n"
            "LIMIT = 3\n"
            "SPARE = 4\n"
            "def run(args):\n    return helper(args, LIMIT)\n"
            # a reached method call of the same name does not reach flip
            "def helper(args, limit):\n    return args.flip()[:limit]\n"
            "def flip(bq):\n    return bq\n"
            "def verify_all():\n    return check([])\n"
            "def check(args):\n    return not args\n"
            "def walk(bq):\n    return bq\n"
            "def orphan():\n    return stale() + orphan()\n"
            "def stale():\n    return 0\n"
        ),
    }
    # names outside __all__ count too, dunders aside
    assert unreached_names(sources, {"walk"}) == ["SPARE", "flip", "orphan", "stale"]
    assert unreached_names(sources, set()) == ["SPARE", "flip", "orphan", "stale", "walk"]
