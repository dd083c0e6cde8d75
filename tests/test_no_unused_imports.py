"""Every module-level import of a library module is used in that module.
``__init__.py`` re-exports by importing, so it is not scanned.

Every module-level private function or class (``_name``) of the library is
referenced somewhere in it outside its own definition."""

import ast
import pathlib
from collections import Counter

import ordhom

ALL_SOURCES = sorted(pathlib.Path(ordhom.__file__).parent.glob("*.py"))
SOURCES = [p for p in ALL_SOURCES if p.name != "__init__.py"]

# (module, name) -> why the unused name stays bound
ALLOWED = {
    ("orderpoly.py", "chain"):
        "bench/test_bench.py checks that the tracer wraps orderpoly.chain",
}


def unused_imports(tree):
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        # a name listed in __all__ is exported, so it counts as used
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant)}
    return {name: line for name, line in bound.items() if name not in used}


def test_library_modules_have_no_unused_imports():
    assert SOURCES
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} {name}"
                  for name, line in unused_imports(tree).items()
                  if (path.name, name) not in ALLOWED]
    assert found == []


def test_allowed_unused_imports_are_still_unused():
    # an entry whose name came back into use, or went away, is stale
    for module, name in ALLOWED:
        path = pathlib.Path(ordhom.__file__).parent / module
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        assert name in unused_imports(tree), (module, name)


def test_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nfrom math import comb, factorial as f\n"
                     "__all__ = ['comb']\n")
    assert unused_imports(tree) == {"os": 2, "f": 3}


def _referenced(node):
    """Counter of the names a syntax tree reads, as names, attributes or
    imported names."""
    return Counter(n.id if isinstance(n, ast.Name)
                   else n.attr if isinstance(n, ast.Attribute) else n.name
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute, ast.alias)))


def dead_private_helpers(modules):
    """``module:line name`` of each module-level ``_name`` function or class
    in ``modules`` (a dict of name -> parsed module) that no code references
    outside the helper's own definition."""
    refs = sum((_referenced(tree) for tree in modules.values()), Counter())
    return [f"{module}:{node.lineno} {node.name}"
            for module, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and refs[node.name] <= _referenced(node)[node.name]]


def test_library_has_no_dead_private_helpers():
    modules = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
               for p in ALL_SOURCES}
    assert dead_private_helpers(modules) == []


def test_dead_private_helper_is_found():
    modules = {
        "a.py": ast.parse("def _used(): pass\n"
                          "def _recursive(n): return _recursive(n - 1)\n"
                          "class _Dead: pass\n"
                          "def __getattr__(name): pass\n"),
        "b.py": ast.parse("from .a import _used\n"),
    }
    assert dead_private_helpers(modules) == ["a.py:2 _recursive", "a.py:3 _Dead"]
