"""Every module-level import of a library module is used in that module.
``__init__.py`` re-exports by importing, so it is not scanned."""

import ast
import pathlib

import ordhom

SOURCES = sorted(p for p in pathlib.Path(ordhom.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")

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
