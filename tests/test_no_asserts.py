"""No correctness check of the library lives in an ``assert``: asserts
vanish under ``python -O``. Checks raise typed errors or live in tests."""

import ast
import pathlib

import ordhom

SOURCES = sorted(pathlib.Path(ordhom.__file__).parent.glob("*.py"))


def test_library_modules_have_no_assert():
    assert SOURCES
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
