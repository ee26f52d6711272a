"""Every module-level import in the package is used in its module, or is
marked `# noqa: F401` as a deliberate re-export."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lamtrans"


def unused_imports(source):
    """The (line, name) of each name that a module's top-level imports
    bind and that no other name in it reads."""
    tree, lines = ast.parse(source), source.splitlines()
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not any(
                "noqa: F401" in line
                for line in lines[node.lineno - 1:node.end_lineno]):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_the_checker_finds_an_unused_import():
    assert unused_imports("from __future__ import annotations\n"
                          "import os, os.path as p\n"
                          "from a import (b, c as d)\n"
                          "from e import f  # noqa: F401\n"
                          "def g():\n    return os.sep, d\n") == \
        [(2, "p"), (3, "b")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []
