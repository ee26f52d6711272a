"""Every module-level import in the package is used in its module, or is
marked `# noqa: F401` as a deliberate re-export; and every public
top-level function or class of the package is read by the package or the
bench harness, or is kept on purpose."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lamtrans"
BENCH = ROOT / "bench" / "run.py"

# the public names that no code of the package or the bench reads, and why
# each stays in the package
KEPT = {
    "corpus_path": "the accessor of the bundled corpus files",
    "encode_tree": "the documented inverse of decode_tree",
    "predecessor": "walks a reversible TWT back: the paper's reversibility "
                   "result",
    "run_iam": "the invariant-checked token-machine run, which keeps the "
               "paper's space bounds checkable on any run",
}


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


def unread_public_names(package, others=()):
    """The public top-level functions and classes of the module sources
    `package` that no code in them or in the sources `others` reads, as a
    name or an attribute, outside a top-level definition of that name."""
    defined, read = set(), set()
    for source in [*package, *others]:
        tree, inside = ast.parse(source), {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if source in package and not node.name.startswith("_"):
                    defined.add(node.name)
                for sub in ast.walk(node):
                    inside[sub] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                name = node.attr
            else:
                continue
            if inside.get(node) != name:
                read.add(name)
    return sorted(defined - read)


def test_the_checker_finds_an_unread_public_name():
    package = ["def f():\n    return f()\n"
               "class C:\n    pass\n"
               "def _g():\n    return h\n"
               "def h():\n    pass\n"
               "def k():\n    pass\n"]
    assert unread_public_names(package) == ["C", "f", "k"]
    assert unread_public_names(package, ["import m\nm.C\nk = 1\n"]) == \
        ["f", "k"]


def test_every_public_name_is_read_or_kept():
    package = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert unread_public_names(package, [BENCH.read_text()]) == sorted(KEPT)
