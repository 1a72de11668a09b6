"""Unused imports and dead private helpers in the package source, found
with the stdlib ``ast``.

No linter is a dependency, so this test stands in for one. A name an
import binds is used when the module reads it anywhere, annotations
included. ``__init__.py`` imports are re-exports, and imports under
``if TYPE_CHECKING:`` serve string annotations, so both are exempt. A
module-level ``_private`` function, class or constant is private to its
module, so it is dead unless that module reads it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "blockcast"


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds that the module never reads."""
    tree = ast.parse(source)
    exempt = {id(node) for guard in ast.walk(tree)
              if isinstance(guard, ast.If) and _is_type_checking(guard.test)
              for stmt in guard.body for node in ast.walk(stmt)}
    bound = {}
    for node in ast.walk(tree):
        if id(node) in exempt or not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def unused_privates(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level ``_name`` (not ``__dunder__``) that
    a def, class or assignment binds and the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if (isinstance(name, ast.Name) and name.id.startswith("_")
                        and not name.id.startswith("__")):
                    bound.setdefault(name.id, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


SOURCES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_private_helpers(path):
    assert unused_privates(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_unused_names_and_exempts_type_checking_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from typing import TYPE_CHECKING, Sequence\n"
        "from dataclasses import dataclass, field\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "def f(x: Sequence[int]) -> 'Path':\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [(3, "js"), (5, "dataclass"), (5, "field")]


def test_the_check_finds_private_names_the_module_never_reads():
    source = (
        "_LIMIT = 3\n"
        "_TABLE: dict = {}\n"
        "_a, (_b, c) = 1, (2, 3)\n"
        "__version__ = '1'\n"
        "def _helper():\n"
        "    return _LIMIT\n"
        "def _dead():\n"
        "    _local = 1\n"
        "    return _local\n"
        "class _Gone:\n"
        "    pass\n"
        "def public(x=_b):\n"
        "    return _helper()\n"
    )
    assert unused_privates(source) == [(2, "_TABLE"), (3, "_a"), (7, "_dead"), (10, "_Gone")]
