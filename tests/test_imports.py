"""Unused imports, dead private helpers, unread constants and unread public
functions in the package source, found with the stdlib ``ast``.

No linter is a dependency, so this test stands in for one. A name an
import binds is used when the module reads it anywhere, annotations
included. ``__init__.py`` imports are re-exports, and imports under
``if TYPE_CHECKING:`` serve string annotations, so both are exempt. A
module-level ``_private`` function, class or constant is private to its
module, so it is dead unless that module reads it. A public UPPER_CASE
module constant is dead unless some file of the package, its tests or the
benchmark reads it, by name or as a module attribute. A public module-level
function, or a public method of a module-level class, is dead unless the
package or the benchmark reads it, by name, as an attribute or as a string
of its name alone (``__all__``, the benchmark's table of traced functions):
a function that only tests call is the tests' code. ``CALLED_OUTSIDE`` names
the few functions that other readers call.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "blockcast"


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


def loaded_names(readers: list[str], *, strings: bool = False) -> set[str]:
    """Every name that a source in ``readers`` loads, as a name or as an
    attribute; with ``strings``, every string constant too."""
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return read


def unread_constants(modules: dict[str, str], readers: list[str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each public UPPER_CASE name that a
    module-level assignment in ``modules`` (name -> source) binds and that
    no source in ``readers`` loads, as a name or as an attribute."""
    read = loaded_names(readers)
    unread = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            unread += [(module, node.lineno, name.id) for target in targets
                       for name in ast.walk(target)
                       if isinstance(name, ast.Name) and name.id.isupper()
                       and not name.id.startswith("_") and name.id not in read]
    return sorted(unread)


def unread_functions(modules: dict[str, str], readers: list[str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each public function that a module-level def
    in ``modules`` (name -> source) binds and that no source in ``readers``
    loads, as a name, an attribute or a string of the name alone."""
    read = loaded_names(readers, strings=True)
    return sorted((module, node.lineno, node.name) for module, source in modules.items()
                  for node in ast.parse(source).body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("_") and node.name not in read)


def unread_methods(modules: dict[str, str], readers: list[str]) -> list[tuple[str, int, str]]:
    """(module, line, "Class.method") of each public method (a property or a
    classmethod too) that a class at module level in ``modules`` (name ->
    source) defines and that no source in ``readers`` loads, as a name, an
    attribute or a string of the name alone."""
    read = loaded_names(readers, strings=True)
    return sorted((module, node.lineno, f"{cls.name}.{node.name}")
                  for module, source in modules.items()
                  for cls in ast.parse(source).body if isinstance(cls, ast.ClassDef)
                  for node in cls.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("_") and node.name not in read)


SOURCES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# The public functions that no file of the package or the benchmark calls,
# and who calls them.
CALLED_OUTSIDE = {
    ("cli.py", "replay_manifest"): "the acceptance tests' chain replay, and README's library use",
    ("config.py", "dump_config"): "the config file round-trip test",
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_private_helpers(path):
    assert unused_privates(path.read_text(encoding="utf-8")) == []


def test_every_public_constant_is_read_by_the_package_its_tests_or_the_benchmark():
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    readers = [p.read_text(encoding="utf-8")
               for folder in ("src", "tests", "perfbench") for p in (ROOT / folder).rglob("*.py")]
    assert unread_constants(modules, readers) == []


def test_every_public_function_is_read_by_the_package_or_the_benchmark():
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    readers = [p.read_text(encoding="utf-8")
               for folder in ("src", "perfbench") for p in (ROOT / folder).rglob("*.py")]
    unread = unread_functions(modules, readers)
    assert [f for f in unread if (f[0], f[2]) not in CALLED_OUTSIDE] == []
    assert {(f[0], f[2]) for f in unread} == set(CALLED_OUTSIDE)  # no exemption outlives its need


def test_every_public_method_is_read_by_the_package_or_the_benchmark():
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    readers = [p.read_text(encoding="utf-8")
               for folder in ("src", "perfbench") for p in (ROOT / folder).rglob("*.py")]
    assert unread_methods(modules, readers) == []


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


def test_the_check_finds_public_constants_no_file_reads():
    module = (
        "LIMIT = 3\n"
        "TABLE: dict = {}\n"
        "A, (B, c) = 1, (2, 3)\n"
        "_HIDDEN = 4\n"
        "TOL = 1e-9\n"
        "def f(x=LIMIT):\n"
        "    UNUSED_LOCAL = 5\n"
        "    return x\n"
    )
    reader = (
        "from pkg import mod\n"
        "mod.TABLE['k'] = 1\n"
        "mod.TOL = 0.0\n"
        "print('B')\n"
    )
    assert unread_constants({"mod.py": module}, [module, reader]) == [
        ("mod.py", 3, "A"), ("mod.py", 3, "B"), ("mod.py", 5, "TOL")]


def test_the_check_finds_public_functions_no_file_reads():
    module = (
        "def used():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return 1\n"
        "def traced():\n"
        "    return 2\n"
        "async def gone():\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
        "class Kept:\n"
        "    def method(self):\n"
        "        pass\n"
        "def dead():\n"
        "    'dead, though this docstring names dead'\n"
    )
    reader = (
        "import mod\n"
        "mod.used()\n"
        "TRACED = ['traced']\n"
    )
    assert unread_functions({"mod.py": module}, [module, reader]) == [
        ("mod.py", 7, "gone"), ("mod.py", 14, "dead")]


def test_the_check_finds_public_methods_no_file_reads():
    module = (
        "class Table:\n"
        "    def read(self):\n"
        "        return self.rows()\n"
        "    def rows(self):\n"
        "        return []\n"
        "    @property\n"
        "    def width(self):\n"
        "        return 0\n"
        "    @classmethod\n"
        "    def empty(cls):\n"
        "        return cls()\n"
        "    def _private(self):\n"
        "        pass\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def named(self):\n"
        "        pass\n"
        "def helper():\n"
        "    def inner():\n"
        "        pass\n"
    )
    reader = (
        "import mod\n"
        "mod.Table().read()\n"
        "TRACED = ['named']\n"
    )
    assert unread_methods({"mod.py": module}, [module, reader]) == [
        ("mod.py", 7, "Table.width"), ("mod.py", 10, "Table.empty")]


def test_nn_imports_only_the_errors_of_the_package_and_no_file_io():
    """``nn`` holds numpy kernels only: of the package it imports ``errors``
    alone, and it reads and writes no file (no ``json``, no ``pathlib``)."""
    imported = set()
    for node in ast.walk(ast.parse((SRC / "nn.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert {name for name in imported if name.startswith((".", "blockcast"))} == {".errors"}
    assert not {name.split(".")[0] for name in imported} & {"json", "pathlib"}
