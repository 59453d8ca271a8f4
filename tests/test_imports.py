"""Every name a module of the package imports is used, and so is every private top-level name.

No linter is a dependency of the project, so this walks each module's syntax tree with the
standard library's ``ast``: a deleted caller would otherwise leave its import, or the private
helper it called, behind.
"""

import ast
from pathlib import Path

import pytest

import rabictl

SOURCES = sorted(Path(rabictl.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads; a name listed in ``__all__`` is read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_unused_imports_finds_each_kind_of_import():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from typing import Any, NamedTuple\nfrom . import integrate\n"
              "__all__ = ['Any']\nx: NamedTuple = np\n")
    assert unused_imports(source) == ["integrate", "os"]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private names (one leading underscore) the modules of ``sources``, module name to
    source, define at top level and none of them reads: as a name, as an attribute of one of
    the modules (``integrate._march``), or in an import from another module. An attribute of
    anything else does not count: ``StateVec._fields`` is not a read of a helper ``_fields``."""
    defined, read = set(), set()
    for tree in map(ast.parse, sources.values()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in sources):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(name for name in defined - read
                  if name.startswith("_") and not name.startswith("__"))


def test_unread_private_names_finds_each_kind_of_definition():
    sources = {"a": "import numpy as np\n_A = 1\n_B: int = 2\n_C = _A\n__all__ = []\n"
                    "def _f():\n    return np._f, np._fields\nclass _K:\n    pass\n"
                    "def _h():\n    pass\ndef _fields():\n    pass\n",
               "b": "from .a import _h\nfrom . import a\n_h(), a._K\n"}
    assert unread_private_names(sources) == ["_B", "_C", "_f", "_fields"]


def test_every_private_name_is_read_in_the_package():
    assert unread_private_names({path.stem: path.read_text() for path in SOURCES}) == []
