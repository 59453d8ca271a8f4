"""Every name a module of the package imports is used.

No linter is a dependency of the project, so this walks each module's syntax tree with the
standard library's ``ast``: a deleted caller would otherwise leave its import behind.
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
