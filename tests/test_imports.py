"""Every name a module of the package imports is used, and so is every private top-level name;
every exported name is read in the package or the README's usage, or says why it ships.

No linter is a dependency of the project, so this walks each module's syntax tree with the
standard library's ``ast``: a deleted caller would otherwise leave its import, or the private
helper it called, behind, and a public function only the tests call would stay in the package.
"""

import ast
import re
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


# Public names that ship with no caller in the package or the README's usage, and why.
UNCALLED_EXPORTS = {
    "optctl.hamiltonian": "the H the adjoint's finite-difference oracles differentiate and "
                          "characterize_controls minimises",
    "calibrate.predict_incidence": "the Euler I_H at the observation years, the prediction a "
                                   "fit's residuals compare, for library callers",
    "repro.spectral_r": "R_e as the spectral radius of F V^-1, the matrix route that checks "
                        "effective_r's closed form; include_environment gives the full one",
    "repro.dfe_stability": "the largest real part of the Jacobian's eigenvalues at the "
                           "disease-free equilibrium, the stability indicator",
}


def unread_exports(sources: dict[str, str], usage: list[str]) -> list[str]:
    """``module.name`` for each name in a submodule's ``__all__`` (the package's ``__init__``
    aside) that no module of ``sources`` nor any snippet of ``usage`` reads: as a name, as an
    attribute of one of the modules, or in an import."""
    exported, read = {}, set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if module != "__init__" and isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported.update(dict.fromkeys(ast.literal_eval(node.value), module))
    for tree in map(ast.parse, [*sources.values(), *usage]):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in sources):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(f"{module}.{name}" for name, module in exported.items() if name not in read)


def test_unread_exports_finds_each_kind_of_read():
    sources = {"__init__": "from .a import f\n__all__ = ['f', 'g']\n",
               "a": "__all__ = ['f', 'g', 'h', 'k', 'm', 'n']\ndef f(): pass\ndef g(): pass\n"
                    "def h(): pass\ndef k(): pass\ndef m(): pass\ndef n(): pass\nh()\n",
               "b": "from . import a\na.k\nx.m\n"}
    assert unread_exports(sources, ["from rabictl.a import n\n"]) == ["a.g", "a.m"]


def test_every_export_is_read_or_says_why_it_ships():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    usage = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert unread_exports(sources, usage) == sorted(UNCALLED_EXPORTS)


# Private names a module imports from another, and why each is shared rather than made public.
SHARED_PRIVATE_NAMES = {
    "optctl <- integrate._require_same_grid": "the sweep checks its control path's grid by the "
                                              "rule and message of the backward pass",
    "optctl <- model._transitions": "the adjoint's constant part is the cached linear flows of rhs",
    "optctl <- model._varying_flows": "the adjoint writes the same 14 varying flows as jacobian",
    "repro <- model._control_factors": "the endemic balance clamps the control factors as rhs does",
}


def imported_private_names(sources: dict[str, str]) -> list[str]:
    """``module <- other._name`` for each private name (one leading underscore) a module of
    ``sources``, module name to source, takes from another: in a relative import
    (``from .integrate import _march``) or as an attribute of another of the modules."""
    found = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level:
                found.update((module, node.module, alias.name) for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in sources.keys() - {module}):
                found.add((module, node.value.id, node.attr))
    return sorted(f"{module} <- {owner}.{name}" for module, owner, name in found
                  if name.startswith("_") and not name.startswith("__"))


def test_imported_private_names_finds_each_kind_of_import():
    sources = {"a": "def _f(): pass\ndef g(): pass\n_K = 1\n",
               "b": "from .a import _f, g\nfrom . import a\nfrom os import _exit\n"
                    "a._K, a.__name__, x._f, b._own\n",
               "c": "import a\na._K\n"}
    assert imported_private_names(sources) == ["b <- a._K", "b <- a._f", "c <- a._K"]


def test_no_module_imports_a_private_name_unless_listed():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert imported_private_names(sources) == sorted(SHARED_PRIVATE_NAMES)
