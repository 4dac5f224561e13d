"""Source hygiene: every name a module imports is used or re-exported, and
every private name a module defines at its top level is read in it."""
from __future__ import annotations

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "cagekit")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def unused_imports(source: str) -> list[str]:
    """Imported names that are neither read anywhere nor listed in __all__."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


def unread_private_names(source: str) -> list[str]:
    """Module-level `_x` names (functions, classes, assignments) that the
    module itself never reads."""
    tree = ast.parse(source)
    defined: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        name for name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


def test_checker_flags_an_unused_name():
    source = "from typing import Iterable, Iterator\n\ndef f(xs: Iterable):\n    return xs\n"
    assert unused_imports(source) == ["Iterator"]
    assert unused_imports("from .graph import Graph\n__all__ = ['Graph']\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_checker_flags_an_unread_private_name():
    source = (
        "_used = 1\n_unused = 2\n__all__ = []\n\n"
        "def _helper():\n    _local = 3\n    return _used\n\n"
        "class _Thing:\n    _attr = 4\n\n"
        "def public(x: _Thing):\n    return x\n"
    )
    assert unread_private_names(source) == ["_helper", "_unused"]


@pytest.mark.parametrize("module", MODULES)
def test_private_names_are_read(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unread_private_names(fh.read()) == []
