"""Every name a module of the package imports is used by that module.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by an import must appear as a name in the code or in a string
annotation, or be listed in the module's ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import funcobs

MODULES = sorted(Path(funcobs.__file__).parent.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with its line; ``__future__`` binds none."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                names.setdefault(name, node.lineno)
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            yield node.returns
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None:
                    yield arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used(tree) | _exported(tree)
    return [f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_reader_flags_only_unused_names():
    source = '''
from __future__ import annotations
import os.path
from math import gcd, lcm as least, prod
from typing import Sequence
__all__ = ["prod"]

def f(x: "Sequence[int]") -> None:
    return os.path.join(gcd(1, 2))
'''
    assert unused_imports(source) == ["least (line 4)"]
