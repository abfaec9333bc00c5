"""Every name a module of the package or of the tests imports is used by
that module, and every function the package defines is used somewhere; so
is every helper of the tests' ``support`` module.  ``LAYERS`` bounds what
some modules of the package import from the others.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by an import must appear as a name in the code or in a string
annotation, or be listed in the module's ``__all__``.  A function or method
must be named outside its own body in the package, the benchmark, the
project file or the CI workflows, or be exported, or be listed in ``KEEP``
with the reason it stays.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import funcobs

MODULES = sorted(Path(funcobs.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=lambda p: p.name if p in MODULES else f"tests/{p.name}")
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


def package_imports(source: str) -> set[str]:
    """The package's modules that a module imports: the name after
    ``funcobs`` in each dotted name it imports, a relative import read as
    one from ``funcobs``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["funcobs" if node.level else None, node.module]))
            names = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(parts[1] for parts in (name.split(".") for name in names)
                     if parts[0] == "funcobs" and len(parts) > 1)
    return found


# The package's modules that each of these may import: geometry works on
# matrices only, polymat writes P from an integer system matrix, not from a
# plant, and markov, the cross-oracle of geometry's inclusion test, does not
# import the module it checks.
LAYERS = {"geometry": {"exactlin", "polymat"}, "markov": {"exactlin", "system"},
          "polymat": {"exactlin"}}


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_import_layers(module):
    source = (Path(funcobs.__file__).parent / f"{module}.py").read_text(encoding="utf-8")
    assert package_imports(source) <= LAYERS[module]


def test_reader_finds_package_imports():
    source = '''
from __future__ import annotations
import json
import funcobs.sim
from . import decide
from .exactlin import QMatrix
from funcobs.polymat import Poly
from funcobs import system as plant
'''
    assert package_imports(source) == {"sim", "decide", "exactlin", "polymat", "system"}


def imported_modules(source: str) -> set[str]:
    """The top-level name of every module that a module imports by an
    absolute import, at any depth of its code."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_sim_imports_dataclasses(path):
    # the exact path's records are NamedTuples, several times cheaper to
    # create; sim, loaded on first use, keeps its validating dataclasses
    assert path.stem == "sim" or "dataclasses" not in imported_modules(
        path.read_text(encoding="utf-8"))


def test_reader_finds_imported_modules():
    source = '''
import os.path, json
from . import decide
from .exactlin import QMatrix

def f():
    from dataclasses import replace
'''
    assert imported_modules(source) == {"os", "json", "dataclasses"}


# Functions and methods that nothing outside the tests names, each with the
# reason it stays.
KEEP = {
    "_yddot": "the scalar reference that the tests hold scenarios._yddot_grid to",
    "_make": "the NamedTuple hook that _replace and the tuple protocol call: "
             "SystemSextuple sends it through its shape checks",
}

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
_DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _references(tree: ast.AST) -> Counter:
    """Each name the tree mentions: as a name, an attribute, an imported
    name, or a string that is a dotted name (``"geometry.vstar"``)."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            refs.update(node.value.split("."))
    return refs


def _defined(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def orphans(modules: dict[str, str], others: list[str] = (), texts: list[str] = ()) -> list[str]:
    """The functions and methods of ``modules`` (name to Python source)
    that no module and no other Python source names outside their own
    body, and no text names as a word; dunders, names in a module's
    ``__all__`` and ``KEEP`` apart."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    for src in others:
        refs.update(_references(ast.parse(src)))
    for text in texts:
        refs.update(_IDENTIFIER.findall(text))
    exported = set().union(*(_exported(tree) for tree in trees.values()))
    found = []
    for module, tree in trees.items():
        for node in _defined(tree):
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or name in exported \
                    or name in KEEP:
                continue
            if refs[name] == _references(node)[name]:
                found.append(f"{module}.{name} (line {node.lineno})")
    return found


def test_every_function_is_used():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    perfbench = [path.read_text(encoding="utf-8")
                 for path in sorted((ROOT / "perfbench").glob("*.py"))]
    workflows = sorted((ROOT / ".github" / "workflows").glob("*"))
    texts = [path.read_text(encoding="utf-8") for path in [ROOT / "pyproject.toml", *workflows]]
    assert orphans(modules, perfbench, texts) == []


def test_every_support_helper_is_used():
    """The fixtures and oracles of ``support`` are held to the same rule,
    with the test modules as the sources that name them."""
    tests = Path(__file__).resolve().parent
    sources = [path.read_text(encoding="utf-8")
               for path in sorted(tests.glob("*.py")) if path.name != "support.py"]
    assert orphans({"support": (tests / "support.py").read_text(encoding="utf-8")}, sources) == []


def test_reader_flags_only_orphan_functions():
    sources = {"m": '''
__all__ = ["exported"]

def exported(): pass
def recursive(n): return recursive(n - 1) if n else 0
def called(): pass
def by_string(): pass
def in_text(): pass
def _yddot(): pass

class C:
    def __init__(self): called()
    def method(self): return self.method
    def attribute(self): pass

HOOKS = {"m.by_string": None}
''', "n": "def user(c): return c.attribute()"}
    assert orphans(sources, ["def other(): pass"], ["funcobs = 'm:in_text'"]) == [
        "m.recursive (line 5)", "m.method (line 13)", "n.user (line 1)"]
