"""Every top-level import of the package and of the tests is used.

A name counts as used when the module reads it (as a name or the base of
an attribute), names it in a string annotation or in __all__, or takes
it as a function argument: a test receives a conftest fixture by naming
it, so `from conftest import heisenberg` is used by
`def test_x(heisenberg)`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "nilaa").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names bound by the top-level imports, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used, strings = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            every = [a for a in (*args.posonlyargs, *args.args, args.vararg,
                                 *args.kwonlyargs, args.kwarg) if a is not None]
            used.update(a.arg for a in every)
            strings += [a.annotation for a in every]
            strings.append(getattr(node, "returns", None))
        elif isinstance(node, ast.AnnAssign):
            strings.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            strings.append(node.value)
    for node in filter(None, strings):  # string annotations ("QMatrix") and __all__
        for const in ast.walk(node):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                used |= {n.id for n in ast.walk(ast.parse(const.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return used


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    return [f"{path.name}:{line} {name}" for name, line in _imported(tree).items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[f"{p.parent.name}/{p.name}" for p in MODULES])
def test_every_top_level_import_is_used(path):
    assert unused_imports(path) == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import math\n"
                     "import os.path\n"
                     "from fractions import Fraction\n"
                     "from typing import Sequence\n"
                     "from conftest import heisenberg\n"
                     "def test_x(heisenberg) -> 'Sequence':\n"
                     "    'math'\n"
                     "    return Fraction(1)\n")
    assert set(_imported(tree)) - _used(tree) == {"math", "os"}
