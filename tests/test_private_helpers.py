"""Every private helper of the package is used.

A `_`-prefixed function or class defined in src/nilaa (a method or a
nested definition counts; a dunder does not) must be referenced somewhere
in src/nilaa outside its own definition, as a name or as an attribute.
A helper that only the tests or a recursive call of its own reach is dead
code: its callers are gone.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "nilaa").glob("*.py"))


def _private(node) -> bool:
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and not (node.name.startswith("__") and node.name.endswith("__")))


def unreferenced(sources: dict[str, str]) -> tuple[int, list[str]]:
    """The number of private definitions in the modules (name -> source),
    and those referenced nowhere outside their own bodies."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    uses: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None:
                uses.setdefault(name, []).append((module, node.lineno))
    found = [(module, node) for module, tree in trees.items()
             for node in ast.walk(tree) if _private(node)]
    dead = [f"{module}:{node.lineno} {node.name}" for module, node in found
            if all(where == module and node.lineno <= line <= node.end_lineno
                   for where, line in uses.get(node.name, ()))]
    return len(found), dead


def test_every_private_helper_is_referenced():
    count, dead = unreferenced({p.name: p.read_text(encoding="utf-8") for p in SOURCES})
    assert count > 100
    assert dead == []


def test_the_check_sees_a_dead_private_helper():
    used = ("def _used(x):\n"
            "    return x\n"
            "class _Holder:\n"
            "    def _method(self):\n"
            "        return _used(1)\n"
            "    def __repr__(self):\n"
            "        return ''\n")
    other = ("from a import _Holder\n"
             "def _recursive(n):\n"
             "    return _recursive(n - 1) if n else 0\n"
             "def public():\n"
             "    return _Holder()._method()\n"
             "def _orphan():\n"
             "    pass\n")
    assert unreferenced({"a.py": used, "b.py": other}) == (
        5, ["b.py:2 _recursive", "b.py:6 _orphan"])
