"""Only nilgrp reads or writes the packed monomials of the group law.

lattice, orbit and suspension take the law from NilpotentGroup.law, and
a polynomial map from nilgrp.integer_map, and read its terms or evaluate
it.  None of them imports a `_`-prefixed name from nilgrp, reads one as
an attribute of the module, or calls NilpotentGroup._lyndon, the kernel
that packs monomials.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
READERS = ("lattice", "orbit", "suspension")


def law_format_uses(source: str) -> list[str]:
    """The lines of source that reach into nilgrp's format."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module in ("nilgrp", "nilaa.nilgrp"):
            found += [f"{node.lineno} imports {alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name) and node.value.id == "nilgrp"):
            found.append(f"{node.lineno} reads nilgrp.{node.attr}")
        elif isinstance(node, ast.Call):
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute) else
                    func.id if isinstance(func, ast.Name) else None)
            if name == "_lyndon":
                found.append(f"{node.lineno} calls _lyndon")
    return found


@pytest.mark.parametrize("module", READERS)
def test_the_readers_of_the_law_stay_out_of_its_format(module):
    path = ROOT / "src" / "nilaa" / f"{module}.py"
    assert law_format_uses(path.read_text(encoding="utf-8")) == []


def test_the_guard_sees_each_way_into_the_format():
    source = ("from .nilgrp import NilpotentGroup, _add_scaled_int\n"
              "from nilaa.nilgrp import _IntegerLaw\n"
              "from . import nilgrp\n"
              "def law(group, forms, den):\n"
              "    nilgrp._packed([], 1, [])\n"
              "    return group._lyndon(*forms, den), group.law()\n")
    assert sorted(law_format_uses(source)) == [
        "1 imports _add_scaled_int", "2 imports _IntegerLaw",
        "5 reads nilgrp._packed", "6 calls _lyndon"]
