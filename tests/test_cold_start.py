"""A fresh ``nilaa`` process loads only what its subcommand runs.

Each run check starts a new interpreter and inspects ``sys.modules``
after the import or the command; none measures time.  The deciders and
the validator need neither the suspension nor the orbit oracle, and no
module of the package imports ``dataclasses`` or calls ``exec``/``eval``,
which the last check reads from the sources.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "src" / "nilaa" / "corpus"
WATCHED = ("dataclasses", "nilaa.orbit", "nilaa.suspension", "csv")

_PROBE = """
import contextlib, io, json, sys
import nilaa.cli
argvs = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [nilaa.cli.main(argv) for argv in argvs]
print(json.dumps({"codes": codes,
                  "loaded": [m for m in json.loads(sys.argv[2])
                             if m in sys.modules],
                  "package": sorted(m for m in sys.modules
                                    if m.split(".")[0] == "nilaa")}))
"""


def _loaded_after(*argvs) -> dict:
    """Exit codes of the commands, the watched modules loaded and every
    module of the package loaded after importing nilaa.cli and running
    them in one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps([list(a) for a in argvs]),
         json.dumps(WATCHED)],
        cwd=ROOT, env=env, capture_output=True, text=True, encoding="utf-8",
        timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _corpus(name: str) -> str:
    return str(CORPUS / name)


def test_importing_the_cli_loads_no_command_modules():
    result = _loaded_after()
    assert result["codes"] == []
    assert result["loaded"] == []


def test_decide_and_validate_load_neither_suspension_nor_orbit():
    result = _loaded_after(
        ("decide", _corpus("torus_rotation_1d.json"), "--criterion", "full"),
        ("decide", _corpus("free_nilpotent_2_3.json"), "--criterion",
         "full"),
        ("validate", _corpus("heisenberg.json")),
        ("validate", _corpus("paper_example_4d.json")))
    assert result["codes"] == [0, 1, 0, 1]
    assert result["loaded"] == []


def test_decide_full_loads_exactly_the_core_modules():
    # without cached bytecode every module loaded is compiled on each
    # cold start, so a module added to this path costs every command
    result = _loaded_after(
        ("decide", _corpus("torus_rotation_1d.json"), "--criterion", "full"),
        ("decide", _corpus("free_nilpotent_2_3.json"), "--criterion",
         "full"))
    assert result["codes"] == [0, 1]
    assert result["package"] == [
        "nilaa", "nilaa._record", "nilaa.cli", "nilaa.criteria", "nilaa.io",
        "nilaa.lattice", "nilaa.nilalg", "nilaa.nilgrp", "nilaa.poly",
        "nilaa.ratlin"]


_TABLE_PROBE = """
import contextlib, io, json, sys
import nilaa.cli
from nilaa.nilalg import LieAlgebraSpec
view, reads = LieAlgebraSpec.table, []
LieAlgebraSpec.table = property(lambda spec: reads.append(spec.dim) or view.fget(spec))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [nilaa.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "table_reads": reads}))
"""


def test_decide_full_never_builds_the_table_view():
    # the deciders read the algebra's integer form; its dense Fraction
    # table is made only where it is printed
    argvs = [["decide", _corpus(name), "--criterion", "full"]
             for name in ("torus_rotation_1d.json", "free_nilpotent_2_3.json")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", _TABLE_PROBE, json.dumps(argvs)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          encoding="utf-8", timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"codes": [0, 1], "table_reads": []}


@pytest.mark.parametrize("name", ["torus_skew_translation.json",
                                  "heisenberg.json"])
def test_suspend_loads_the_suspension_but_not_the_orbit_oracle(name):
    result = _loaded_after(("suspend", _corpus(name)))
    assert result["codes"] == [0]
    assert result["loaded"] == ["nilaa.suspension"]


def test_simulate_loads_the_orbit_oracle():
    result = _loaded_after(("simulate", _corpus("torus_rotation_1d.json"),
                            "--horizon", "200", "--trials", "1"))
    assert result["codes"] == [0]
    assert "nilaa.orbit" in result["loaded"]
    assert "nilaa.suspension" not in result["loaded"]


def test_no_module_imports_dataclasses_or_generates_code():
    found = []
    for path in sorted((ROOT / "src" / "nilaa").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)):
                names = [node.func.id]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in ("dataclasses", "exec", "eval")]
    assert found == []
