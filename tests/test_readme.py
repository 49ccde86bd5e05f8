"""The README's examples run as written.

The Python example of the library section runs, and each line it prints
matches the `# ...` comment on its print() call.  Each `nilaa` line of
the command-line block runs as `python -m nilaa.cli`, from a temporary
directory so that the files it writes land there, and answers a verdict
(exit 0, 1 or 2) without a traceback.  Each backticked dotted name of the
prose whose head is `nilaa`, one of its submodules or a class of the
package names an attribute that exists (a record field or a slot counts),
outside the list of removed helpers.
"""

import contextlib
import importlib
import inspect
import io
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import nilaa

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def _commands() -> list[list[str]]:
    block = next(b for b in _blocks("sh") if "nilaa corpus run" in b)
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("nilaa ")]


def test_python_example_prints_what_its_comments_say():
    (example,) = _blocks("python")
    expected = [line.split("#", 1)[1].strip() for line in example.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {})
    assert expected and out.getvalue().splitlines() == expected


COMMANDS = _commands()


def test_every_command_line_runs():
    assert len(COMMANDS) == 7


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a[:2]) for a in COMMANDS])
def test_command_line_example_answers(argv, tmp_path):
    argv = [str(ROOT / a) if a.startswith("src/") else a for a in argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-m", "nilaa.cli", *argv],
                            cwd=tmp_path, env=env, capture_output=True,
                            text=True, encoding="utf-8", timeout=120)
    assert result.returncode in (0, 1, 2), result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout


def _references() -> set[str]:
    """The dotted names in the backticked spans of the prose, with the
    removed-helpers list left out, whose head is nilaa, a submodule of it
    or a class defined in one."""
    prose = " ".join(re.sub(r"^```.*?^```", "", README, flags=re.M | re.S)
                     .split())
    start = prose.index("Helpers that no command used are gone")
    prose = prose[:start] + prose[prose.index("Some exports are still "
                                              "reached", start):]
    return {name for span in prose.split("`")[1::2]
            for name in re.findall(r"(?<![\w./])[A-Za-z_]\w*(?:\.\w+)+",
                                   span)
            if name.split(".")[0] in HEADS}


def _heads() -> dict:
    """nilaa, its submodules and the classes defined in them, by name."""
    heads = {"nilaa": nilaa}
    for info in pkgutil.iter_modules(nilaa.__path__):
        module = importlib.import_module(f"nilaa.{info.name}")
        heads[info.name] = module
        heads.update((name, obj) for name, obj in vars(module).items()
                     if inspect.isclass(obj)
                     and obj.__module__ == module.__name__)
    return heads


def _has(obj, name: str) -> bool:
    """An attribute, a record field or a slot of obj."""
    return hasattr(obj, name) or inspect.isclass(obj) and any(
        name in vars(c).get("__annotations__", ())
        or name in vars(c).get("__slots__", ()) for c in obj.__mro__)


HEADS = _heads()


def test_readme_names_resolve():
    missing = []
    for name in sorted(_references()):
        head, *rest = name.split(".")
        obj = HEADS[head]
        for attr in rest:
            if not _has(obj, attr):
                missing.append(name)
                break
            obj = getattr(obj, attr, None)
    assert len(_references()) > 30 and not missing
